"""Error-bound propagation through the BigReal carrier."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from k3mahler import bigreal as br
from k3mahler import lfunctions as lf
from k3mahler.bigreal import BigReal


def agrees_with(x, other, tol):
    return x.abs_diff(other) <= Fraction(tol)


def test_exact_wrap_and_float():
    x = BigReal.exactly(0.5, prec=64)
    assert float(x) == 0.5
    # a dyadic that fits the precision is held exactly; 1/3 rounds by at
    # most half a unit, and the bound says so
    assert x.error_bound == 0
    third = BigReal.exactly(Fraction(1, 3), prec=64)
    assert 0 < third.abs_diff(Fraction(1, 3)) <= third.error_bound <= Fraction(1, 2 ** 65)


def test_bounds_add_and_scale():
    a = BigReal.with_bound(1.0, 1e-10, prec=64)
    b = BigReal.with_bound(2.0, 3e-10, prec=64)
    s = a + b
    assert float(s) == 3.0
    assert float(s.error_bound) >= 4e-10
    d = b - a
    assert float(d) == 1.0
    assert float(d.error_bound) >= 4e-10


def test_mul_bound_dominates_first_order():
    a = BigReal.with_bound(3.0, 1e-9, prec=64)
    b = BigReal.with_bound(4.0, 2e-9, prec=64)
    p = a * b
    assert float(p) == 12.0
    assert float(p.error_bound) >= 3 * 2e-9 + 4 * 1e-9


def test_agreement_predicate():
    a = BigReal.with_bound(1.0, 1e-12, prec=64)
    assert agrees_with(a, 1.0 + 5e-9, 1e-8)
    assert not agrees_with(a, 1.1, 1e-8)
    assert a.abs_diff(BigReal.exactly(1.0, 64)) == 0


def test_bound_kind_propagates():
    exact = BigReal.exactly(2.0, 64)
    est = BigReal.with_bound(1.0, 1e-12, prec=64, kind="estimate")
    assert exact.bound_kind == "rigorous"
    assert (exact * exact + exact - exact).bound_kind == "rigorous"
    assert (exact + est).bound_kind == "estimate"
    assert (exact - est).bound_kind == "estimate"
    assert (exact * est).bound_kind == "estimate"


# ---------------------------------------------------------------------------
# The kernels against mpmath at twice their precision
# ---------------------------------------------------------------------------

KERNEL_PRECS = (53, 128, 200, 400)


def units_off(X, wp, ref):
    """|X 2^-wp - ref| in units 2^-wp, at mpmath's working precision."""
    return abs(mp.mpf(X) - ref * mp.mpf(2) ** wp)


@pytest.mark.parametrize("prec", KERNEL_PRECS)
def test_pi_and_square_roots_within_their_bounds(prec):
    # pi, 1/pi and the square roots of the prefactors and CM points
    with mp.workprec(2 * prec + 32):
        pi, inv_pi = br.pi_reals(prec)
        # within its claimed unit, and in fact rounded to nearest
        assert pi.error_bound * 2 ** prec == 1 and units_off(pi.man, prec, mp.pi) <= 1
        assert pi.man == int(mp.nint(mp.pi * mp.mpf(2) ** prec))
        assert inv_pi.error_bound * 2 ** prec == 2
        assert units_off(inv_pi.man, prec, 1 / mp.pi) <= 2
        for n in (2, 3, 15, 24, 30, 120):
            assert units_off(math.isqrt(n << 2 * prec), prec, mp.sqrt(n)) <= 1


@pytest.mark.parametrize("prec", KERNEL_PRECS + (1000,))
def test_exp_and_e1_over_the_smoothed_sums(prec):
    # e^-x and E1(x) at x = n/A of the smoothed sum for every M//40-th n,
    # and at the chain's junctions: n = 1, 2, 3, where E1(u) meets it, and
    # M - 1, M, where it starts from the continued fraction; at 1000 bits
    # for disc -15 only
    wp = prec + 24
    for disc in (-15,) if prec == 1000 else (-15, -24, -120):
        M = lf.smoothed_lvalue(lf.FORM_SERIES[disc], prec).terms
        U = (br.pi_reals(wp)[0].man << wp + 1) // math.isqrt(abs(disc) << 2 * wp)
        e1 = lf.e1_values(U, wp, M)
        assert len(e1) == M + 1
        ns = sorted({*range(1, M + 1, max(1, M // 40)), 1, 2, 3, M - 1, M})
        with mp.workprec(2 * wp):
            u = mp.mpf(U) / mp.mpf(2) ** wp
        for n in ns:
            # e^-nu and E1(nu) are below 2^(wp - 1.44 floor(nu)) units, so
            # references with 64 bits more are within 2^-64 units
            with mp.workprec(max(64, wp + 64 - int(1.44 * (n * U >> wp)))):
                assert units_off(br.exp_neg(n * U, wp), wp, mp.exp(-n * u)) <= 1, (disc, n)
                assert units_off(e1[n], wp, mp.e1(n * u)) <= 1, (disc, n)


def test_e1_bound_is_not_vacuous():
    # e1_values' bound is 1 unit at every entry, not a free pass
    wp = 152
    U = (br.pi_reals(wp)[0].man << wp + 1) // math.isqrt(120 << 2 * wp)
    e1 = lf.e1_values(U, wp, 182)
    assert e1[1] > 0 and min(e1[1:]) >= 0
    with mp.workprec(2 * wp):
        u = mp.mpf(U) / mp.mpf(2) ** wp
        assert all(units_off(e1[n], wp, mp.e1(n * u)) <= 1 for n in range(1, 183))


def test_e1_chain_longer_than_its_precision():
    # the guard bits grow with the chain: 3000 links at 64 bits, past the
    # n where e^-nu leaves the precision, keep every sampled E1 in its bound
    wp, M = 64, 3000
    U = (br.pi_reals(wp)[0].man << wp + 1) // math.isqrt(15 << 2 * wp)
    e1 = lf.e1_values(U, wp, M)
    with mp.workprec(2 * wp):
        u = mp.mpf(U) / mp.mpf(2) ** wp
        for n in (1, 2, 3, 10, 30, 100, M - 1, M):
            assert units_off(e1[n], wp, mp.e1(n * u)) <= 1, n


def test_bound_units_on_ints():
    # the float formula ceil(2^e) + 1 below e = 53, where the rounding of
    # 2.0 ** e is under the + 1; at least 2^e and within 2^-50 of it plus 2,
    # checked exactly, up to e = 20000, far past the float's overflow at 1024
    # (glibc's pow puts ceil(2.0 ** e) + 1 below 2^e at e = 1010.25)
    rng = random.Random(1)
    for _ in range(2000):
        wp = rng.randrange(53, 1200)
        log2_bound = rng.uniform(-200, 53) - wp
        assert br.bound_units(log2_bound, wp) == math.ceil(2.0 ** (log2_bound + wp)) + 1
    for j in [*range(-100, 20001, 211), 52, 53, 54, 1010, 1023, 1024, 1025]:
        wp = 64 + j % 5000
        for a in (0, 1, 2, 3):
            # e = j + a/4: 2^e <= r <= 2^e (1 + 2^-50) + 2 iff
            # r^4 >= 2^(4j + a) and (r - 2)^4 2^200 <= 2^(4j + a) (2^50 + 1)^4
            r = br.bound_units(j + a / 4 - wp, wp)
            assert r ** 4 >= 1 << max(4 * j + a, 0), (j, a)
            assert max(r - 2, 0) ** 4 << 200 <= (1 << max(4 * j + a, 0)) * (2 ** 50 + 1) ** 4, (j, a)


