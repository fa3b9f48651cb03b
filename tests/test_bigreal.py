"""Error-bound propagation through the BigReal carrier."""

import math
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


@pytest.mark.parametrize("prec", KERNEL_PRECS)
def test_exp_and_e1_over_the_smoothed_sums(prec):
    # e^-x and E1(x) at every x = n/A of the smoothed sum, n = 1..M, for the
    # three discriminants (a sample of n past 40 values): both sides of the
    # split between the power series and the continued fraction
    wp = prec + 24
    for disc, series in lf.FORM_SERIES.items():
        M = lf.smoothed_lvalue(series, prec).terms
        U = (br.pi_reals(wp)[0].man << wp + 1) // math.isqrt(abs(disc) << 2 * wp)
        e1, bound = br.e1_values(U, wp, [True] * (M + 1))
        n0 = -(-(br._E1_SPLIT << wp) // U)
        ns = sorted({*range(1, M + 1, max(1, M // 40)), n0 - 1, n0, n0 + 1, M} - {0})
        with mp.workprec(2 * wp):
            u = mp.mpf(U) / mp.mpf(2) ** wp
            for n in ns:
                assert units_off(br.exp_neg(n * U, wp), wp, mp.exp(-n * u)) <= 1, (disc, n)
                assert units_off(e1[n], wp, mp.e1(n * u)) <= bound, (disc, n)


def test_e1_bound_is_not_vacuous():
    # the uniform bound of e1_values is a few hundred units, not a free pass
    wp = 152
    U = (br.pi_reals(wp)[0].man << wp + 1) // math.isqrt(120 << 2 * wp)
    e1, bound = br.e1_values(U, wp, [True] * 183)
    assert bound < 2 ** 9 and e1[1] > 0 and min(e1[1:]) >= 0


def test_bernoulli_numbers_exact():
    assert br.bernoulli_even(40) == [Fraction(*mp.bernfrac(2 * k)) for k in range(1, 41)]
