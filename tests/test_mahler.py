"""Numerical Mahler-measure evaluators: quadrature, Monte Carlo, the
eta-quotient parametrization, the row kernel of the lattice sums and the
Eisenstein-Kronecker series."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from k3mahler import dirichlet, eisenstein, lfunctions, mahler
from k3mahler.bigreal import BigReal
from k3mahler.surfaces import SURFACES
from k3mahler.dirichlet import d3
from k3mahler.cli import main
from k3mahler.eisenstein import bertin_series, bertin_series_for_k
from k3mahler.mahler import mahler_quadrature
from k3mahler.verify import identity_rhs
from conftest import mahler_mc
from modular import eta, fit_w_expansion, k_of_tau, tau_of_k, w_of_tau
import mp_oracle
from mp_oracle import _row_sums, exact_tau_value, fraction

# the kinks of the inner integrand move with k; 1.999 ... 6.0001 sit next to
# the k where outer breakpoints appear, merge or leave [0, pi]
K_GRID = (0, 2, 4, 6, 1.999, 4.001, 5.999, 6.0001, -7.5, -3, -1, 1, 2.5, 3,
          3.5, 5, 7, 7.5, 9, 12, 18, 30, 100)


def quadpack_quadrature(k, tol=1e-10):
    """m(P_k) by nested adaptive Gauss-Kronrod (scipy's QUADPACK) over the
    same Jensen-reduced integrand and breakpoints: the oracle for the
    tanh-sinh route.  Returns (value, estimated error)."""
    from scipy import integrate

    def acosh_plus(c):
        return math.acosh(abs(c) / 2.0) if abs(c) >= 2.0 else 0.0

    def quad(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return integrate.quad(*args, epsrel=1e-14, limit=200, **kwargs)

    inner_eps = max(tol * math.pi / 16.0, 1e-13)
    outer_eps = max(tol * math.pi ** 2 / 4.0, 1e-12)
    outer_pts = [math.acos(t) for t in (k / 2.0, (k + 4.0) / 2.0, (k - 4.0) / 2.0)
                 if -1.0 < t < 1.0]

    def outer_f(beta):
        b = 2.0 * math.cos(beta) - k
        kinks = sorted(math.acos(t) for t in ((2.0 - b) / 2.0, (-2.0 - b) / 2.0)
                       if -1.0 < t < 1.0)
        return quad(lambda a: acosh_plus(2.0 * math.cos(a) + b), 0.0, math.pi,
                    points=kinks or None, epsabs=inner_eps)[0]

    total, err = 0.0, 0.0
    for lo, hi in ((0.0, math.pi / 2.0), (math.pi / 2.0, math.pi)):
        pts = sorted(p for p in outer_pts if lo < p < hi)
        v, e = quad(outer_f, lo, hi, points=pts or None, epsabs=outer_eps / 2.0)
        total += v
        err += e
    return total / math.pi ** 2, (err + math.pi * inner_eps) / math.pi ** 2


# Tanh-sinh abscissae t = j h of the 2D oracle run over |t| <= _TS_TMAX; the
# levels are h = 2^-1, ..., 2^-_TS_LEVELS, the last about 10^6 integrand values
_TS_TMAX = 3.5
_TS_LEVELS = 6


def _tanh_sinh(h):
    """Tanh-sinh rule on [0, 1] with step h: (gap, upper, weights), the node
    lying `gap` from the lower end (upper False) or from the upper end."""
    n = math.ceil(_TS_TMAX / h)
    t = np.arange(-n, n + 1) * h
    s = 0.5 * math.pi * np.sinh(t)
    cs = np.cosh(s)
    gap = 0.5 * np.exp(-np.abs(s)) / cs
    weights = h * 0.25 * math.pi * np.cosh(t) / (cs * cs)
    return gap, t > 0, weights


def _inner_integrals(b, k, rule):
    """int_0^pi acosh+(|2 cos a + 2 cos b - k| / 2) da for each outer node b.

    With B = 2 cos b - k the integrand is nonzero on [0, e+] (where
    2 cos a + B >= 2, e+ = acos((2 - B)/2)) and on [e-, pi] (where it is
    <= -2, e- = acos((-2 - B)/2)); each segment is empty, ends at a kink, or is
    all of [0, pi].  In the distance d from the kink end the argument is
    1 + u with u = 2 sin(e -+ d/2) sin(d/2) + extra, where extra > 0 only for
    a full segment.
    """
    gap, upper, weights = rule
    nodes = np.where(upper, 1.0 - gap, gap)
    B = 2.0 * np.cos(b) - k
    total = np.zeros_like(b)
    for t, sign in ((1.0 - B / 2.0, -1.0), (-1.0 - B / 2.0, 1.0)):
        e = np.arccos(np.clip(t, -1.0, 1.0))
        length = e if sign < 0 else math.pi - e
        extra = np.maximum(-1.0 - t if sign < 0 else t - 1.0, 0.0)
        d = length[:, None] * nodes[None, :]
        u = (2.0 * np.sin(e[:, None] + sign * 0.5 * d) * np.sin(0.5 * d)
             + extra[:, None])
        f = np.log1p(u + np.sqrt(u * (u + 2.0)))    # acosh(1 + u), small u kept
        total += length * (f @ weights)
    return total


def jensen_2d_quadrature(k):
    """m(P_k) = pi^-2 int_0^pi int_0^pi acosh+(|2 cos a + 2 cos b - k| / 2) da db
    by nested tanh-sinh quadrature in numpy: the two-dimensional oracle for
    the AGM route.  The outer integral is split at pi/2 and where an inner
    kink enters or leaves [0, pi]; both steps are halved together until two
    levels agree to four ulps.  Returns (value, |I_h - I_{h/2}| + 4 ulp)."""
    outer_pts = [math.acos(t) for t in (k / 2.0, (k + 4.0) / 2.0, (k - 4.0) / 2.0)
                 if -1.0 < t < 1.0]
    ends = sorted({0.0, math.pi / 2.0, math.pi, *outer_pts})
    lo, hi = np.array(ends[:-1])[:, None], np.array(ends[1:])[:, None]
    value, diff = None, math.inf
    for level in range(1, _TS_LEVELS + 1):
        rule = _tanh_sinh(2.0 ** -level)
        gap, upper, weights = rule
        b = np.where(upper, hi - (hi - lo) * gap, lo + (hi - lo) * gap)
        inner = _inner_integrals(b.ravel(), k, rule).reshape(b.shape)
        new = math.fsum(((hi - lo) * weights * inner).ravel()) / math.pi ** 2
        if value is not None:
            diff = abs(new - value)
        value = new
        if diff <= 4.0 * math.ulp(value):
            break
    return value, diff + 4.0 * math.ulp(value)


def constant_term_series(k, terms=120):
    """m(P_k) = log k - sum_n c_2n / (2n k^2n) for |k| > 6, where
    c_2n = C(2n,n) sum_j C(n,j)^2 C(2j,j) is the constant term of
    (x+1/x+y+1/y+z+1/z)^2n (Rodriguez-Villegas); c_2n <= 36^n."""
    with mp.workdps(60):
        total = mp.log(k)
        for n in range(1, terms + 1):
            c = math.comb(2 * n, n) * sum(math.comb(n, j) ** 2 * math.comb(2 * j, j)
                                          for j in range(n + 1))
            total -= mp.mpf(c) / (2 * n * mp.mpf(k) ** (2 * n))
        return total


class TestQuadrature:
    def test_matches_quadpack_oracle(self):
        for k in K_GRID:
            v = mahler_quadrature(k)
            ref, ref_err = quadpack_quadrature(k, tol=1e-10)
            assert ref_err <= 1e-10, k
            assert abs(float(v.value) - ref) <= 1e-13, k
            assert v.bound_kind == "estimate"
            assert float(v.error_bound) <= 1e-14, k

    def test_matches_2d_oracle(self):
        # the two routes share nothing past Jensen's formula: one integrates
        # acosh over the 2-torus, the other K times an arccosine
        for k in K_GRID:
            v = mahler_quadrature(k)
            assert v.error_bound <= 1e-10, k
            ref, ref_err = jensen_2d_quadrature(float(k))
            assert abs(float(v.value) - ref) <= float(v.error_bound) + ref_err, k

    def test_error_bounds_at_the_float64_floor(self):
        # four ulps of the value plus |I_h - I_{h/2}|: 0, or one ulp at k = 18
        pinned = {0: 2.2205e-16, 3: 4.4409e-16, 6: 8.8818e-16, 18: 2.2205e-15}
        for k, bound in pinned.items():
            v = mahler_quadrature(k)
            assert float(v.error_bound) <= bound, (k, float(v.error_bound))

    def test_k0_is_d3(self):
        assert mahler_quadrature(0).abs_diff(d3(250).value) <= 1e-16

    def test_k18_constant_term_series(self):
        assert mahler_quadrature(18).abs_diff(fraction(constant_term_series(18))) <= 1e-15

    @pytest.mark.parametrize("k", [1e10, 1e12, 1e18, 1e100, 1e200, 1e300])
    def test_large_k_within_bound(self, k):
        # [4, k - 2] spans up to 300 decades of g ~ 1/t, and past t ~ 1e154
        # t^2 overflows float64; the value must still lie within its bound
        v = mahler_quadrature(k)
        assert v.abs_diff(fraction(constant_term_series(k))) <= v.error_bound, k
        assert float(v.error_bound) <= 1e-12, k

    def test_plus_minus_symmetry(self, quad):
        for k in (3.0, 7.5):
            a, b = mahler_quadrature(k), mahler_quadrature(-k)
            assert a.error_bound <= 1e-9 and b.error_bound <= 1e-9, k
            assert abs(float(a.value) - float(b.value)) < 2e-9

    def test_monotone_for_large_k(self):
        quads = [mahler_quadrature(k) for k in (6, 7, 9, 12, 18, 30, 100)]
        assert all(v.error_bound <= 1e-9 for v in quads)
        vals = [float(v.value) for v in quads]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tolerance_error_carries_estimate(self, capsys):
        # the kernel returns its estimate whatever its bound; `mahler` alone
        # holds that bound to --tol and refuses a tol below it
        v = mahler_quadrature(3)
        assert 0.8 < v.value < 0.9 and v.error_bound > 1e-18
        assert main(["mahler", "--k", "3", "--tol", "1e-18"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requested abs tol 1e-18" in captured.err and "achieved" in captured.err

    def test_invalid_tol(self, capsys):
        # the kernel takes no tol: `mahler` refuses one that is not > 0
        for tol in ("0", "-1e-8"):
            with pytest.raises(SystemExit) as exc:
                main(["mahler", "--k", "3", "--tol", tol])
            assert exc.value.code == 2, tol
        assert "must be > 0" in capsys.readouterr().err

    def test_non_finite_k_rejected(self):
        for k in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                mahler_quadrature(k)

    def test_nan_bound_reaches_no_tolerance(self, monkeypatch, capsys):
        # a NaN integrand gives a NaN bound, which the kernel refuses, so it
        # certifies no tolerance, not even the loosest
        monkeypatch.setattr(mahler, "_period_integrand", lambda *args: math.nan)
        with pytest.raises(RuntimeError, match="achieved nan"):
            mahler_quadrature(3)
        assert main(["mahler", "--k", "3", "--tol", "1e300"]) == 1
        assert "achieved nan" in capsys.readouterr().err


class TestMonteCarlo:
    def test_deterministic(self):
        a = mahler_mc(6, 10 ** 3, seed=123)
        b = mahler_mc(6, 10 ** 3, seed=123)
        assert a == b

    def test_seed_sensitivity(self):
        assert mahler_mc(6, 10 ** 4, seed=1) != mahler_mc(6, 10 ** 4, seed=2)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mahler_mc(6, 10, seed=0)

    def test_agreement_with_quadrature(self, quad):
        for k in (0, 6):
            est, se = mahler_mc(k, 10 ** 6, seed=20240 + k)
            assert abs(est - float(quad(k).value)) <= 4 * se

    def test_raw_torus_integrand(self, quad):
        est, se = mahler_mc(6, 2 * 10 ** 5, seed=5, integrand="torus3")
        assert abs(est - float(quad(6).value)) <= 4 * se


class TestEta:
    def test_large_im_one_term(self):
        v = eta(10j, prec=120)
        with mp.workprec(140):
            ref = mp.exp(-10 * mp.pi / 12) * (1 - mp.exp(-20 * mp.pi))
            assert abs(v - ref) < mp.mpf(10) ** -25

    def test_shift_identity(self):
        with mp.workprec(140):
            for tau in (mp.mpc(0.31, 0.87), mp.mpc(-0.4, 0.55), mp.mpc(0, 1.9)):
                lhs = eta(tau + 1, 120)
                rhs = mp.exp(1j * mp.pi / 12) * eta(tau, 120)
                assert abs(lhs - rhs) < mp.mpf(2) ** -110

    def test_truncation_doubling(self):
        with mp.workprec(140):
            tau = mp.mpc(0.2, 0.8)
            n = int((120 + 24) * math.log(2) / (2 * math.pi * 0.8)) + 4
            a = eta(tau, 120, n_terms=n)
            b = eta(tau, 120, n_terms=2 * n)
            assert abs(a - b) < mp.mpf(2) ** -120

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eta(mp.mpc(0.5, -1.0), 64)


class TestModularParametrization:
    def test_q_expansion_coefficients(self):
        coeffs = fit_w_expansion(6, prec=220)
        for got, want in zip(coeffs[:4], (1, -6, 15, -20)):
            assert abs(got - want) < 1e-10

    def test_k_of_tau_table(self):
        with mp.workprec(140):
            for k in (3, 6, 18):
                tau = exact_tau_value(k, 128)
                assert abs(k_of_tau(tau, 128) - k) < mp.mpf(2) ** -120

    def test_tau_of_k_tabulated(self):
        cm = tau_of_k(6, prec=128)
        assert cm.source == "table"
        with mp.workprec(140):
            assert abs(cm.tau - 1j / mp.sqrt(6)) < mp.mpf(2) ** -125

    def test_tau_of_k_numeric(self):
        prec = 80
        cm = tau_of_k(100, prec=prec)
        assert cm.source == "numeric-inversion"
        with mp.workprec(prec + 40):
            w = w_of_tau(cm.tau, prec + 16)
            target = (mp.mpf(100) - mp.sqrt(mp.mpf(100) ** 2 - 4)) / 2
            assert abs(w - target) < mp.mpf(2) ** -(prec - 8)

    def test_tau_of_k_out_of_range(self):
        with pytest.raises(ValueError):
            tau_of_k(3.5, prec=64)


def ek_vs_lvalue(k, prec):
    """(|EK - right-hand side|, err(EK) + err(right-hand side)) at prec bits,
    the right-hand side summed as verify sums it, by verify.identity_rhs."""
    ek, (rhs, _, _) = bertin_series_for_k(k, prec), identity_rhs(SURFACES[k], prec)
    assert ek.bound_kind == rhs.bound_kind == "rigorous"
    return ek.abs_diff(rhs), ek.error_bound + rhs.error_bound


# points z with Re z != 0 and Im z across [0.2, 3]
ROW_POINTS = (0.3 + 0.7j, -1.2 + 0.25j, 0.5 + 2.5j, 3.7 + 3j, 0.01 + 0.2j,
              -0.49 + 1.1j, 2.25 + 0.9j, -7.8 + 1.6j, 0.125 + 2.0j, 12.6 + 0.45j,
              -0.5 + 0.2j)


class TestRowSums:
    def test_matches_direct_sums(self):
        # mp.nsum (Richardson on the two half-lines) is independent of the
        # partial fractions and the cotangent
        with mp.workdps(20):
            for z in map(mp.mpc, ROW_POINTS):
                zb = mp.conj(z)
                a = mp.nsum(lambda n: 1 / ((n + z) ** 3 * (n + zb)), [-mp.inf, mp.inf],
                            method="richardson")
                b = mp.nsum(lambda n: 1 / ((n + z) ** 2 * (n + zb) ** 2), [-mp.inf, mp.inf],
                            method="richardson")
                got_a, got_b = _row_sums(z)
                assert abs(got_a - a) <= 1e-15 * (1 + abs(a)), z
                assert abs(got_b - b) <= 1e-15 * (1 + abs(b)), z


class TestBertinSeries:
    def test_matches_quadrature(self, quad):
        for k in (0, 2, 3, 6, 10, 18):
            b = bertin_series_for_k(k, 64)
            assert b.bound_kind == "rigorous"
            assert b.consistent_with(quad(k)), k

    def test_matches_quadrature_at_inverted_point(self, quad):
        # end-to-end: numeric inversion of the modular parametrization feeds
        # the lattice sums, which must land on the quadrature value
        cm = tau_of_k(100, prec=80)
        assert mp.re(cm.tau) == 0
        b = bertin_series((0, BigReal.exactly(fraction(mp.im(cm.tau)), 112)), 64)
        assert abs(float(b.value) - float(quad(100, 1e-9).value)) < 1e-7

    def test_precision_doubling_within_bound(self):
        for k in (0, 3, 6, 18):
            a = bertin_series_for_k(k, 64)
            b = bertin_series_for_k(k, 160)
            assert a.abs_diff(b) <= a.error_bound, k

    def test_matches_lvalue_side_at_200_bits(self):
        # both sides are rounded to 200 bits, whose half-ulp near 2.9 is
        # 1.3e-60; both bounds are rigorous
        for k in (0, 3, 6, 18):
            diff, bound = ek_vs_lvalue(k, 200)
            assert diff < 1e-59 and diff <= bound, (k, diff, bound)

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            bertin_series((0, BigReal.exactly(-0.5)), 64)


def oracle_gaps(prec, oracle_prec, ks=(0, 2, 3, 6, 10, 18)):
    """[(name, |value - oracle|, err(value), err(oracle))] for the smoothed
    L-values of the three discs, d3, the Epstein combination and the
    Eisenstein-Kronecker series at the tabulated CM point of each k, at prec
    bits, against the mpmath routes at oracle_prec bits."""
    rows = [(f"L(phi_{disc}, 3)", lfunctions.smoothed_lvalue(series, prec),
             mp_oracle.smoothed_lvalue(series, oracle_prec))
            for disc, series in lfunctions.FORM_SERIES.items()]
    rows += [("d3", d3(prec), mp_oracle.d3(oracle_prec)),
             ("epstein", dirichlet.epstein_combo(prec), mp_oracle.epstein_combo(oracle_prec))]
    rows += [(f"EK k={k}", bertin_series_for_k(k, prec), mp_oracle.bertin_series_for_k(k, oracle_prec))
             for k in ks]
    with mp.workprec(2 * max(prec, oracle_prec)):
        return [(name, abs(mp.mpf(v.value.numerator) / v.value.denominator - ref.value),
                 mp.mpf(v.error_bound.numerator) / v.error_bound.denominator, ref.error_bound)
                for name, v, ref in rows]


class TestAgainstTheMpmathRoutes:
    def test_routes_at_256_bits(self):
        for name, gap, err, ref_err in oracle_gaps(256, 256):
            assert gap <= err + ref_err, name
            assert err < mp.mpf(2) ** -250, name

    def test_zeta3_within_its_bound(self):
        for prec in (53, 128, 200, 400):
            z = dirichlet._zeta3(prec)
            with mp.workprec(2 * prec):
                assert z.abs_diff(fraction(mp.zeta(3))) <= z.error_bound, prec

    def test_exact_tau_value(self):
        for k in (0, 2, 3, 6, 10, 18):
            re, im = eisenstein.exact_tau_value(k, 128)
            with mp.workprec(256):
                ref = mp_oracle.exact_tau_value(k, 256)
                assert abs(re - fraction(mp.re(ref))) < Fraction(1, 2 ** 250), k
                assert im.abs_diff(fraction(mp.im(ref))) <= im.error_bound, k

    def test_root_of_unity_refuses_other_real_parts(self):
        # only a tau with 12 Re tau an integer has 12th roots of unity
        for re in (Fraction(1, 5), Fraction(1, 24), 0.1):
            with pytest.raises(ValueError, match="not an integer"):
                bertin_series((re, BigReal.exactly(1)), 64)

    def test_every_twelfth_against_the_row_sums(self):
        # Re tau = t/12 for every t mod 12, against the cot row kernel of the
        # mpmath route; Im tau = 1/2 keeps the rows fast
        for t in range(-6, 7):
            tau = (Fraction(t, 12), BigReal.exactly(0.5))
            got = bertin_series(tau, 96)
            with mp.workprec(160):
                ref = mp_oracle.bertin_series(mp.mpc(mp.mpf(t) / 12, 0.5), 96)
                gap = abs(mp.mpf(got.value.numerator) / got.value.denominator - ref.value)
                assert gap <= got.error_bound + ref.error_bound, t
