"""Hecke form-series coefficients against the printed tables, L-value
machinery, d3, the Epstein combination, and twisting utilities."""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from k3mahler import lfunctions as lf
from k3mahler import pointcount as pc
from k3mahler.bigreal import BigReal
from k3mahler.surfaces import NEWFORM_AP, SURFACES
from k3mahler.dirichlet import d3, epstein_combo
from conftest import lvalue_from_coeffs, tail_scale
from modular import form_coefficients_numpy, newform_coefficients
from mp_oracle import fraction

# the printed phi-rows (coefficients of the three Hecke series at p <= 31)
PHI_ROWS = {
    -24: {2: -2, 3: 3, 5: 2, 7: -10, 11: -10, 13: 0, 17: 0, 19: 0, 23: 0,
          29: 50, 31: 38},
    -15: {2: -1, 3: 3, 5: -5, 7: 0, 11: 0, 13: 0, 17: 14, 19: -22, 23: -34,
          29: 0, 31: 2},
    -120: {2: -2, 3: 3, 5: 5, 7: 0, 11: -2, 13: -14, 17: 26, 19: 0, 23: 14,
           29: -38, 31: -58},
}

PRIMES_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def sigma1(limit):
    out = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        out[d::d] += d
    return out


class TestFormCoefficients:
    def test_printed_rows_exact(self):
        for disc, row in PHI_ROWS.items():
            co = lf.form_coefficients(lf.FORM_SERIES[disc], 40)
            for p, want in row.items():
                assert co[p] == want, (disc, p)

    def test_leading_coefficient(self):
        for disc in PHI_ROWS:
            assert lf.form_coefficients(lf.FORM_SERIES[disc], 10)[1] == 1

    def test_inert_primes_vanish(self):
        for disc in PHI_ROWS:
            co = lf.form_coefficients(lf.FORM_SERIES[disc], 200)
            for p in (x for x in range(3, 201) if _is_prime(x)):  # 2 is not inert
                if pc.legendre(disc, p) == -1:
                    assert co[p] == 0, (disc, p)

    def test_hecke_multiplicativity_split_primes(self):
        for disc in PHI_ROWS:
            co = lf.form_coefficients(lf.FORM_SERIES[disc], 2500)
            split = [p for p in range(2, 51)
                     # (d/2) = 1 iff d = 1 mod 8
                     if _is_prime(p) and (pc.legendre(disc, p) if p > 2 else disc % 8) == 1]
            for i, p in enumerate(split):
                for q in split[i + 1:]:
                    if p * q <= 2500:
                        assert co[p] * co[q] == co[p * q], (disc, p, q)

    def test_coefficient_bound(self):
        # |A_n| <= n d(n) holds with equality at split primes; the simpler
        # 2 sigma_1(n) is violated already at A_203 = A_7 A_29 = -500
        dn = np.zeros(10 ** 4 + 1, dtype=np.int64)
        for d in range(1, 10 ** 4 + 1):
            dn[d::d] += 1
        n = np.arange(1, 10 ** 4 + 1)
        for disc in PHI_ROWS:
            co = lf.form_coefficients(lf.FORM_SERIES[disc], 10 ** 4)
            assert np.all(np.abs(co[1:]) <= n * dn[1:])
        co24 = lf.form_coefficients(lf.FORM_SERIES[-24], 210)
        assert abs(co24[203]) > 2 * sigma1(203)[203]

    def test_tail_bound_covers_absolute_tail(self):
        # the ellipse-exterior bound must dominate even the absolute tail
        for disc in PHI_ROWS:
            series = lf.FORM_SERIES[disc]
            co = lf.form_coefficients(series, 10 ** 5)
            n = np.arange(1, 10 ** 5 + 1, dtype=np.float64)
            absterm = np.abs(co[1:]) * n ** -3.0
            for N in (10 ** 3, 10 ** 4):
                measured = float(np.sum(absterm[N:]))
                assert measured < 2.0 * tail_scale(series) / N, (disc, N)

    def test_term_validation(self):
        with pytest.raises(ValueError, match="positive definite"):
            lf.QuadFormTerm((1, 2, 1), (1, 0, 1), 1, 1)      # disc 0
        with pytest.raises(ValueError, match="positive definite"):
            lf.QuadFormTerm((-1, 0, -6), (1, 0, -6), 1, 1)
        with pytest.raises(ValueError, match="sign"):
            lf.QuadFormTerm((1, 0, 6), (1, 0, -6), 0, 1)

    def test_small_N_rejected(self):
        with pytest.raises(ValueError):
            lf.form_coefficients(lf.FORM_SERIES[-24], 1)

    def test_matches_numpy_enumeration(self):
        for disc in PHI_ROWS:
            for N in (2, 3, 97, 2 * 10 ** 4):
                co = lf.form_coefficients(lf.FORM_SERIES[disc], N)
                want = form_coefficients_numpy(lf.FORM_SERIES[disc], N)
                assert all(type(v) is int for v in co) and co == want, (disc, N)


class TestLValues:
    def test_truncation_stability(self, hecke, lvalue_256):
        for disc in PHI_ROWS:
            a = hecke(disc, 250_000)
            b = hecke(disc, 500_000)
            assert abs(float(a.value) - float(b.value)) < float(a.error_bound)
            # and each truncation lies within its bound of L(phi, 3)
            assert a.abs_diff(lvalue_256[disc]) <= a.error_bound, disc
            assert b.abs_diff(lvalue_256[disc]) <= b.error_bound, disc

    def test_identity_k3(self, quad, hecke):
        pref = 15 * math.sqrt(15) / (2 * math.pi ** 3)
        assert abs(float(quad(3).value) - pref * float(hecke(-15).value)) < 1e-5

    def test_identity_k6(self, quad, hecke):
        pref = 24 * math.sqrt(6) / math.pi ** 3
        assert abs(float(quad(6).value) - pref * float(hecke(-24).value)) < 1e-5

    def test_insufficient_coefficients(self):
        series = lf.FORM_SERIES[-24]
        co = lf.form_coefficients(series, 100)
        with pytest.raises(ValueError, match="insufficient"):
            lvalue_from_coeffs(co, tail_scale(series), s=3, N=500)
        with pytest.raises(ValueError):
            lvalue_from_coeffs(co, tail_scale(series), s=2)


class TestSmoothedLValue:
    def test_inside_direct_sum_bound(self, hecke):
        for disc in PHI_ROWS:
            v = lf.smoothed_lvalue(lf.FORM_SERIES[disc], 128)
            assert v.bound_kind == "rigorous"
            assert v.abs_diff(hecke(disc)) <= hecke(disc).error_bound, disc

    def test_prec_128_within_its_bound_of_256(self, lvalue_256):
        for disc in PHI_ROWS:
            v128 = lf.smoothed_lvalue(lf.FORM_SERIES[disc], 128)
            assert v128.error_bound < Fraction(1, 2 ** 120)
            assert v128.abs_diff(lvalue_256[disc]) <= v128.error_bound, disc

    def test_guard_rejects_wrong_functional_equation(self):
        # the level is |disc|: doubling it breaks the functional equation
        for disc in PHI_ROWS:
            series = lf.FORM_SERIES[disc]
            with pytest.raises(ArithmeticError):
                lf.smoothed_lvalue(series._replace(disc=2 * disc), 128)

    def test_coefficient_bound(self):
        n = np.arange(1, 10 ** 4 + 1)
        for disc in PHI_ROWS:
            series = lf.FORM_SERIES[disc]
            co = lf.form_coefficients(series, 10 ** 4)
            assert np.all(np.abs(co[1:]) <= series.coeff_bound() * n * n)

    def test_numerator_bounds_exact(self):
        # |N| <= L Q on the real plane iff L Q2 + N2 and L Q2 - N2 are positive
        # semidefinite, for the doubled Gram matrices Q2 and N2 of the forms
        def dominates(term, bound):
            (a, b, c), (p, q, r) = term.form, term.numerator
            for s in (1, -1):
                m11, m12, m22 = bound * 2 * a + s * 2 * p, bound * b + s * q, bound * 2 * c + s * 2 * r
                if m11 < 0 or m22 < 0 or m11 * m22 < m12 * m12:
                    return False
            return True

        terms = [t for series in lf.FORM_SERIES.values() for t in series.terms]
        assert len(terms) == 8
        for t in terms:
            assert dominates(t, t.numerator_bound), t
            assert not dominates(t, t.numerator_bound - 1), t  # and the bound is tight


class TestEpstein:
    def test_matches_d3_combination(self, d3_value):
        v = epstein_combo(128)
        assert abs(float(v.value) - 2.8 * float(d3_value.value)) < 1e-5
        # at 128 bits, inside both rigorous bounds
        d3_term = BigReal.exactly(Fraction(14, 5), 128) * d3_value
        assert v.bound_kind == d3_term.bound_kind == "rigorous"
        assert v.consistent_with(d3_term)

    def test_precision_doubling_within_bound(self):
        a = epstein_combo(64)
        b = epstein_combo(160)
        assert a.bound_kind == b.bound_kind == "rigorous"
        assert a.abs_diff(b) <= a.error_bound


@functools.cache
def d3_reference(prec: int) -> Fraction:
    """d3 = (3 sqrt(3) / 4 pi) L(chi_-3, 2) by the trigamma values
    L(chi_-3, 2) = (psi'(1/3) - psi'(2/3)) / 9, at prec bits."""
    with mp.workprec(prec):
        return fraction(3 * mp.sqrt(3) / (4 * mp.pi)
                        * (mp.polygamma(1, mp.mpf(1) / 3) - mp.polygamma(1, mp.mpf(2) / 3)) / 9)


class TestDirichletAndD3:
    def test_against_trigamma(self):
        v = d3(prec=160)
        assert v.abs_diff(d3_reference(200)) < Fraction(1, 2 ** 150)

    @pytest.mark.parametrize("prec", (53, 64, 128, 200, 256, 400, 1000, 2000, 5000))
    def test_within_its_bound(self, prec):
        # one reference at 5064 bits, within 2^-5050, serves every prec
        v = d3(prec)
        assert v.bound_kind == "rigorous" and v.error_bound <= Fraction(1, 2 ** prec)
        assert v.abs_diff(d3_reference(5064)) <= v.error_bound + Fraction(1, 2 ** 5050)

    def test_partial_sums_bracket(self):
        # blocks of (1/(3j+1)^2 - 1/(3j+2)^2) are positive and decreasing,
        # so the partial sums increase toward the limit L(chi_-3, 2) from below
        L = float(d3(prec=80).value) * 4 * math.pi / (3 * math.sqrt(3))
        partial = 0.0
        prev_block = float("inf")
        for j in range(200):
            block = 1 / (3 * j + 1) ** 2 - 1 / (3 * j + 2) ** 2
            assert 0 < block < prev_block
            partial += block
            assert partial < L
            prev_block = block

    def test_d3_against_two_variable_measure(self, d3_value):
        # m(x + y + 1) by the one-variable Jensen reduction:
        # 2 * int_0^(1/3) log(2 cos(pi t)) dt
        val, err = integrate.quad(
            lambda t: math.log(2 * math.cos(math.pi * t)), 0.0, 1.0 / 3.0,
            epsabs=1e-12, limit=200)
        assert abs(2 * val - float(d3_value.value)) < 1e-8


def cm_disc(level):
    """The discriminant of the surface whose newform has this level."""
    return next(s.disc for s in SURFACES.values() if s.level == level)


class TestNewformTables:
    def test_entries(self):
        assert NEWFORM_AP[24][7] == -10
        assert NEWFORM_AP[15][17] == 14
        assert NEWFORM_AP[120][31] == -58
        assert cm_disc(120) == -120

    def test_all_33_values_pinned(self):
        # every (level, p, a_p) of the embedded table, written out
        want = {
            15: [(2, -1), (3, 3), (5, -5), (7, 0), (11, 0), (13, 0), (17, 14),
                 (19, -22), (23, -34), (29, 0), (31, 2)],
            24: [(2, 2), (3, -3), (5, -2), (7, -10), (11, 10), (13, 0), (17, 0),
                 (19, 0), (23, 0), (29, -50), (31, 38)],
            120: [(2, 2), (3, 3), (5, -5), (7, 0), (11, 2), (13, -14), (17, -26),
                  (19, 0), (23, -14), (29, 38), (31, -58)],
        }
        for level, rows in want.items():
            assert NEWFORM_AP[level] == dict(rows), level

    def test_inert_vanishing_on_tabled_primes(self):
        for level in (15, 24, 120):
            for p in PRIMES_31[1:]:  # 2 is not inert
                if pc.legendre(cm_disc(level), p) == -1:
                    assert NEWFORM_AP[level][p] == 0, (level, p)


class TestTwisting:
    def test_examples(self):
        assert lf.twist_coeff(-2, -3, 5) == 2
        assert lf.twist_coeff(10, -3, 11) == -10
        assert lf.twist_coeff(0, -3, 7) == 0

    def test_bad_prime_rejected(self):
        with pytest.raises(ValueError):
            lf.twist_coeff(5, -3, 3)
        with pytest.raises(ValueError, match="odd prime"):
            lf.twist_coeff(5, -3, 2)

    def test_phi_rows_are_twists_of_newforms(self):
        for level, d in ((24, -3), (120, -3)):
            row = PHI_ROWS[cm_disc(level)]
            assert -NEWFORM_AP[level][2] == row[2]  # (-3/2) = -1
            for p in PRIMES_31[2:]:
                # p = 3 is the twisting prime: the coefficient is regained,
                # not given by (d/p) a_p
                assert lf.twist_coeff(NEWFORM_AP[level][p], d, p) == row[p]
        assert all(NEWFORM_AP[15][p] == PHI_ROWS[-15][p] for p in PRIMES_31)


class TestNewformCoefficients:
    def test_tables_reproduced(self):
        for level in (15, 24, 120):
            co = newform_coefficients(level, 40)
            for p in PRIMES_31:
                assert co[p] == NEWFORM_AP[level][p], (level, p)

    def test_level15_lvalue_matches_hecke(self, hecke):
        co = newform_coefficients(15, 500_000)
        v = lvalue_from_coeffs(co, tail_scale(lf.FORM_SERIES[-15]), s=3)
        assert abs(float(v.value) - float(hecke(-15, 500_000).value)) < 1e-10

    def test_twisted_lvalue_is_the_form_series(self, quad, hecke):
        # L(f_24 x (-3/.), 3) is computed from the disc -24 form series;
        # the identity ties it back to the Mahler measure
        pref = 24 * math.sqrt(6) / math.pi ** 3
        assert abs(pref * float(hecke(-24).value) - float(quad(6).value)) < 1e-5

    def test_multiplicativity_with_power_of_three(self):
        co = newform_coefficients(24, 200)
        assert co[9] == co[3] ** 2
        assert co[6] == co[2] * co[3]
        assert co[12] == co[4] * co[3]


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
