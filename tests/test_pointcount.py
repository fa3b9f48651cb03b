"""Finite-field fiber counts and the A_p assembly, checked against brute
force, the Hasse bound, and the published coefficient tables."""

import random

import numpy as np
import pytest

from k3mahler import lfunctions as lf
from k3mahler import pointcount as pc
from k3mahler.lattices import SURFACES

AP_TABLE_K6 = {5: 2, 7: -10, 11: -10, 13: 0, 17: 0, 19: 0, 23: 0, 29: 50, 31: 38}


class TestLegendre:
    def test_examples(self):
        assert pc.legendre(-3, 7) == 1
        assert pc.legendre(-3, 5) == -1
        assert pc.legendre(7 * 3, 7) == 0

    def test_euler_criterion_consistency(self):
        for p in (5, 7, 11, 13, 17):
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                assert pc.legendre(a, p) == (1 if a in squares else -1)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            pc.legendre(2, 9)


class TestCubicFiberCounts:
    def test_against_enumeration(self):
        for p in (5, 7, 11, 13):
            for k in (3, 6, 18):
                for s in list(range(p)) + ["inf"]:
                    fast = pc.count_fiber_points(k, s, p)
                    slow = pc.count_fiber_points(k, s, p, method="enumerate")
                    assert fast == slow, (k, s, p)

    def test_chart_independence(self):
        # the cubic is symmetric in (x, y, z); count the (x:1:z) chart directly
        def count_other_chart(k, s, p):
            s2, c = pc._fiber_params(k, s, p)

            def f(x, y, z):
                return (s2 * (x + y) * (x + z) * (y + z) + c * x * y * z) % p

            total = sum(1 for x in range(p) for z in range(p) if f(x, 1, z) == 0)
            total += sum(1 for x in range(p) if f(x, 0, 1) == 0)  # y=0, z=1
            total += 1 if f(1, 0, 0) == 0 else 0
            return total

        for p in (5, 11):
            for s in (1, 2, "inf"):
                assert count_other_chart(6, s, p) == pc.count_fiber_points(6, s, p)

    def test_hasse_bound_on_smooth_fibers(self):
        rng = random.Random(4)
        for _ in range(60):
            p = rng.choice([11, 13, 17, 19, 23, 29, 31, 37])
            k = rng.choice([3, 6, 18])
            s = rng.randrange(1, p)
            # skip singular fibers: s=0, 1/k, roots of s^2-ks+1, 9s^2-ks+1
            if (s * s - k * s + 1) % p == 0 or (9 * s * s - k * s + 1) % p == 0:
                continue
            if (k * s - 1) % p == 0:
                continue
            n = pc.count_fiber_points(k, s, p)
            assert abs(n - (p + 1)) <= 2 * np.sqrt(p)

    def test_bad_characteristic_rejected(self):
        with pytest.raises(ValueError):
            pc.count_fiber_points(6, 1, 3)


class TestWeierstrassFiberScan:
    def test_cubic_scan_matches_per_fiber_counts(self):
        # the vectorized cubic scan agrees with the scalar counter fiberwise
        for p in (5, 7, 11, 13):
            for k in (3, 6, 18):
                vals = pc.cubic_fiber_ap_values(k, p)
                for i, s in enumerate(list(range(p)) + ["inf"]):
                    assert vals[i] == p + 1 - pc.count_fiber_points(k, s, p)

    def test_fiber_count_records(self):
        recs = pc.fiber_counts(6, 7)
        assert len(recs) == 8 and recs[-1].s == "inf"
        for r in recs:
            assert r.a_p_s == 7 + 1 - r.count
        assert -sum(r.a_p_s for r in recs) == pc.A_p(6, 7)

    def test_against_pointwise_weierstrass_counts(self):
        for p in (5, 7, 11, 13):
            for k in (3, 6, 18):
                vals = pc.weierstrass_fiber_ap_values(k, p)
                for s in range(p):
                    coeffs = (s * s - k * s + 1, s * s - k * s - 1, 0,
                              k * s - s * s, 0)
                    cnt = _raw_weierstrass_count(coeffs, p)
                    assert vals[s] == p + 1 - cnt, (k, p, s)
                cnt_inf = _raw_weierstrass_count((1, 0, 0, 0, 0), p)
                assert vals[p] == p + 1 - cnt_inf

    def test_matches_quadratic_oracle(self):
        cases = [(k, p) for p in pc.primes_up_to(400) if p >= 5
                 for k in (0, 1, 2, 3, 6, 10, 18)]
        cases += [(k, p) for p in (1009, 1499, 1999) for k in (3, 6, 18)]
        for k, p in cases:
            vals = pc.weierstrass_fiber_ap_values(k, p)
            want = _weierstrass_fiber_ap_values_oracle(k, p)
            assert vals.dtype == want.dtype and np.array_equal(vals, want), (k, p)

    def test_zero_quadratic_coefficient_branch(self, monkeypatch):
        # at p = 11, A = (u^2 + 6u - 3)/4 vanishes at u = 7 and u = 9;
        # with k = 3, u = s^2 - 3s is 9 at s = 1, 2 and 7 at s = 6, 8
        seen = []
        direct = pc.count_weierstrass

        def spy(coeffs, p):
            seen.append(-coeffs[3] % p)
            return direct(coeffs, p)

        monkeypatch.setattr(pc, "count_weierstrass", spy)
        vals = pc.weierstrass_fiber_ap_values(3, 11)
        assert set(seen) == {7, 9}
        assert np.array_equal(vals, _weierstrass_fiber_ap_values_oracle(3, 11))

    def test_rounding_guard(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
        with pytest.raises(ArithmeticError):
            pc.weierstrass_fiber_ap_values(6, 101)


class TestAp:
    def test_k6_table_row(self):
        for p, want in AP_TABLE_K6.items():
            assert pc.A_p(6, p) == want

    def test_k18_p31(self):
        assert pc.A_p(18, 31) == -58
        assert lf.twist_coeff(lf.newform_table(120).ap[31], -3, 31) == -58

    def test_matches_twisted_newform_all_k(self):
        for k in (3, 6, 18):
            surf = SURFACES[k]
            nf = lf.newform_table(surf.level)
            for p in pc.primes_up_to(31):
                if p in surf.bad_primes:
                    continue
                want = nf.ap[p] if surf.ap_twist is None \
                    else lf.twist_coeff(nf.ap[p], surf.ap_twist, p)
                assert pc.A_p(k, p) == want, (k, p)

    def test_bad_prime_error_lists_excluded_set(self):
        with pytest.raises(ValueError, match=r"excluded set \[2, 3, 5\]"):
            pc.A_p(18, 5)
        with pytest.raises(ValueError, match="bad prime"):
            pc.A_p(6, 2)

    def test_inert_vanishing_and_weight_bound_up_to_200(self):
        for k, disc in ((3, -15), (6, -24), (18, -120)):
            surf = SURFACES[k]
            for p in pc.primes_up_to(200):
                if p in surf.bad_primes:
                    continue
                ap = pc.A_p(k, p)
                assert abs(ap) <= 2 * p
                if lf.kronecker(disc, p) == -1:
                    assert ap == 0, (k, p)

    def test_scan_matches_form_series_to_3000(self):
        for k in (3, 6, 18):
            co = lf.form_coefficients(lf.FORM_SERIES[SURFACES[k].disc], 3000)
            aps = pc.ap_scan(k, 3000)
            assert len(aps) > 400
            for p, ap in aps.items():
                assert ap == co[p], (k, p)

    def test_multiplicativity_cross_check(self):
        co = lf.form_coefficients(lf.FORM_SERIES[-24], 500)
        for p, q in ((5, 7), (5, 11), (7, 11)):
            ap = pc.A_p(6, p)
            aq = pc.A_p(6, q)
            assert ap * aq == co[p * q]


class TestWeierstrassCounts:
    def _twist_coeffs(self, sigma):
        a1 = sigma * sigma - 18 * sigma + 1
        a2 = -sigma ** 4 + 36 * sigma ** 3 - 329 * sigma ** 2 + 90 * sigma + 2
        a4 = 9 * sigma * (-sigma + 18)
        return (a1, a2, 0, a4, 0)

    def test_twisted_curve_mod5(self):
        for sigma in (1, 2):
            coeffs = self._twist_coeffs(sigma)
            assert pc.count_weierstrass(coeffs, 5) == 6
        assert pc.point_order(self._twist_coeffs(1), (3, 1), 5) == 6

    def test_bad_reduction_raises(self):
        # sigma = 0 reduces to a singular curve
        with pytest.raises(ValueError, match="singular"):
            pc.count_weierstrass(self._twist_coeffs(0), 5)

    def test_point_order_rejects_singular_reduction(self):
        # (0, 0) lies on the sigma = 0 curve y^2 + xy = x^3 + 2x^2 mod 5
        assert pc.weierstrass_invariants(*self._twist_coeffs(0))[3] % 5 == 0
        with pytest.raises(ValueError, match="singular"):
            pc.point_order(self._twist_coeffs(0), (0, 0), 5)

    def test_against_enumeration(self):
        cnt = pc.count_weierstrass((0, 0, 0, 1, 0), 5)  # y^2 = x^3 + x
        assert cnt == _raw_weierstrass_count((0, 0, 0, 1, 0), 5)
        rng = random.Random(8)
        for _ in range(30):
            p = rng.choice([5, 7, 11, 13])
            coeffs = tuple(rng.randrange(p) for _ in range(5))
            try:
                fast = pc.count_weierstrass(coeffs, p)
            except ValueError:
                continue
            assert fast == _raw_weierstrass_count(coeffs, p)

    def test_point_order_checks_membership(self):
        with pytest.raises(ValueError, match="not on the curve"):
            pc.point_order((0, 0, 0, 1, 0), (1, 1), 5)


def _raw_weierstrass_count(coeffs, p):
    a1, a2, a3, a4, a6 = (v % p for v in coeffs)
    total = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y
                    - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0:
                total += 1
    return total


def _weierstrass_fiber_ap_values_oracle(k, p):
    """The O(p^2) broadcasting scan: a_p(s) = -sum_x chi(f_s(x)) for the
    completed square f_s of every fiber, then the s = infinity fiber."""
    chi = pc._legendre_table(p)
    s = np.arange(p, dtype=np.int64)
    a1 = (s * s - k * s + 1) % p
    a2 = (s * s - k * s - 1) % p
    a4 = (k * s - s * s) % p
    b2 = (a1 * a1 + 4 * a2) % p
    b4 = (2 * a4) % p
    x = np.arange(p, dtype=np.int64)
    f = (4 * x[None, :] ** 3 + b2[:, None] * (x * x)[None, :]
         + (2 * b4)[:, None] * x[None, :]) % p
    counts = (1 + chi[f]).sum(axis=1) + 1
    f_inf = (4 * x ** 3 + x * x) % p
    count_inf = int(np.sum(1 + chi[f_inf])) + 1
    counts = np.append(counts, count_inf)
    return (p + 1) - counts
