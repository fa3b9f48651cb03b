"""The torus count behind A_p and its closed form, checked against brute
force, the FFT count (the test oracle in `fft_oracle`), the Weierstrass
fiber scan (the test oracle in `weierstrass_fibers`), the plane-cubic model
of the fibers, the Hasse bound, and the published coefficient tables."""

import random
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from k3mahler import lfunctions as lf
from k3mahler import mwsections as mw
from k3mahler import pointcount as pc
from k3mahler.surfaces import NEWFORM_AP, SURFACES
from fft_oracle import legendre_table, torus_count_fft
import weierstrass_fibers as wf

AP_TABLE_K6 = {5: 2, 7: -10, 11: -10, 13: 0, 17: 0, 19: 0, 23: 0, 29: 50, 31: 38}


# ---------------------------------------------------------------------------
# The plane-cubic model of the fibers, an independent count
# ---------------------------------------------------------------------------
#
# The fiber over s is the projective cubic
#     s^2 (x+y)(x+z)(y+z) + (s^2 - k s + 1) xyz = 0,
# and the fiber over s = infinity its u = 1 specialization
# (x+y)(x+z)(y+z) + xyz = 0.  The counter solves a quadratic in y per (s, x)
# with a Legendre lookup (O(p) per fiber); a full O(p^2) projective
# enumeration cross-checks it.

def _fiber_params(k, s, p):
    """(s^2, s^2 - k s + 1) mod p; s None/"inf" means the fiber at infinity."""
    if s is None or s == "inf":
        return 1, 1
    s = int(s) % p
    return (s * s) % p, (s * s - k * s + 1) % p


def count_fiber_points(k, s, p, method="legendre"):
    """Number of points of the projective cubic fiber over s in P^2(F_p)."""
    if p in (2, 3) or not pc.is_prime(p):
        raise ValueError("p must be a prime not dividing 6")
    if method == "enumerate":
        return _count_fiber_enumerate(k, s, p)
    if method != "legendre":
        raise ValueError(f"unknown method {method!r}")
    s2, c = _fiber_params(k, s, p)
    return _count_one_fiber(s2, c, p, legendre_table(p))


def _count_one_fiber(s2, c, p, chi):
    x = np.arange(p, dtype=np.int64)
    # affine chart z = 1: quadratic in y with
    #   A = s^2 (x+1), B = s^2 (x+1)^2 + c x, C = s^2 x (x+1)
    xp1 = (x + 1) % p
    A = (s2 * xp1) % p
    B = (s2 * xp1 * xp1 + c * x) % p
    C = (s2 * x * xp1) % p
    disc = (B * B - 4 * A * C) % p
    roots = np.where(A != 0, 1 + chi[disc],
                     np.where(B != 0, 1, np.where(C == 0, p, 0)))
    total = int(np.sum(roots))
    # line z = 0: s^2 x y (x+y) = 0
    total += 3 if s2 % p else p + 1
    return total


def _count_fiber_enumerate(k, s, p):
    """Full projective enumeration (oracle; O(p^2) points)."""
    s2, c = _fiber_params(k, s, p)

    def f(x, y, z):
        return (s2 * (x + y) * (x + z) * (y + z) + c * x * y * z) % p

    total = 0
    for x in range(p):
        for y in range(p):
            if f(x, y, 1) == 0:
                total += 1
    for x in range(p):
        if f(x, 1, 0) == 0:
            total += 1
    if f(1, 0, 0) == 0:
        total += 1
    return total


def cubic_fiber_ap_values(k, p):
    """a_p(s) = p + 1 - #(plane cubic fiber) for every s in P^1(F_p)
    (last entry is s = infinity), all fibers at once."""
    if p in (2, 3) or not pc.is_prime(p):
        raise ValueError("p must be a prime not dividing 6")
    chi = legendre_table(p)
    s = np.arange(p, dtype=np.int64)
    s2 = (s * s) % p
    c = (s2 - k * s + 1) % p
    x = np.arange(p, dtype=np.int64)
    xp1 = (x + 1) % p
    A = (s2[:, None] * xp1[None, :]) % p
    B = (s2[:, None] * (xp1 * xp1)[None, :] + c[:, None] * x[None, :]) % p
    C = (s2[:, None] * (x * xp1)[None, :]) % p
    disc = (B * B - 4 * A * C) % p
    roots = np.where(A != 0, 1 + chi[disc],
                     np.where(B != 0, 1, np.where(C == 0, p, 0)))
    counts = roots.sum(axis=1)
    counts += np.where(s2 % p != 0, 3, p + 1)
    counts = np.append(counts, _count_one_fiber(1, 1, p, chi))  # s = infinity
    return (p + 1) - counts


def weierstrass_fiber_ap_values(k, p):
    """a_p(s) = p + 1 - #(Weierstrass fiber) over every s in P^1(F_p), the
    last entry s = infinity, read per s from the half table (see
    `weierstrass_fibers._half_table` for the derivation)."""
    if p in (2, 3) or not pc.is_prime(p):
        raise ValueError("p must be a prime not dividing 6")
    half = wf._half_table(k, p)
    c = k * ((p + 1) // 2) % p      # k/2
    return [int(half[min(t, p - t)]) for t in ((s - c) % p for s in range(p))] \
        + [int(half[-1])]


def _legendre_list(p):
    """chi[t] = (t/p) for t in 0..p-1."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, p // 2 + 1):
        chi[x * x % p] = 1
    return chi


@dataclass(frozen=True)
class FiberCount:
    s: object          # element of F_p or "inf"
    count: int
    a_p_s: int         # always p + 1 - count


def fiber_counts(k, p):
    """Per-fiber Weierstrass counts over P^1(F_p), as (s, count, a_p(s))."""
    vals = weierstrass_fiber_ap_values(k, p)
    labels = list(range(p)) + ["inf"]
    return [FiberCount(s, p + 1 - int(a), int(a)) for s, a in zip(labels, vals)]


class TestPrimes:
    def test_primes_up_to_edges(self):
        assert [pc.primes_up_to(n) for n in range(4)] == [[], [], [2], [2, 3]]
        assert pc.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_primes_up_to_matches_trial_division(self):
        primes = pc.primes_up_to(10 ** 4)
        assert len(primes) == 1229
        assert primes == [n for n in range(10 ** 4 + 1) if pc.is_prime(n)]


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
                    fast = count_fiber_points(k, s, p)
                    slow = count_fiber_points(k, s, p, method="enumerate")
                    assert fast == slow, (k, s, p)

    def test_chart_independence(self):
        # the cubic is symmetric in (x, y, z); count the (x:1:z) chart directly
        def count_other_chart(k, s, p):
            s2, c = _fiber_params(k, s, p)

            def f(x, y, z):
                return (s2 * (x + y) * (x + z) * (y + z) + c * x * y * z) % p

            total = sum(1 for x in range(p) for z in range(p) if f(x, 1, z) == 0)
            total += sum(1 for x in range(p) if f(x, 0, 1) == 0)  # y=0, z=1
            total += 1 if f(1, 0, 0) == 0 else 0
            return total

        for p in (5, 11):
            for s in (1, 2, "inf"):
                assert count_other_chart(6, s, p) == count_fiber_points(6, s, p)

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
            n = count_fiber_points(k, s, p)
            assert abs(n - (p + 1)) <= 2 * np.sqrt(p)

    def test_bad_characteristic_rejected(self):
        with pytest.raises(ValueError):
            count_fiber_points(6, 1, 3)


class TestWeierstrassFiberScan:
    def test_cubic_scan_matches_per_fiber_counts(self):
        # the vectorized cubic scan agrees with the scalar counter fiberwise
        for p in (5, 7, 11, 13):
            for k in (3, 6, 18):
                vals = cubic_fiber_ap_values(k, p)
                for i, s in enumerate(list(range(p)) + ["inf"]):
                    assert vals[i] == p + 1 - count_fiber_points(k, s, p)

    def test_fiber_count_records(self):
        recs = fiber_counts(6, 7)
        assert len(recs) == 8 and recs[-1].s == "inf"
        for r in recs:
            assert r.a_p_s == 7 + 1 - r.count
        assert -sum(r.a_p_s for r in recs) == pc.A_p(6, 7)

    def test_against_pointwise_weierstrass_counts(self):
        for p in (5, 7, 11, 13):
            for k in (3, 6, 18):
                vals = weierstrass_fiber_ap_values(k, p)
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
            vals = weierstrass_fiber_ap_values(k, p)
            want = _weierstrass_fiber_ap_values_oracle(k, p)
            assert all(type(v) is int for v in vals) and vals == want.tolist(), (k, p)

    def test_half_table_sum_matches_fiber_values(self):
        # A_p's weights 1, 2, ..., 2, 1 on the half table give the fiber sum
        cases = [(k, p) for p in [*pc.primes_up_to(400)[2:], 1009, 1499, 1999]
                 for k in (0, 1, 2, 3, 6, 10, 18)]
        for k, p in cases:
            assert wf._fiber_sum(k, p) == sum(weierstrass_fiber_ap_values(k, p)), (k, p)

    def test_kernels_agree_across_the_crossover(self):
        # the pure-Python and the numpy kernel, each forced, fiber by fiber,
        # below 400 and at every prime within 64 of the crossover;
        # p = +-1 mod 12 (11, 13, 23, ...) have fibers with A = 0
        primes = [p for p in pc.primes_up_to(400) if p >= 5]
        near = [p for p in pc.primes_up_to(wf._NUMPY_FROM + 64)
                if p >= wf._NUMPY_FROM - 64]
        assert sum(p % 12 in (1, 11) for p in primes) > 30
        assert min(near) < wf._NUMPY_FROM <= max(near)
        for p in primes + near:
            for k in (3, 6, 18):
                small, fft = wf._half_table_small(k, p), wf._half_table_fft(k, p)
                assert len(small) == (p + 3) // 2 and small == fft.tolist(), (k, p)
                assert all(type(v) is int for v in small), (k, p)

    def test_zero_quadratic_coefficient_branch(self, monkeypatch):
        # at p = 11, A = (u^2 + 6u - 3)/4 vanishes at u = 7 and u = 9, where
        # G = 0 as p = 3 mod 4; at p = 13 it vanishes at u = 2 and u = 5:
        # with k = 3, u = s^2 - 3s is 5 at s = 6, 10 and 2 at s = 7, 9
        assert weierstrass_fiber_ap_values(3, 11) \
            == _weierstrass_fiber_ap_values_oracle(3, 11).tolist()
        seen = []
        direct = wf._cubic_sum

        def spy(u, p, chi1):
            seen.append(u)
            return direct(u, p, chi1)

        monkeypatch.setattr(wf, "_cubic_sum", spy)
        vals = weierstrass_fiber_ap_values(3, 13)
        assert sorted(seen) == [2, 5]
        assert vals == _weierstrass_fiber_ap_values_oracle(3, 13).tolist()
        assert [s for s in range(13) if (s * s - 3 * s) % 13 in (2, 5)] == [6, 7, 9, 10]

    def test_cubic_sum_matches_brute_force(self):
        # G(u) = chi(-1) G(u): 0 at p = 3 mod 4 (11, 23), a half-range sum at
        # p = 1 mod 4 (13, 37, 61, 73)
        for p in (11, 13, 23, 37, 61, 73):
            chi = _legendre_list(p)
            chi1 = bytes(v + 1 for v in chi)
            for u in range(p):
                want = sum(chi[(x ** 3 - u * x) % p] for x in range(p))
                assert wf._cubic_sum(u, p, chi1) == want, (u, p)

    def test_rounding_guard(self, monkeypatch):
        # the FFT kernel serves p >= _NUMPY_FROM
        p = next(q for q in range(wf._NUMPY_FROM, 2 * wf._NUMPY_FROM) if pc.is_prime(q))
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
        with pytest.raises(ArithmeticError):
            weierstrass_fiber_ap_values(6, p)


def _torus_count_brute(k, p):
    """N_k(p) by enumeration: for each x, y in F_p^*, the number of z with
    z + 1/z = k - x - 1/x - y - 1/y, from a table of z + 1/z."""
    inv = [0] + [pow(x, -1, p) for x in range(1, p)]
    h = [0] * p
    for x in range(1, p):
        h[(x + inv[x]) % p] += 1
    return sum(h[(k - x - inv[x] - y - inv[y]) % p]
               for x in range(1, p) for y in range(1, p))


def _conic_torus_counts(p):
    """T(u) = #{(X, Y, Z) : X + Y + Z = 1, XYZ != 0, e2 + u e3 = 0} for every
    u in F_p, by enumeration: e3 = XYZ != 0, so each point has one u."""
    T = [0] * p
    for X in range(1, p):
        for Y in range(1, p):
            Z = (1 - X - Y) % p
            if Z:
                T[-(X * Y + Y * Z + Z * X) * pow(X * Y * Z, -1, p) % p] += 1
    return T


def _fiber_identity(k, p):
    """p^2 - 3p + 5 + 2 chi(k^2 - 4) p - sum_s a_p(s), from the fiber oracle."""
    return (p * p - 3 * p + 5 + 2 * pc.legendre(k * k - 4, p) * p
            - wf._fiber_sum(k, p))


class TestTorusCount:
    def test_against_enumeration(self):
        for p in pc.primes_up_to(40)[1:]:
            for k in range(1, p):
                assert pc._torus_count(k, p) == _torus_count_brute(k, p), (k, p)

    def test_conic_fibers_by_brute_force(self):
        # step 2 of A_p's proof: T(u) = p - 5 - a_p(u), plus 2 at u = 0 and
        # plus 2p at u = -1; a_p(u) is the fiber over s = 1 at k = 1 - u
        for p in pc.primes_up_to(60)[2:]:
            T = _conic_torus_counts(p)
            for u in range(p):
                want = p - 5 - weierstrass_fiber_ap_values((1 - u) % p, p)[1]
                want += {0: 2, p - 1: 2 * p}.get(u, 0)
                assert T[u] == want, (p, u)

    def test_identity_with_the_fiber_sum(self):
        # A_p's identity at every k mod p with p not dividing k
        for p in pc.primes_up_to(200)[2:]:
            for k in range(1, p):
                assert pc._torus_count(k, p) == _fiber_identity(k, p), (k, p)

    def test_raises_where_p_divides_k(self):
        # there the s = 0 cone has (1 + chi(-3))(p - 1) points, and the
        # identity misses by chi(-3) p
        for p in pc.primes_up_to(60)[2:]:
            for k in (0, p, -2 * p):
                with pytest.raises(ValueError, match="divides"):
                    pc._torus_count(k, p)
            off = _torus_count_brute(0, p) - _fiber_identity(0, p)
            assert off == pc.legendre(-3, p) * p, p
        for k in (3, 6, 18):
            for p in (2, 3):
                with pytest.raises(ValueError, match="bad prime"):
                    pc.A_p(k, p)

    def test_kernels_agree_across_the_crossover(self):
        # the pure kernel against the FFT oracle at every prime below 400, at
        # the two primes on each side of 2^14, where the slots widen from 16
        # to 32 bits, at one k at 19997, and at 32771, the first prime where
        # ww(0) = sum w^2 = 65538 would carry out of a 16-bit slot
        below = pc.primes_up_to(2 ** 14)[-2:]
        above = [p for p in range(2 ** 14, 2 ** 14 + 40) if pc.is_prime(p)][:2]
        assert below == [16369, 16381] and above == [16411, 16417]
        # (p - 1)/2 and (p + 1)/2: where the two rotated halves of the
        # half-length dot product meet
        cases = [(k, p) for p in pc.primes_up_to(400)[2:]
                 for k in (1, 3, 6 % p, 18 % p, p // 2, p // 2 + 1, p - 1)]
        cases += [(k, p) for p in below + above for k in (1, 18 % p, p - 1)]
        cases += [(6, 19997), (1, 32771)]
        for k, p in cases:
            count, fft = pc._torus_count(k, p), torus_count_fft(k, p)
            assert type(count) is int and count == fft, (k, p)

    def test_half_length_dot_against_the_full_one(self):
        # the pure kernel folds w * w to slots 0..(p-1)/2 and pairs w(k + j)
        # with w(k - j); here the full fold and the full dot, at every k
        for p in pc.primes_up_to(100)[2:]:
            w = [1 + pc.legendre(a * a - 4, p) for a in range(p)]
            ww = [sum(w[a] * w[(c - a) % p] for a in range(p)) for c in range(p)]
            for k in range(1, p):
                full = sum(w[c] * ww[(k - c) % p] for c in range(p))
                assert pc._torus_count(k, p) == full, (k, p)

    def test_rounding_guard(self, monkeypatch):
        # the FFT oracle refuses a convolution entry 0.3 from an integer
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
        with pytest.raises(ArithmeticError):
            torus_count_fft(6, 1009)

    def test_slot_bound(self, monkeypatch):
        # a folded slot holds at most 4p < 2^32 below 2^30; from there on the
        # count is refused before its first allocation, the p bytes of chi + 1
        def no_table(n):
            raise AssertionError(f"allocated {n} bytes")

        monkeypatch.setattr(pc, "bytearray", no_table, raising=False)
        p = next(q for q in range(2 ** 30, 2 ** 30 + 100) if pc.is_prime(q))
        with pytest.raises(ValueError, match="32-bit"):
            pc._torus_count(3, p)

    def test_runs_without_numpy(self, monkeypatch):
        # a prime past 2^14, in 32-bit slots, with numpy blocked
        want = torus_count_fft(3, 16411)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert pc._torus_count(3, 16411) == want


class TestAp:
    def test_k6_table_row(self):
        for p, want in AP_TABLE_K6.items():
            assert pc.A_p(6, p) == want

    def test_k18_p31(self):
        assert pc.A_p(18, 31) == -58
        assert lf.twist_coeff(NEWFORM_AP[120][31], -3, 31) == -58

    def test_matches_twisted_newform_all_k(self):
        for k in (3, 6, 18):
            surf = SURFACES[k]
            table = NEWFORM_AP[surf.level]
            for p in pc.primes_up_to(31):
                if p in surf.bad_primes:
                    continue
                want = table[p] if surf.ap_twist is None \
                    else lf.twist_coeff(table[p], surf.ap_twist, p)
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
                if pc.legendre(disc, p) == -1:
                    assert ap == 0, (k, p)

    def test_scan_matches_form_series_to_3000(self, ap_scan_3000):
        for k in (3, 6, 18):
            co = lf.form_coefficients(lf.FORM_SERIES[SURFACES[k].disc], 3000)
            aps = ap_scan_3000[k]
            assert len(aps) > 400
            for p, ap in aps.items():
                assert ap == co[p], (k, p)

    def test_scan_matches_fiber_oracle_to_1500(self, ap_scan_3000):
        # CI extends this comparison to pmax 10^4
        for k in (3, 6, 18):
            aps = {p: ap for p, ap in ap_scan_3000[k].items() if p <= 1500}
            assert len(aps) > 200
            for p, ap in aps.items():
                assert ap == wf.fiber_A_p(k, p), (k, p)

    def test_scan_matches_per_prime_calls(self):
        for k in (3, 6, 18):
            bad = SURFACES[k].bad_primes
            want = {p: pc.A_p(k, p) for p in pc.primes_up_to(400) if p not in bad}
            assert pc.ap_scan(k, 400) == want, k

    def test_scan_runs_no_primality_test(self, monkeypatch):
        # the scan takes its primes from the sieve, which has proven them
        tested = []
        is_prime = pc.is_prime

        def spy(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(pc, "is_prime", spy)
        for k in (3, 6, 18):
            aps = pc.ap_scan(k, 400)
            assert tested == [], k
            bad = SURFACES[k].bad_primes
            assert list(aps) == [p for p in pc.primes_up_to(400) if p not in bad], k

    def test_scan_checks_the_record_first(self):
        # k = 0 has no surface: refused even where no prime is good
        for pmax in (3, 400):
            with pytest.raises(ValueError, match="no tabulated surface"):
                pc.ap_scan(0, pmax)

    def test_A_p_refuses_a_composite(self):
        # A_p, unlike the scan, tests its p: 49 is no bad prime of k = 18
        assert 7 not in SURFACES[18].bad_primes
        with pytest.raises(ValueError, match="not prime"):
            pc.A_p(18, 49)

    def test_multiplicativity_cross_check(self):
        co = lf.form_coefficients(lf.FORM_SERIES[-24], 500)
        for p, q in ((5, 7), (5, 11), (7, 11)):
            ap = pc.A_p(6, p)
            aq = pc.A_p(6, q)
            assert ap * aq == co[p * q]


def count_weierstrass(coeffs, p):
    """#E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p.

    Completes the square and sums Legendre symbols; raises on singular
    reduction.
    """
    if p == 2 or not pc.is_prime(p):
        raise ValueError("p must be an odd prime")
    a1, a2, a3, a4, a6 = (v % p for v in coeffs)
    b2, b4, b6, disc = (b % p for b in mw.weierstrass_invariants(a1, a2, a3, a4, a6))
    if disc == 0:
        raise ValueError("singular curve mod p")
    chi = _legendre_list(p)
    return sum(1 + chi[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p)) + 1


class TestWeierstrassCounts:
    def _twist_coeffs(self, sigma):
        a1 = sigma * sigma - 18 * sigma + 1
        a2 = -sigma ** 4 + 36 * sigma ** 3 - 329 * sigma ** 2 + 90 * sigma + 2
        a4 = 9 * sigma * (-sigma + 18)
        return (a1, a2, 0, a4, 0)

    def test_twisted_curve_mod5(self):
        for sigma in (1, 2):
            coeffs = self._twist_coeffs(sigma)
            assert count_weierstrass(coeffs, 5) == 6
        assert mw.point_order(self._twist_coeffs(1), (3, 1), 5) == 6

    def test_bad_reduction_raises(self):
        # sigma = 0 reduces to a singular curve
        with pytest.raises(ValueError, match="singular"):
            count_weierstrass(self._twist_coeffs(0), 5)

    def test_point_order_rejects_singular_reduction(self):
        # (0, 0) lies on the sigma = 0 curve y^2 + xy = x^3 + 2x^2 mod 5
        assert mw.weierstrass_invariants(*self._twist_coeffs(0))[3] % 5 == 0
        with pytest.raises(ValueError, match="singular"):
            mw.point_order(self._twist_coeffs(0), (0, 0), 5)

    def test_against_enumeration(self):
        cnt = count_weierstrass((0, 0, 0, 1, 0), 5)  # y^2 = x^3 + x
        assert cnt == _raw_weierstrass_count((0, 0, 0, 1, 0), 5)
        rng = random.Random(8)
        for _ in range(30):
            p = rng.choice([5, 7, 11, 13])
            coeffs = tuple(rng.randrange(p) for _ in range(5))
            try:
                fast = count_weierstrass(coeffs, p)
            except ValueError:
                continue
            assert fast == _raw_weierstrass_count(coeffs, p)

    def test_point_order_checks_membership(self):
        with pytest.raises(ValueError, match="not on the curve"):
            mw.point_order((0, 0, 0, 1, 0), (1, 1), 5)


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
    chi = legendre_table(p)
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
