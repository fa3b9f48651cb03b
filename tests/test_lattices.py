"""Transcendental-lattice bookkeeping: CM point table, orthogonal complements,
Shioda rank and the Neron-Severi determinant chain."""

import math
from fractions import Fraction

import pytest

from k3mahler.lattices import (GramLattice, ambient_lattice, ns_determinant,
                               orthocomplement, shioda_rank, transcendental_summary,
                               trivial_lattice_det)
from k3mahler.surfaces import SURFACES, FiberEntry, tau_table


class TestRecordValidation:
    def test_gram_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            GramLattice(((1, 0), (0, 1, 0)), ("a", "b"))

    def test_gram_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GramLattice(((1, 2), (0, 1)), ("a", "b"))

    def test_fiber_needs_a_component(self):
        with pytest.raises(ValueError, match="m >= 1"):
            FiberEntry("s=0", 0)
        assert FiberEntry("s=0", 1).m == 1

    def test_bad_primes_from_the_level(self):
        # 2, 3 and the primes dividing the levels 15, 24 and 120
        assert {k: SURFACES[k].bad_primes for k in (3, 6, 18)} == \
            {3: {2, 3, 5}, 6: {2, 3}, 18: {2, 3, 5}}
        assert SURFACES[6]._replace(level=7 * 11 ** 2).bad_primes == {2, 3, 7, 11}


class TestTauTable:
    def test_tabulated_values(self):
        assert (tau_table(6).p, tau_table(6).q, tau_table(6).r) == (1, 0, -1)
        assert (tau_table(3).p, tau_table(3).q, tau_table(3).r) == (4, -1, -4)
        assert (tau_table(18).p, tau_table(18).q, tau_table(18).r) == (1, 0, -5)
        rec = tau_table(6)
        assert (rec.A, rec.B, rec.C) == (0, -6, 6)      # 1/sqrt(-6) in H
        rec = tau_table(3)
        assert (rec.A, rec.B, rec.C) == (-3, -15, 12)
        rec = tau_table(18)
        assert (rec.A, rec.B, rec.C) == (0, -30, 6)     # sqrt(-5/6)

    def test_unknown_k(self):
        with pytest.raises(ValueError, match="not a tabulated"):
            tau_table(4)

    def test_quadratic_relation_exact(self):
        for k in (0, 2, 3, 6, 10, 18):
            rec = tau_table(k)
            assert rec.residual() == (0, 0)
            assert math.gcd(math.gcd(rec.p, rec.q), rec.r) == 1
            assert rec.p > 0


class TestOrthocomplement:
    def test_k6(self):
        out = orthocomplement(ambient_lattice(), (1, 0, -1))
        assert out.det == 24
        assert set(out.basis) == {(0, 1, 0), (1, 0, 1)}

    def test_k3(self):
        out = orthocomplement(ambient_lattice(), (4, -1, -4))
        assert out.det == 15
        assert set(out.basis) == {(1, 0, 1), (0, 1, 3)}
        assert out.sublattice.gram in (((2, 3), (3, 12)), ((12, 3), (3, 2)))

    def test_k18(self):
        out = orthocomplement(ambient_lattice(), (1, 0, -5))
        assert out.det == 120
        assert set(out.basis) == {(0, 1, 0), (1, 0, 5)}
        assert sorted(out.sublattice.gram[i][i] for i in range(2)) == [10, 12]

    def test_orthogonality_and_saturation(self):
        amb = ambient_lattice()
        # the last two need a*u1 + b*u2 = gcd(u1, u2) with a no inverse of
        # itself modulo u2 / gcd, for u = Gram v
        for v in ((1, 0, -1), (4, -1, -4), (1, 0, -5), (2, 1, -3), (1, 5, 7), (2, 7, -9)):
            out = orthocomplement(amb, v)
            for b in out.basis:
                assert amb.pairing(b, v) == 0
            # saturation: every small integer vector orthogonal to v lies in
            # the Z-span of the basis (solve the 2x3 system by brute force)
            b1, b2 = out.basis
            span = {tuple(a * x + b * y for x, y in zip(b1, b2))
                    for a in range(-12, 13) for b in range(-12, 13)}
            for w1 in range(-3, 4):
                for w2 in range(-3, 4):
                    for w3 in range(-3, 4):
                        w = (w1, w2, w3)
                        if amb.pairing(w, v) == 0:
                            assert w in span

    def test_determinant_class(self):
        # square-free or 4 * square-free, consistent with the up-to-a-square
        # classification of the discriminant
        for v, det in (((1, 0, -1), 24), ((4, -1, -4), 15), ((1, 0, -5), 120)):
            out = orthocomplement(ambient_lattice(), v)
            assert out.det == det
            reduced = det
            while reduced % 4 == 0:
                reduced //= 4
            for q in range(2, 12):
                assert reduced % (q * q) != 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            orthocomplement(ambient_lattice(), (0, 0, 0))


class TestShioda:
    def test_rank_examples(self):
        assert shioda_rank(20, [12, 3, 3, 2, 2, 2]) == 0
        assert shioda_rank(20, [12, 3, 3, 2, 2, 1, 1]) == 1
        assert shioda_rank(2, []) == 0

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            shioda_rank(10, [12, 12])

    def test_rank_reconstructs_rho(self):
        for k in (3, 6, 18):
            ms = [f.m for f in SURFACES[k].fibers]
            r = shioda_rank(20, ms)
            assert r + 2 + sum(m - 1 for m in ms) == 20

    def test_trivial_lattice_det(self):
        assert trivial_lattice_det([12, 3, 3, 2, 2, 2]) == 864
        assert trivial_lattice_det([12, 3, 3, 2, 2, 1, 1]) == 432
        assert trivial_lattice_det([]) == 1


class TestNSDeterminant:
    def test_examples(self):
        assert ns_determinant(0, 864, 1, 6) == 24
        assert ns_determinant(0, 1, 1, 1) == 1
        # rank-1 chain: the magnitude is 12h, h = 10 gives |det| = 120
        val = ns_determinant(1, 432, Fraction(10), 6)
        assert abs(val) == 120
        h = Fraction(5, 2)
        assert abs(ns_determinant(1, 432, h, 6)) == 12 * h

    def test_torsion_validation(self):
        with pytest.raises(ValueError):
            ns_determinant(0, 864, 1, 0)


class TestSummary:
    def test_full_chain(self):
        expected = {6: (24, 0, 864), 3: (15, 1, 432), 18: (120, 1, 432)}
        for k, (det, rank, triv) in expected.items():
            s = transcendental_summary(SURFACES[k])
            assert s["orthocomplement"].det == det
            assert s["rank"] == rank
            assert s["trivial_det"] == triv
