"""The k=18 section suite: group law, torsion fixtures, twisting, halving,
intersections, Neron components, the sections the records give, and the
canonical height."""

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from k3mahler import mwsections as mw
from k3mahler.exactalg import Place, Poly
from k3mahler.lattices import ns_determinant
from k3mahler.surfaces import SURFACES, FiberEntry
import neron_printed as npr
from grouplaw import (DCORE, O, PSIGMA_X_NUMERATOR, ec_add, ec_mul, ec_neg, height,
                      infinite_section_k3, point, psigma, rat, reduced_zero_intersection,
                      schart_family_curve, torsion_multiples, y18_twist_curve)
import ratfunc
from quadfield import QuadElem, coeffs, horner, is_square_quad, poly, reduce_fraction
from ratfunc import RatFunc


def from_completed_square(P, E):
    """Inverse of mw.to_completed_square."""
    if P == O:
        return P
    P = rat(P)
    return mw.SectionPoint(P.x, P.y - (E.a1 * P.x + E.a3) * Fraction(1, 2))


@dataclass(frozen=True)
class TwistResult:
    curve: mw.FunctionFieldCurve
    d: int
    sqrt_d: Optional[QuadElem]  # in-field square root of d when one exists

    def _root(self, root):
        sd = self.sqrt_d if root is None else QuadElem.coerce(root)
        if sd is None:
            raise ValueError(f"sqrt({self.d}) is not in Q(sqrt(-3)); the "
                             "coordinate maps live over a quadratic extension")
        if not (sd * sd == QuadElem(self.d)):
            raise ValueError("root is not a square root of d")
        return sd


def quadratic_twist(E, d):
    """Quadratic twist by a square-free integer d, keeping a1 and a3.

    On the completed square y^2 = x^3 + A x^2 + B x + C the twist scales
    (A, B, C) -> (dA, d^2 B, d^3 C); the original a1, a3 are then reattached
    so the printed models of this family come out coefficient-by-coefficient.
    """
    if d == 0:
        raise ValueError("d must be nonzero")
    if _squarefull_part(d) != 1:
        raise ValueError("d must be square-free")
    b2, b4, b6, _ = E.invariants()
    A = b2 * Fraction(1, 4)
    B = b4 * Fraction(1, 2)
    C = b6 * Fraction(1, 4)
    a2 = d * A - E.a1 * E.a1 * Fraction(1, 4)
    a4 = d * d * B - E.a1 * E.a3 * Fraction(1, 2)
    a6 = d ** 3 * C - E.a3 * E.a3 * Fraction(1, 4)
    ok, w = is_square_quad(QuadElem(d))
    return TwistResult(mw.FunctionFieldCurve(E.a1, a2, E.a3, a4, a6), d,
                       w if ok else None)


def _squarefull_part(d):
    d = abs(d)
    f = 1
    q = 2
    while q * q <= d:
        while d % (q * q) == 0:
            d //= q * q
            f *= q
        q += 1
    return f


def twist_push(P, E, tw, root=None):
    """Map E -> twisted curve: x' = d x_cs, Y' = d sqrt(d) Y_cs (cs = completed
    square).  root picks the branch of sqrt(d); the two branches differ by
    composition with [-1]."""
    if P == O:
        return P
    sd = tw._root(root)
    d = tw.d
    Pc = rat(mw.to_completed_square(P, E))
    xs = d * Pc.x
    Ys = (d * sd) * Pc.y
    return from_completed_square(mw.SectionPoint(xs, Ys), tw.curve)


def twist_pull(P, E, tw, root=None):
    """Inverse of twist_push (twisted curve -> E)."""
    if P == O:
        return P
    sd = tw._root(root)
    d = tw.d
    Pc = rat(mw.to_completed_square(P, tw.curve))
    xs = Pc.x / d
    Ys = Pc.y / (d * sd)
    return from_completed_square(mw.SectionPoint(xs, Ys), E)


def curves_isomorphic_by_scaling(E1, E2) -> bool:
    """True iff the curves differ by x -> u^2 x, y -> u^3 y over the field:
    the b-invariants must scale as (u^2, u^4, u^6) with u^2 a field square."""
    b2a, b4a, b6a, _ = E1.invariants()
    b2b, b4b, b6b, _ = E2.invariants()
    if b2a.is_zero():
        raise ValueError("scaling test requires b2 != 0")
    ratio = RatFunc(b2b, b2a)
    if not ratio.is_constant():
        return False
    c = ratio.constant()
    if not is_square_quad(c)[0]:
        return False  # the scaling exists only over a quadratic extension
    c = poly([c])
    return (b4b == b4a * c ** 2) and (b6b == b6a * c ** 3)


def y6_torsion_point():
    """The order-6 point (s^2 (6s - 1), 0) of the k=6 model in the s-chart."""
    return point(Poly([0, 0, -1, 6]), Poly([]))


class TestGroupLaw:
    def test_printed_torsion_multiples_k18(self):
        E = mw.family_curve(18)
        tor = torsion_multiples(18)
        P = tor[0]
        for i in range(1, 6):
            assert P == tor[i - 1], f"[{i}]rho6 mismatch"
            P = ec_add(P, tor[0], E, check=False)
        assert P == O  # [6]rho6 = O

    def test_printed_torsion_multiples_k3(self):
        E = mw.family_curve(3)
        tor = torsion_multiples(3)
        P = tor[0]
        for i in range(1, 6):
            assert P == tor[i - 1], f"[{i}]rho6 mismatch"
            P = ec_add(P, tor[0], E, check=False)
        assert P == O

    def test_ec_mul_matches_table(self):
        E = mw.family_curve(18)
        tor = torsion_multiples(18)
        assert ec_mul(3, tor[0], E) == tor[2]          # (0, 0)
        assert ec_mul(2, tor[0], E) == tor[1]
        assert tor[2] == point(0, 0)
        assert ec_mul(6, tor[0], E) == O

    def test_negative_multiplication(self):
        E = mw.family_curve(18)
        tor = torsion_multiples(18)
        assert ec_mul(-1, tor[0], E) == ec_neg(tor[0], E)
        assert ec_mul(-2, tor[0], E) == tor[3]  # -2 = 4 mod 6

    def test_associativity_and_commutativity(self):
        E = mw.family_curve(18)
        tor = [O, *torsion_multiples(18)]
        rng = random.Random(31)
        pts = tor + [psigma()]
        for _ in range(12):
            P, Q, R = (rng.choice(tor) for _ in range(3))
            assert ec_add(ec_add(P, Q, E, False), R, E, False) == \
                ec_add(P, ec_add(Q, R, E, False), E, False)
            assert ec_add(P, Q, E, False) == ec_add(Q, P, E, False)
        ps = pts[-1]
        for Q in (tor[1], tor[3]):
            R = tor[2]
            assert ec_add(ec_add(ps, Q, E, False), R, E, False) == \
                ec_add(ps, ec_add(Q, R, E, False), E, False)

    def test_off_curve_rejected(self):
        E = mw.family_curve(18)
        bogus = point(1, 1)
        with pytest.raises(ValueError, match="not on the curve"):
            ec_add(bogus, bogus, E)

    def test_on_curve_examples(self, k18):
        assert mw.verify_on_curve(k18["ps"], k18["E"])
        assert mw.verify_on_curve(k18["pm3"], k18["twist_curve"])
        cubic = mw.FunctionFieldCurve.from_coeffs(0, 0, 0, 0, 1)
        assert mw.verify_on_curve(point(0, 1), cubic)
        # a model with a non-polynomial coefficient is refused, not checked
        pole = mw.FunctionFieldCurve(Poly(), Poly(), Poly(), RatFunc(1, Poly([0, 1])), Poly([1]))
        with pytest.raises(ValueError, match="not polynomials"):
            mw.verify_on_curve(point(0, 1), pole)

    def test_k3_infinite_section(self):
        E = mw.family_curve(3)
        P = infinite_section_k3()
        assert mw.verify_on_curve(P, E)
        assert mw.verify_nontorsion(P, E, SURFACES[3].torsion)

    def test_y6_torsion_point_order_six(self):
        E = schart_family_curve(6)
        T = y6_torsion_point()
        assert mw.verify_on_curve(T, E)
        multiples = [ec_mul(n, T, E) for n in range(1, 7)]
        assert all(P != O for P in multiples[:5])
        assert multiples[5] == O
        two = ec_mul(2, T, E)
        assert ec_mul(3, T, E) == point(0, 0)  # 2-torsion
        assert two != O


def value_at(f, t) -> QuadElem:
    """f, a Poly or a coordinate with Poly num and den, at sigma = t, on
    QuadElems."""
    if isinstance(f, Poly):
        return horner(f, t)
    return horner(f.num, t) / horner(f.den, t)


def replay_witness(P, E, wit):
    """Order of P at the witness's sigma mod p (sqrt(-3) -> sqrt_m3_mod_p),
    recomputed from the coordinates without the certificate's search or skip
    rules."""
    p, w = wit.p, wit.sqrt_m3_mod_p
    if w is not None:
        assert w * w % p == p - 3
    vals = [reduce_fraction(value_at(f, wit.sigma), p, w)
            for f in (E.a1, E.a2, E.a3, E.a4, E.a6, P.x, P.y)]
    return mw.point_order(vals[:5], (vals[5], vals[6]), p, bound=2 * p + 2)


def nonsquare_witness(f):
    """The search's witness that f is no square, or None."""
    return mw.nonsquare_witnesses([f], {"f": ((0,), lambda p, v: v)})["f"]


def replay_nonsquare(f, sigma, p, sqrt_m3_mod_p):
    """Euler's criterion, without the search: f at sigma, sqrt(-3) ->
    sqrt_m3_mod_p, is a non-residue mod a prime p = 1 mod 3."""
    w = sqrt_m3_mod_p
    assert p % 3 == 1 and w * w % p == p - 3
    return pow(reduce_fraction(value_at(f, sigma), p, w), (p - 1) // 2, p) == p - 1


class TestNontorsion:
    def test_twist_section(self, k18, pm3_nontorsion):
        wit = pm3_nontorsion
        assert wit is not None and wit.order > 6
        assert replay_witness(k18["pm3"], k18["twist_curve"], wit) == wit.order

    @pytest.mark.parametrize("section,k", [
        pytest.param(infinite_section_k3, 3, id="infinite_section_k3-y3_curve"),
        # coordinates need sqrt(-3)
        pytest.param(psigma, 18, id="infinite_section_k18-y18_curve"),
    ])
    def test_infinite_sections_certified(self, section, k):
        P, E = section(), mw.family_curve(k)
        wit = mw.verify_nontorsion(P, E, SURFACES[k].torsion)
        assert wit is not None and wit.order > SURFACES[k].torsion
        # a split prime for every section, the rational k=3 one included
        assert wit.p % 3 == 1 and (wit.sqrt_m3_mod_p ** 2 + 3) % wit.p == 0
        assert replay_witness(P, E, wit) == wit.order

    def test_exact_cross_check_k3(self):
        # [n]P != O for n <= 6 from [2]P and [3]P alone: [n]P = O iff
        # [a]P = -[b]P for some a + b = n with a, b in {1, 2, 3}
        E, P = mw.family_curve(3), infinite_section_k3()
        assert P != O
        P2, P3 = ec_mul(2, P, E), ec_mul(3, P, E)
        for a, b in ((P, P), (P2, P), (P2, P2), (P2, P3), (P3, P3)):
            assert a != ec_neg(b, E)

    def test_torsion_points_flagged(self):
        cases = [(T, mw.family_curve(3)) for T in torsion_multiples(3)]
        cases += [(T, mw.family_curve(18)) for T in torsion_multiples(18)]
        cases += [(y6_torsion_point(), schart_family_curve(6))]
        for P, E in cases:
            assert mw.verify_nontorsion(P, E, 6) is None, P

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError, match="not on the curve"):
            mw.verify_nontorsion(point(1, 1), mw.family_curve(18), 6)


class TestTwist:
    def test_matches_printed_curve(self):
        E = mw.family_curve(18)
        tw = quadratic_twist(E, -3)
        assert tw.curve == y18_twist_curve()
        assert tw.sqrt_d == QuadElem(0, 1)

    def test_twist_by_one_is_identity(self):
        E = mw.family_curve(18)
        assert quadratic_twist(E, 1).curve == E

    def test_square_free_required(self):
        with pytest.raises(ValueError):
            quadratic_twist(mw.family_curve(18), 12)
        with pytest.raises(ValueError):
            quadratic_twist(mw.family_curve(18), 0)

    def test_double_twist_isomorphic(self):
        E = mw.family_curve(18)
        for d in (-3, 5, -1):
            once = quadratic_twist(E, d)
            twice = quadratic_twist(once.curve, d)
            assert curves_isomorphic_by_scaling(E, twice.curve)
        assert not curves_isomorphic_by_scaling(
            E, quadratic_twist(E, 5).curve)

    def test_transport_of_sections(self, k18):
        E, tw_curve = k18["E"], k18["twist_curve"]
        tw = quadratic_twist(E, -3)
        ps, pm3 = k18["ps"], rat(k18["pm3"])
        # the canonical root lands on -p_sigma; the other branch on p_sigma
        back = twist_pull(pm3, E, tw)
        assert back == ec_neg(ps, E)
        back2 = twist_pull(pm3, E, tw, root=-tw.sqrt_d)
        assert back2 == rat(ps)
        assert twist_push(ps, E, tw, root=-tw.sqrt_d) == pm3
        assert mw.verify_on_curve(back, E)
        # round trip
        assert twist_push(back2, E, tw, root=-tw.sqrt_d) == pm3
        assert mw.verify_on_curve(twist_push(ps, E, tw), tw_curve)

    def test_maps_need_in_field_root(self):
        E = mw.family_curve(18)
        tw5 = quadratic_twist(E, 5)
        assert tw5.sqrt_d is None
        with pytest.raises(ValueError, match="quadratic extension"):
            twist_push(torsion_multiples(18)[1], E, tw5)


class TestCompleteSquare:
    def test_printed_bform(self, k18):
        cs = mw.complete_square(k18["E"])
        assert cs == k18["Eb"]
        assert cs.a2 == k18["halving"]["bform_a"]
        assert cs.a4 == k18["halving"]["bform_b"]

    def test_already_even_unchanged(self):
        E = mw.FunctionFieldCurve.from_coeffs(0, 1, 0, 2, 3)
        assert mw.complete_square(E) == E

    def test_discriminant_preserved(self, k18):
        assert mw.complete_square(k18["E"]).invariants()[3] == \
            k18["E"].invariants()[3]

    def test_points_transport(self, k18):
        E, Eb = k18["E"], k18["Eb"]
        for P in (*torsion_multiples(18), k18["ps"]):
            Pb = mw.to_completed_square(P, E)
            assert mw.verify_on_curve(Pb, Eb)
            assert from_completed_square(Pb, E) == rat(P)

    def test_closed_form_translation(self, k18):
        # (x, y) + (0, 0) = (b/x, -b y/x^2) is the chord-tangent sum, for
        # p_sigma and each torsion point with x != 0
        E, Eb = k18["E"], k18["Eb"]
        T2 = mw.to_completed_square(torsion_multiples(18)[2], E)
        assert rat(T2) == point(0, 0)
        points = [P for P in (k18["ps"], *torsion_multiples(18)) if not P.x.num.is_zero()]
        assert len(points) == 5
        for P in points:
            Pb = mw.to_completed_square(P, E)
            assert rat(mw.plus_two_torsion(Pb, Eb.a4)) == ec_add(Pb, T2, Eb)
        assert rat(mw.plus_two_torsion(k18["Pb"], Eb.a4)) == k18["Q"]


def halving_witnesses(k18, r=None):
    return mw.halving_witnesses(k18["ps"], k18["halving"]["r"] if r is None else r,
                                k18["E"])


class TestHalving:
    def test_psigma_not_halvable(self, k18):
        assert halving_witnesses(k18)[1]["x(Pb)"] == (1, 7, 2)
        assert replay_nonsquare(k18["Pb"].x, 1, 7, 2)

    def test_psigma_plus_3rho_not_halvable(self, k18):
        hd, Q, a = k18["halving"], k18["Q"], k18["Eb"].a2
        assert Q.x == hd["xprime"] == hd["r"] ** 2
        assert Q.y in (hd["yprime"], -hd["yprime"])
        # the printed q+ is the computed one, the printed q- 4 times the computed one
        qplus, qminus = (2 * Q.x + a + s * 2 * Q.y / hd["r"] for s in (1, -1))
        assert hd["qplus"] == qplus and hd["qminus"] == 4 * qminus
        square, wits = halving_witnesses(k18)
        assert square
        assert (wits["a^2-4b"], wits["q+"], wits["q-"]) == ((1, 13, 6), (1, 7, 2), (1, 7, 2))
        assert replay_nonsquare(qplus, *wits["q+"]) and replay_nonsquare(qminus, *wits["q-"])

    def test_wrong_r_is_no_square_root(self, k18):
        # x(Q) = r^2 fails for 2r, and the four searches are unchanged
        square, wits = halving_witnesses(k18, 2 * k18["halving"]["r"])
        assert not square and wits == halving_witnesses(k18)[1]

    def test_two_rho_halvable(self, k18):
        # [2]rho has x = 1 = 1^2; so has [5]rho + (0, 0) = [2]rho, and with
        # r = 1 one of its q+- is a square
        two, five = torsion_multiples(18)[1], torsion_multiples(18)[4]
        assert mw.halving_witnesses(two, RatFunc(1), k18["E"])[1]["x(Pb)"] is None
        square, wits = mw.halving_witnesses(five, RatFunc(1), k18["E"])
        assert square and None in (wits["q+"], wits["q-"])

    def test_invariance_under_doubled_shifts(self, k18):
        # x([2]R) is a square, so shifts by [2]R = [2]rho, [4]rho keep x(Pb)
        # no square and x(Q) a square
        E, Eb = k18["E"], k18["Eb"]
        for R in torsion_multiples(18)[:2]:
            twoR = mw.to_completed_square(ec_mul(2, R, E), E)
            for P, square in ((k18["Pb"], False), (k18["Q"], True)):
                x = ec_add(P, twoR, Eb, check=False).x
                wit = nonsquare_witness(x)
                assert wit is None if square else replay_nonsquare(x, *wit)

    def test_hypothesis_violations(self, k18):
        # y^2 = x(x+1)(x+4): a^2 - 4b = 9 is a square, so the obstruction fails
        bad = mw.FunctionFieldCurve.from_coeffs(0, 5, 0, 4, 0)
        P = point(2, 6)
        assert mw.halving_witnesses(P, RatFunc(1), bad)[1]["a^2-4b"] is None
        # off the curve, at x = 0 or both; (0, 0) itself
        for P in (point(1, 1), point(0, 1), torsion_multiples(18)[2]):
            with pytest.raises(ValueError, match="not an affine point"):
                mw.halving_witnesses(P, RatFunc(1), k18["E"])
        # y^2 = x^3 + 1 has no 2-torsion point at x = 0
        with pytest.raises(ValueError, match="not in the form"):
            mw.halving_witnesses(point(2, 3), RatFunc(1),
                                 mw.FunctionFieldCurve.from_coeffs(0, 0, 0, 0, 1))


class TestIntersections:
    def test_psigma(self, k18):
        assert mw.zero_intersection(k18["ps"], k18["places"]) == 5
        assert reduced_zero_intersection(k18["ps"]) == 5

    def test_torsion_sections(self):
        for P in torsion_multiples(18):
            assert mw.zero_intersection(P, ()) == 0 == reduced_zero_intersection(P)

    def test_low_degree_polynomial_sections(self):
        P = point(Poly([1, 2, 0, 1, 1]), 0)  # deg 4 in x
        assert mw.zero_intersection(P, ()) == 0 == reduced_zero_intersection(P)

    def test_odd_pole_rejected(self):
        sigma = Poly([0, 1])
        places = (Place(sigma), Place(sigma - 1))
        # a simple pole; a double pole next to a simple one; two simple poles
        # under an even-degree monic denominator
        for den in (sigma, sigma ** 2 * (sigma - 1), sigma * (sigma - 1)):
            P = point(RatFunc(1, den), 0)
            with pytest.raises(mw.VerificationError, match="odd pole"):
                mw.zero_intersection(P, places)
            with pytest.raises(mw.VerificationError, match="odd pole"):
                reduced_zero_intersection(P)
        # a double pole at sigma = 2, off the places given
        with pytest.raises(mw.VerificationError, match="off the given places"):
            mw.zero_intersection(point(RatFunc(1, (sigma - 2) ** 2), 0), places)

    def test_unreduced_pair(self, k18):
        # x and y times h/h, for h with roots at sigma = 1 and 9 (9 a pole of
        # x) and a factor at the I3 place: (P.O) and every fiber reading are
        # those of the reduced pair
        ps, places = k18["ps"], k18["places"]
        h = Poly([-1, 1]) * Poly([-9, 1]) * Poly([1, -18, 1])
        unreduced = mw.SectionPoint(*(mw.PolyRatio(c.num * h, c.den * h) for c in ps))
        with pytest.raises(TypeError):  # a pair has no arithmetic, not even tuple's
            2 * ps.x
        assert mw.zero_intersection(unreduced, places) == 5
        assert mw.section_height(SURFACES[18], unreduced, 5) == mw.section_height(SURFACES[18], ps, 5)
        # a third factor sigma - 9 in den(x): a pole of order 3
        odd = mw.SectionPoint(mw.PolyRatio(ps.x.num * h, ps.x.den * h * Poly([-9, 1])), ps.y)
        with pytest.raises(mw.VerificationError, match="odd pole"):
            mw.zero_intersection(odd, places)

    def test_contribution(self):
        assert mw.contribution(12, 6) == 3
        assert mw.contribution(2, 1) == Fraction(1, 2)
        assert mw.contribution(5, 0) == 0
        with pytest.raises(ValueError):
            mw.contribution(3, 3)


def ratfunc_readings(k: int, P) -> list:
    """v(x), v(psi2) and v(dF/dx) at each distinct fiber place of SURFACES[k],
    in the order `mw.section_height` reads them, from the RatFunc forms: the
    functions formed by field arithmetic in lowest terms.  At sigma = inf
    they are formed on the printed s-chart model and read at s = 0, where
    `mw.valuation` reads those of family_curve(k) by their weights."""
    out = []
    for place in dict.fromkeys(mw._fiber_places(k, SURFACES[k].fibers)):
        E, (u, v) = mw.family_curve(k), rat(P)
        if place.is_infinite:
            E, (u, v), place = schart_family_curve(k), npr.reciprocal_chart(P), npr.AT_ZERO
        for f in (u, 2 * v + E.a1 * u + E.a3, 3 * u * u + 2 * E.a2 * u + E.a4 - E.a1 * v):
            out.append(math.inf if f.is_zero() else ratfunc.valuation(f, place))
    return out


@functools.cache
def multiples_and_shifts(n: int) -> tuple:
    """[n]p_sigma and the five [n]p_sigma + T over the torsion T."""
    E = mw.family_curve(18)
    P = ec_mul(n, psigma(), E)
    return (P, *(ec_add(P, T, E, check=False) for T in torsion_multiples(18)))


class TestNeronComponents:
    # the paper's printed route, kept in tests/neron_printed.py as the oracle
    def test_psigma_transcripts(self, k18):
        ps = k18["ps"]
        assert npr.neron_component("s=0", ps) == (
            6, {"v(X)": 6, "v(Y)": 6, "limit": (Poly([-2]), Poly([1]))})
        j, facts = npr.neron_component("s=inf", ps)
        assert j == 1 and facts["limit"] == (
            Poly([Fraction(-1011, 8)]), Poly([(Fraction(9099, 16), Fraction(-1575, 16))]))
        assert npr.neron_component("s=1/18", ps) == (1, {"vanishing": (False, True)})
        assert npr.neron_component("alpha1", ps)[0] == 0
        assert npr.neron_component("alpha2", ps) == (0, {})

    def test_printed_quadric_value(self, k18):
        X, Y, Z = npr.beauville_coords(k18["ps"])
        printed = RatFunc(-3888 * PSIGMA_X_NUMERATOR, DCORE ** 2)
        assert (X * Y + X * Z + Y * Z) / (Z * Z) == printed

    def test_printed_models_match_derivation(self):
        for place, (_, _, printed, _) in npr.NODE_RULES.items():
            assert npr.neron_model(place) == printed

    def test_rule_matches_printed_route(self):
        # every k=18 place, for p_sigma and the five p_sigma + T; components
        # may differ by j <-> m - j, which gives the same local term
        assert npr.compare_with_rule(multiples_and_shifts(1)) == [10] * 6

    def test_i3_place_read_once(self, k18, monkeypatch):
        # alpha1 and beta1 share one degree-2 place: the rule reads it once
        # per section and gives both entries that reading
        [i3] = Place.over(Poly([1, -18, 1]))
        mw._fiber_places(18, SURFACES[18].fibers)
        seen, valuation = [], mw.valuation
        monkeypatch.setattr(mw, "valuation",
                            lambda f, pl, w: seen.append(pl) or valuation(f, pl, w))
        _, readings = mw.section_height(SURFACES[18], k18["ps"], 5)
        assert seen.count(i3) == 3  # x, psi2 and dF/dx
        a, b = (r for r in readings if r.place in ("alpha1", "beta1"))
        assert a._replace(place="beta1") == b


class TestFiberRecord:
    @pytest.mark.parametrize("k", [3, 6, 18])
    def test_records_match_the_curves(self, k):
        # sum m = 24 = 12 chi, and each entry is an I_m fiber of family_curve(k)
        assert sum(f.m for f in SURFACES[k].fibers) == 24 == 12 * mw.K3_CHI
        assert len(mw._fiber_places(k, SURFACES[k].fibers)) == len(SURFACES[k].fibers)

    @pytest.mark.parametrize("k", [3, 6, 18])
    def test_weights_read_the_schart_model(self, k):
        # deg a_i <= 2i, so s^(2i) a_i(1/s) are the printed s-chart model's
        # coefficients; c4 and disc of family_curve(k), read at infinity by
        # their weights, have the orders of the s-chart model's at s = 0
        E, Es = mw.family_curve(k), schart_family_curve(k)
        for i, a, b in zip((1, 2, 3, 4, 6), E, Es):
            assert a.degree() <= 2 * i and b == ratfunc.reverse(a, 2 * i)
        (b2, b4, _, d), (sb2, sb4, _, sd) = E.invariants(), Es.invariants()
        for f, g, w in ((b2 * b2 - 24 * b4, sb2 * sb2 - 24 * sb4, 4), (d, sd, 12)):
            assert mw.valuation(mw.PolyRatio(f, Poly([1])), Place.infinity(), w) == \
                ratfunc.valuation(RatFunc(g), npr.AT_ZERO)

    @pytest.mark.parametrize("change, match", [
        ({"s=1/18": ("s=1/18", 3, (-18, 1))}, r"s=1/18: .* v\(disc\) = 2; .* I_3"),
        ({"s=1/18": ("s=1", 2, (-1, 1))}, r"s=1: .* v\(disc\) = 0; .* I_2"),
        ({"s=inf": ("s=inf", 1, (0, 1)), "s=1/18": ("s=1/18", 3, (-18, 1))},
         r"s=inf: .* I_1"),
        ({"s=inf": None}, "sum to 22"),
        ({"beta1": ("beta1", 3, (-2, 1))}, r"\['alpha1'\] do not match"),
    ], ids=["wrong-m", "smooth-fiber", "wrong-m-sum-24", "missing", "lone-conjugate"])
    def test_wrong_record_raises(self, k18, change, match):
        fibers = tuple(FiberEntry(*change[f.place]) if f.place in change else f
                       for f in SURFACES[18].fibers if change.get(f.place, f))
        with pytest.raises(mw.VerificationError, match=match):
            mw.section_height(SURFACES[18]._replace(fibers=fibers), k18["ps"], 5)


class TestSectionRecord:
    # every record that gives its infinite section as factored tuples
    @pytest.mark.parametrize("k", [k for k, s in SURFACES.items() if s.section is not None])
    def test_record_section(self, k):
        surf = SURFACES[k]
        assert surf.height is not None  # the section stages check it
        ps, places, r = mw.record_section(surf)
        assert mw.verify_on_curve(ps, mw.family_curve(k))
        # one irreducible place per pole factor: no root in Q(sqrt(-3))
        assert len(places) == len(surf.pole_factors)
        for pl, f in zip(places, surf.pole_factors):
            assert pl.poly.degree() == len(f) - 1 >= 1
            c, b, *_ = coeffs(pl.poly)
            assert pl.poly.degree() == 1 or not is_square_quad(b * b - 4 * c)[0]
        # (P.O) read at those places is the count from x in lowest terms
        assert mw.zero_intersection(ps, places) == reduced_zero_intersection(ps)
        assert (r is None) == (surf.halving_root is None)


class TestHeight:
    def test_fibers_are_the_surface_record(self, k18):
        h, readings = height(18, k18["ps"])
        assert [(r.place, r.m, r.component) for r in readings] == \
            [(f.place, f.m, f.j) for f in SURFACES[18].fibers]
        assert h == SURFACES[18].height

    def test_psigma_height(self, k18):
        h, readings = height(18, k18["ps"])
        assert h == 10
        assert {r.place: r.component for r in readings} == {
            "s=0": 6, "s=inf": 1, "s=1/18": 1,
            "alpha1": 0, "beta1": 0, "alpha2": 0, "beta2": 0}
        assert 12 * h == 120
        assert Fraction(26, 3) <= h <= 14

    def test_breakdown(self, k18):
        h, readings = height(18, k18["ps"])
        total = Fraction(2 * 2) + 2 * mw.zero_intersection(k18["ps"], k18["places"])
        total -= sum(mw.contribution(r.m, r.component) for r in readings)
        assert total == h == 10
        # the witness: (m, v(psi2), v(dF/dx), M) at the I12 and I2 fibers
        assert [tuple(r)[1:] for r in readings[:3]] == [(12, 7, 6, 6), (2, 1, 1, 1),
                                                        (2, 1, 1, 1)]

    def test_multiples_and_torsion_shifts(self, k18):
        assert height(18, ec_mul(2, k18["ps"], k18["E"]))[0] == 40
        assert [height(18, P)[0] for P in multiples_and_shifts(1)] == [10] * 6

    def test_pair_readings_match_ratfunc(self, k18, monkeypatch):
        # p_sigma, [2]p_sigma and p_sigma + T for the torsion T with x != 0:
        # every order section_height reads from (num, den) pairs is the
        # order of the same function in lowest terms
        E, ps = k18["E"], k18["ps"]
        sections = [ps, ec_mul(2, ps, E), *(ec_add(ps, T, E) for T in torsion_multiples(18)
                                            if not T.x.is_zero())]
        assert len(sections) == 6
        read, valuation = [], mw.valuation
        mw._fiber_places(18, SURFACES[18].fibers)  # its c4 and disc readings are cached

        def spy(f, place, weight):
            read.append(valuation(f, place, weight))
            return read[-1]
        monkeypatch.setattr(mw, "valuation", spy)
        for P in sections:
            read.clear()
            mw.section_height(SURFACES[18], P, reduced_zero_intersection(P))
            # x, psi2 and dF/dx at the 5 distinct places of the 7 fibers
            assert len(read) == 15 and read == ratfunc_readings(18, P), P

    def test_torsion_heights_vanish(self):
        assert [height(k, P)[0]
                for k in (3, 18) for P in torsion_multiples(k)] == [0] * 10
        # (0, 0) = [3]rho6: psi2 and a3 vanish identically, v = +infinity
        _, readings = height(18, point(0, 0))
        assert readings[0] == ("s=0", 12, None, 6, 6)

    def test_k3_section(self):
        E, P = mw.family_curve(3), infinite_section_k3()
        h, readings = height(3, P)
        assert h == Fraction(5, 4)
        assert {r.place: r.component for r in readings} == {
            "s=0": 1, "s=inf": 0, "s=1/3": 1,
            "alpha1": 1, "beta1": 1, "alpha2": 0, "beta2": 0}
        assert height(3, ec_mul(2, P, E))[0] == 5
        # |det NS| = 432 h / 6^2 = 15 = |det T|: <P, torsion> is all of MW
        assert abs(ns_determinant(1, 432, h, 6)) == 15 == SURFACES[3].level

    def test_generator_chain(self, k18):
        # h = 10 plus the two halving obstructions certify a generator
        h, _ = height(18, k18["ps"])
        assert h == 10
        square, wits = halving_witnesses(k18)
        assert square and None not in wits.values()
        assert k18["halving"]["r"] ** 2 == k18["Q"].x

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError, match="not on the curve"):
            mw.section_height(SURFACES[18], point(1, 1), 0)
