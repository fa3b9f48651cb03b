"""The chord-tangent group law in long Weierstrass form, the displayed
torsion multiples and k=3 infinite section it is checked on, the printed
quadratic twist of the k=18 curve by -3 with its rational section, and the
family's printed model in the chart s = 1/sigma.

The package needs no general group law: its only sum, P + (0, 0) on the
completed square, has the closed form `mwsections.plus_two_torsion`.  This
is the reference for that form, and the tests' way to form [n]P and
P + T.  Points here have RatFunc coordinates in lowest terms (`rat` converts
the package's (num, den) pairs), and the zero section O is (None, None).
Since lowest terms make den(x) exactly the finite pole part of x,
`reduced_zero_intersection` counts (P.O) from its degree, the reference for
`mwsections.zero_intersection`.  The s-chart model is the reference for
`mwsections.valuation` at sigma = inf, which reads a function of
`mwsections.family_curve(k)` there by its weight instead.
"""

from __future__ import annotations

from functools import lru_cache

from k3mahler.exactalg import Poly
from k3mahler.mwsections import (FunctionFieldCurve, PolyRatio, SectionPoint,
                                 VerificationError, record_section, section_height,
                                 verify_on_curve)
from k3mahler.surfaces import SURFACES
from ratfunc import RatFunc, poly_sqrt

O = SectionPoint(None, None)


def rat(P: SectionPoint) -> SectionPoint:
    """P with RatFunc coordinates in lowest terms (O stays O)."""
    if P == O:
        return P
    return SectionPoint(*(c if isinstance(c, RatFunc) else RatFunc(c.num, c.den)
                          for c in P))


def point(x, y) -> SectionPoint:
    return SectionPoint(RatFunc.coerce(x), RatFunc.coerce(y))


def ec_neg(P: SectionPoint, E: FunctionFieldCurve) -> SectionPoint:
    if P == O:
        return P
    P = rat(P)
    return SectionPoint(P.x, -P.y - E.a1 * P.x - E.a3)


def ec_add(P: SectionPoint, Q: SectionPoint, E: FunctionFieldCurve,
           check: bool = True) -> SectionPoint:
    """Chord-tangent addition in long Weierstrass form."""
    if check:
        for R in (P, Q):
            if R != O and not verify_on_curve(R, E):
                raise ValueError("point is not on the curve")
    if P == O:
        return rat(Q)
    if Q == O:
        return rat(P)
    (x1, y1), (x2, y2) = rat(P), rat(Q)
    if x1 == x2:
        if (y1 + y2 + E.a1 * x2 + E.a3).is_zero():
            return O
        den = 2 * y1 + E.a1 * x1 + E.a3
        lam = (3 * x1 * x1 + 2 * E.a2 * x1 + E.a4 - E.a1 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + E.a1 * lam - E.a2 - x1 - x2
    y3 = -(lam + E.a1) * x3 - nu - E.a3
    return SectionPoint(x3, y3)


def ec_mul(n: int, P: SectionPoint, E: FunctionFieldCurve) -> SectionPoint:
    if n < 0:
        return ec_mul(-n, ec_neg(P, E), E)
    if P != O and not verify_on_curve(P, E):
        raise ValueError("point is not on the curve")
    result, base = O, P
    while n:
        if n & 1:
            result = ec_add(result, base, E, check=False)
        n >>= 1
        if n:
            base = ec_add(base, base, E, check=False)
    return result


def reduced_zero_intersection(P: SectionPoint) -> int:
    """(P.O) from x in lowest terms: deg(den)/2, den a perfect square (every
    pole of a section has even order), plus the pole at infinity read in the
    other chart via x(s) = s^4 x(1/s), when deg(num) - deg(den) > 4."""
    x = rat(P).x
    if poly_sqrt(x.den) is None:
        raise VerificationError("odd pole order in x at a finite place")
    total = x.den.degree() // 2
    inf_order = x.num.degree() - x.den.degree() - 4
    if inf_order > 0:
        if inf_order % 2:
            raise VerificationError("odd pole order in x at infinity")
        total += inf_order // 2
    return total


def height(k: int, P: SectionPoint):
    """`mwsections.section_height` on the record of k, with (P.O) from
    `reduced_zero_intersection`."""
    return section_height(SURFACES[k], P, reduced_zero_intersection(P))


@lru_cache(maxsize=None)
def torsion_multiples(k: int) -> tuple[SectionPoint, ...]:
    """[rho6, 2*rho6, ..., 5*rho6] on family_curve(k), as displayed."""
    rho = Poly([0, -k, 1])  # sigma (sigma - k)
    s1 = Poly([1, -k, 1])
    return tuple(point(x, y) for x, y in
                 ((-rho, rho * s1), (1, -s1), (0, 0), (1, 0), (-rho, 0)))


@lru_cache(maxsize=None)
def schart_family_curve(k: int) -> FunctionFieldCurve:
    """y^2 + (s^2 - k s + 1) xy = x (x - s^4)(x + s^2 - k s^3): family_curve(k)
    in the chart x = s^4 x'(1/s), y = s^6 y'(1/s) around s = 0, as printed."""
    return FunctionFieldCurve.from_coeffs(Poly([1, -k, 1]), Poly([0, 0, 1, -k, -1]), 0,
                                          Poly([0, 0, 0, 0, 0, 0, -1, k]), 0)


@lru_cache(maxsize=None)
def infinite_section_k3() -> SectionPoint:
    """The infinite section of the k=3 surface, as displayed."""
    s1, s2, s3 = (Poly([-c, 1]) for c in (1, 2, 3))  # sigma - c
    return point(-(s3 * s1 ** 2), s3 * s2 * s1 * Poly([1, -3, 1]))


def psigma() -> SectionPoint:
    """p_sigma, the infinite section of the k=18 record, as the package
    builds it from `SURFACES[18]`."""
    return record_section(SURFACES[18]).point


# the printed factors of p_sigma: x = 3888 PSIGMA_X_NUMERATOR / DCORE^2, and
# the twist section's x is -11664 PSIGMA_X_NUMERATOR / DCORE^2
DCORE = Poly([-9, 1]) * Poly([72, -21, 1]) * Poly([18, -15, 1])
PSIGMA_X_NUMERATOR = Poly([0, 1]) * Poly([-18, 1]) * Poly([-21, 1]) ** 2 * Poly([3, 1]) ** 2


@lru_cache(maxsize=None)
def y18_twist_curve() -> FunctionFieldCurve:
    """The printed quadratic twist of family_curve(18) by -3, over which the
    infinite section descends to a rational one."""
    return FunctionFieldCurve.from_coeffs(Poly([1, -18, 1]), Poly([2, 90, -329, 36, -1]),
                                          0, Poly([0, 162, -9]), 0)


@lru_cache(maxsize=None)
def twist_section() -> SectionPoint:
    """The printed rational section of y18_twist_curve(), as a (num, den) pair."""
    big = Poly([128490624, 132322248, -545848956, 281168010, -44001711,
                -294840, 771363, -87822, 4455, -108, 1])
    y_num = -324 * Poly([0, 1]) * Poly([-18, 1]) * Poly([-21, 1]) * Poly([3, 1]) * big
    return SectionPoint(PolyRatio(-11664 * PSIGMA_X_NUMERATOR, DCORE ** 2),
                        PolyRatio(y_num, DCORE ** 3))
