"""The chord-tangent group law in long Weierstrass form, and the displayed
torsion multiples and k=3 infinite section it is checked on.

The package needs no general group law: its only sum, P + (0, 0) on the
completed square, has the closed form `mwsections.plus_two_torsion`.  This
is the reference for that form, and the tests' way to form [n]P and
P + T.
"""

from __future__ import annotations

from functools import lru_cache

from k3mahler.exactalg import Poly
from k3mahler.mwsections import (O, FunctionFieldCurve, SectionPoint,
                                 verify_on_curve)


def ec_neg(P: SectionPoint, E: FunctionFieldCurve) -> SectionPoint:
    if P.is_zero:
        return P
    return SectionPoint(P.x, -P.y - E.a1 * P.x - E.a3)


def ec_add(P: SectionPoint, Q: SectionPoint, E: FunctionFieldCurve,
           check: bool = True) -> SectionPoint:
    """Chord-tangent addition in long Weierstrass form."""
    if check:
        for R in (P, Q):
            if not verify_on_curve(R, E):
                raise ValueError("point is not on the curve")
    if P.is_zero:
        return Q
    if Q.is_zero:
        return P
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
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
    if not verify_on_curve(P, E):
        raise ValueError("point is not on the curve")
    result, base = O, P
    while n:
        if n & 1:
            result = ec_add(result, base, E, check=False)
        n >>= 1
        if n:
            base = ec_add(base, base, E, check=False)
    return result


@lru_cache(maxsize=None)
def torsion_multiples(k: int) -> tuple[SectionPoint, ...]:
    """[rho6, 2*rho6, ..., 5*rho6] on family_curve(k), as displayed."""
    rho = Poly([0, -k, 1])  # sigma (sigma - k)
    s1 = Poly([1, -k, 1])
    return tuple(SectionPoint.affine(x, y) for x, y in
                 ((-rho, rho * s1), (1, -s1), (0, 0), (1, 0), (-rho, 0)))


@lru_cache(maxsize=None)
def infinite_section_k3() -> SectionPoint:
    """The infinite section of the k=3 surface, as displayed."""
    s1, s2, s3 = (Poly([-c, 1]) for c in (1, 2, 3))  # sigma - c
    return SectionPoint.affine(-(s3 * s1 ** 2), s3 * s2 * s1 * Poly([1, -3, 1]))
