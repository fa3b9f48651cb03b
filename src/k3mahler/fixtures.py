"""Section fixtures for the k=18 surface.

Every displayed formula this package replays (the k=18 twisted curve, its
infinite sections, the halving root r) is built here from its printed factored
form over Q(sqrt(-3)), and these builders are its only copy.  A section's
coordinates are `mwsections.PolyRatio` pairs over the printed denominators
dcore^2 and dcore^3, and `pole_places` are the places of dcore's factors.
The family's own Weierstrass models are `mwsections.family_curve` and
`mwsections.schart_family_curve`.  Each public loader caches what its builder
returns.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exactalg import Place, Poly, QuadElem
from .mwsections import FunctionFieldCurve, PolyRatio, SectionPoint


def _lin(c) -> Poly:
    """sigma + c."""
    return Poly([c, 1])


# ---------------------------------------------------------------------------
# The twisted k=18 curve
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def y18_twist_curve() -> FunctionFieldCurve:
    """The quadratic twist of family_curve(18) by -3."""
    return FunctionFieldCurve.from_coeffs(Poly([1, -18, 1]), Poly([2, 90, -329, 36, -1]),
                                          0, Poly([0, 162, -9]), 0)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

# the factors of dcore: sigma - 9, sigma^2 - 21 sigma + 72, sigma^2 - 15 sigma + 18
_DCORE_FACTORS = ((-9, 1), (72, -21, 1), (18, -15, 1))


def _psigma_denominator_core() -> Poly:
    return math.prod(map(Poly, _DCORE_FACTORS))


@lru_cache(maxsize=None)
def pole_places() -> tuple[Place, ...]:
    """The places of dcore's factors, each checked irreducible: the only
    places where the x of these sections can have a pole."""
    return tuple(Place.finite(Poly(f)) for f in _DCORE_FACTORS)


def _psigma_x_numerator() -> Poly:
    """sigma (sigma - 18)(sigma - 21)^2 (sigma + 3)^2."""
    return Poly.x() * _lin(-18) * _lin(-21) ** 2 * _lin(3) ** 2


@lru_cache(maxsize=None)
def infinite_section_k18() -> SectionPoint:
    """The infinite section of the k=18 surface, defined over Q(sqrt(-3))."""
    dcore = _psigma_denominator_core()
    f2 = Poly([QuadElem(45, -27), QuadElem(-18, 3), QuadElem(1)])
    f3 = Poly([QuadElem(-81, 99), QuadElem(171, -54), QuadElem(-27, 3), QuadElem(1)])
    f5 = Poly([QuadElem(5832, -5832), QuadElem(-22518, -5832), QuadElem(729, 4212),
               QuadElem(513, -432), QuadElem(-45, 12), QuadElem(1)])
    y_num = (Poly([QuadElem(0, 36)]) * Poly.x() * _lin(-21) * _lin(-18) * _lin(3)
             * f2 * f3 * f5)
    return SectionPoint(PolyRatio(3888 * _psigma_x_numerator(), dcore ** 2),
                        PolyRatio(y_num, dcore ** 3))


@lru_cache(maxsize=None)
def twist_section() -> SectionPoint:
    """The rational section of the twisted-by--3 curve."""
    dcore = _psigma_denominator_core()
    big = Poly([128490624, 132322248, -545848956, 281168010, -44001711,
                -294840, 771363, -87822, 4455, -108, 1])
    y_num = -324 * Poly.x() * _lin(-18) * _lin(-21) * _lin(3) * big
    return SectionPoint(PolyRatio(-11664 * _psigma_x_numerator(), dcore ** 2),
                        PolyRatio(y_num, dcore ** 3))


@lru_cache(maxsize=None)
def halving_root() -> PolyRatio:
    """r with x(Q) = r^2 for Q = Pb + (0, 0), Pb the infinite section on the
    completed square y^2 = x(x^2 + a x + b) of family_curve(18)."""
    tp = _lin(-21) * _lin(3)
    return PolyRatio(_psigma_denominator_core(), Poly([QuadElem(0, 36)]) * tp)
