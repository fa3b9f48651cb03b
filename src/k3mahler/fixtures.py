"""Curve and section fixtures for the k=3/6/18 surfaces.

Every displayed formula this package replays (Weierstrass models, the
infinite sections, torsion multiples, the halving data) is built here from its
printed factored form over Q(sqrt(-3)), and these builders are its only copy.
Each public loader caches what its builder returns.
"""

from __future__ import annotations

from functools import lru_cache

from .exactalg import Poly, QuadElem, RatFunc
from .mwsections import FunctionFieldCurve, SectionPoint


def _lin(c) -> Poly:
    """sigma + c."""
    return Poly([c, 1])


# ---------------------------------------------------------------------------
# Weierstrass models
# ---------------------------------------------------------------------------

def family_curve(k: int) -> FunctionFieldCurve:
    """y^2 + (s^2 - k s + 1) xy = x (x - 1)(x + s^2 - k s)."""
    return FunctionFieldCurve.from_coeffs(Poly([1, -k, 1]), Poly([-1, -k, 1]), 0,
                                          Poly([0, k, -1]), 0)


def schart_family_curve(k: int) -> FunctionFieldCurve:
    """y^2 + (s^2 - k s + 1) xy = x (x - s^4)(x + s^2 - k s^3): family_curve(k)
    in the chart x = s^4 x'(1/s), y = s^6 y'(1/s) around s = 0."""
    return FunctionFieldCurve.from_coeffs(Poly([1, -k, 1]), Poly([0, 0, 1, -k, -1]), 0,
                                          Poly([0, 0, 0, 0, 0, 0, -1, k]), 0)


@lru_cache(maxsize=None)
def y18_curve() -> FunctionFieldCurve:
    return family_curve(18)


@lru_cache(maxsize=None)
def y3_curve() -> FunctionFieldCurve:
    return family_curve(3)


@lru_cache(maxsize=None)
def y6_curve() -> FunctionFieldCurve:
    return schart_family_curve(6)


@lru_cache(maxsize=None)
def y18_twist_curve() -> FunctionFieldCurve:
    """The quadratic twist of y18_curve() by -3."""
    return FunctionFieldCurve.from_coeffs(Poly([1, -18, 1]), Poly([2, 90, -329, 36, -1]),
                                          0, Poly([0, 162, -9]), 0)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

def _psigma_denominator_core() -> Poly:
    return _lin(-9) * Poly([72, -21, 1]) * Poly([18, -15, 1])


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
    return SectionPoint(RatFunc(3888 * _psigma_x_numerator(), dcore ** 2),
                        RatFunc(y_num, dcore ** 3))


@lru_cache(maxsize=None)
def twist_section() -> SectionPoint:
    """The rational section of the twisted-by--3 curve."""
    dcore = _psigma_denominator_core()
    big = Poly([128490624, 132322248, -545848956, 281168010, -44001711,
                -294840, 771363, -87822, 4455, -108, 1])
    y_num = -324 * Poly.x() * _lin(-18) * _lin(-21) * _lin(3) * big
    return SectionPoint(RatFunc(-11664 * _psigma_x_numerator(), dcore ** 2),
                        RatFunc(y_num, dcore ** 3))


@lru_cache(maxsize=None)
def infinite_section_k3() -> SectionPoint:
    return SectionPoint.affine(-(_lin(-3) * _lin(-1) ** 2),
                               _lin(-3) * _lin(-2) * _lin(-1) * Poly([1, -3, 1]))


def torsion_multiples(k: int) -> list[SectionPoint]:
    """[rho6, 2*rho6, ..., 5*rho6] on family_curve(k), as displayed."""
    rho = Poly([0, -k, 1])  # sigma (sigma - k)
    s1 = Poly([1, -k, 1])
    return [SectionPoint.affine(x, y) for x, y in
            ((-rho, rho * s1), (1, -s1), (0, 0), (1, 0), (-rho, 0))]


@lru_cache(maxsize=None)
def torsion_multiples_k3() -> list[SectionPoint]:
    return torsion_multiples(3)


@lru_cache(maxsize=None)
def torsion_multiples_k18() -> list[SectionPoint]:
    return torsion_multiples(18)


def y6_torsion_point() -> SectionPoint:
    """The order-6 point (s^2 (6s - 1), 0) of the k=6 model."""
    return SectionPoint.affine(Poly([0, 0, -1, 6]), Poly([]))


@lru_cache(maxsize=None)
def halving_data() -> dict[str, RatFunc]:
    dcore = _psigma_denominator_core()
    tp = _lin(-21) * _lin(3)
    yprime_num = (Poly([QuadElem(0, 1)]) * dcore
                  * Poly([1350, -171, -12, 1])
                  * Poly([-216, 369, -42, 1])
                  * Poly([-486, -486, 351, -36, 1]))
    return {"xprime": RatFunc(-(dcore ** 2), 3888 * tp ** 2),
            "yprime": RatFunc(yprime_num, 419904 * tp ** 3),
            "qplus": RatFunc(-(tp ** 2) * Poly([9, -18, 1]), 972),
            "qminus": RatFunc(-243 * Poly([1, -18, 1]) ** 3, tp ** 2),
            "r": RatFunc(dcore, Poly([QuadElem(0, 36)]) * tp),
            "bform_a": RatFunc(Poly([-3, -108, 330, -36, 1]), 4),
            "bform_b": RatFunc(Poly([0, 18, -1]))}

