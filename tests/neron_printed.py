"""The paper's printed route to the Neron components of the k=18 surface, the
oracle of `mwsections.section_height`: Neron's models at the nodes s=0 (I12)
and s=inf (I2), reached by printed changes of variables and derived and
checked here, and Beauville coordinates at the I2 and I3 lines s=1/18, alpha1
and beta1.  I1 fibers and the zero section give component 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from k3mahler.exactalg import Place, Poly
from k3mahler.surfaces import SURFACES
from k3mahler.mwsections import (FunctionFieldCurve, SectionPoint, contribution,
                                 family_curve, verify_on_curve)
from grouplaw import O, height, rat, reduced_zero_intersection, schart_family_curve
from ratfunc import RatFunc, valuation

S = Poly([0, 1])  # the parameter of a model's chart: s, or sigma
AT_ZERO = Place(S)
FIBER_M = {f.place: f.m for f in SURFACES[18].fibers}


def transform_curve(E, u, r, s, t) -> FunctionFieldCurve:
    """Weierstrass change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    u, r, s, t = (RatFunc.coerce(v) for v in (u, r, s, t))
    a1, a2, a3, a4, a6 = E
    return FunctionFieldCurve(
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u ** 2,
        (a3 + r * a1 + 2 * t) / u ** 3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4,
        (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6)


# The node rules: whether the place sits in the reciprocal chart s = 1/sigma,
# the printed change of variables (u, r, s, t) to Neron's model there, the
# printed model, and (b, c, d) of the conic Y^2 + bXY + cX^2 + dZ^2 = 0 that
# carries the limit points at depth m/2.
NODE_RULES = {
    "s=0": (True, (1, 2 * S ** 6, -S, -(2 * S ** 7 + S ** 6)),
            FunctionFieldCurve.from_coeffs(*map(Poly, (
                [1, -20, 1], [0, 1, -18, -17, -1, 0, 6], [0] * 7 + [-40, 2],
                [0] * 7 + [2, -71, -68, -4, 0, 12], [0] * 12 + [-1, 0, -70, -68, -4, 0, 8]))),
            (1, 0, 1)),
    "s=inf": (False, (Fraction(1, 3), 12 * S, 1, -6 * S),
              FunctionFieldCurve.from_coeffs(*map(Poly, (
                  [9, -54, 3], [-27, 324], [0, 0, -5832, 324], [0, 0, 8667, 1458],
                  [0, 0, 78732, -1583388, 157464]))),
              (9, 27, -78732)),
}

# The line rules: the place, and the factors of the fiber in Beauville
# coordinates as (form, degree), listed by component; the zero section meets
# the first.  alpha1 and beta1 share their degree-2 place.
_I3_RULE = (*Place.over(Poly([1, -18, 1])),  # irreducible: one place
            lambda X, Y, Z: ((X + Y, 1), (X + Z, 1), (Y + Z, 1)))
LINE_RULES = {
    "s=1/18": (Place(Poly([-18, 1])),
               lambda X, Y, Z: ((X + Y + Z, 1), (X * Y + X * Z + Y * Z, 2))),
    "alpha1": _I3_RULE,
    "beta1": _I3_RULE,
}


def reciprocal_chart(P: SectionPoint) -> SectionPoint:
    """P in the chart of schart_family_curve(18), x = s^4 x'(1/s) and
    y = s^6 y'(1/s), in lowest terms."""
    return SectionPoint(*(c.substitute_reciprocal() * RatFunc(S ** w)
                          for c, w in zip(rat(P), (4, 6))))


def _v(f, place):
    return math.inf if f.is_zero() else valuation(f, place)


@lru_cache(maxsize=None)
def neron_model(place: str) -> FunctionFieldCurve:
    """Neron's model at a node, derived (in the s-chart a_i picks up s^(2i))
    and checked against its printed form and Neron's pattern for I_m; the
    printed form is returned, with polynomial coefficients."""
    reciprocal, change, printed, _ = NODE_RULES[place]
    E = FunctionFieldCurve(*map(RatFunc, family_curve(18)))
    if reciprocal:
        E = FunctionFieldCurve(*(a.substitute_reciprocal() * RatFunc(S ** (2 * i))
                                 for i, a in zip((1, 2, 3, 4, 6), E)))
        assert E == schart_family_curve(18), "s-chart model mismatch"
    E = transform_curve(E, *change)
    assert E == printed, f"{place} model mismatch"
    m, (b2, b4, _, disc) = FIBER_M[place], E.invariants()
    v = lambda f: valuation(f, AT_ZERO)  # noqa: E731
    assert (v(b2), v(E.a6), 3 * v(b2 * b2 - 24 * b4) - v(disc)) == (0, m, -m)
    assert min(v(E.a3), v(E.a4)) > m // 2
    return printed


@lru_cache(maxsize=None)
def beauville_coords(P: SectionPoint) -> tuple[RatFunc, RatFunc, RatFunc]:
    """[X:Y:Z] = [-y - a1 x : y : x + (s^2 - 18s)] on the Beauville cubic."""
    a1, P = family_curve(18).a1, rat(P)
    X, Y, Z = -P.y - a1 * P.x, P.y, P.x + RatFunc(Poly([0, -18, 1]))
    assert ((X + Y) * (X + Z) * (Y + Z) + a1 * X * Y * Z).is_zero()
    return X, Y, Z


def neron_component(place: str, P: SectionPoint) -> tuple[int, dict]:
    """(j, the facts read): the component P meets on a fiber of SURFACES[18]."""
    m = FIBER_M[place]
    if m == 1 or P == O:
        return 0, {}
    if place in NODE_RULES:
        reciprocal, change, _, (b, c, d) = NODE_RULES[place]
        (u, r, s, t), Q = change, reciprocal_chart(P) if reciprocal else rat(P)
        Q = SectionPoint((Q.x - r) / u ** 2, (Q.y - s * (Q.x - r) - t) / u ** 3)
        assert verify_on_curve(Q, neron_model(place)), f"the section left the {place} model"
        facts = {"v(X)": _v(Q.x, AT_ZERO), "v(Y)": _v(Q.y, AT_ZERO)}
        j = max(0, min(facts.values()))
        assert j <= m // 2, facts
        if j == m // 2:  # the limit point must lie on the fiber's conic
            x0, y0 = facts["limit"] = tuple((f / RatFunc(S ** j)).at(0) for f in Q)
            assert (y0 * y0 + b * x0 * y0 + c * x0 * x0 + d).is_zero(), facts
        return j, facts
    pl, factors = LINE_RULES[place]
    X, Y, Z = beauville_coords(P)
    mu = min(_v(c, pl) for c in (X, Y, Z))
    hits = tuple(_v(f, pl) > deg * mu for f, deg in factors(X, Y, Z))
    assert sum(hits) == 1, f"the section meets {sum(hits)} components at {place}"
    return hits.index(True), {"vanishing": hits}


def compare_with_rule(sections) -> list[Fraction]:
    """The heights of sections of family_curve(18); the printed route must give
    each the same height, and each component up to j <-> m - j."""
    heights = []
    for P in sections:
        h, readings = height(18, P)
        comps = {r.place: neron_component(r.place, P)[0] for r in readings}
        assert h == 4 + 2 * reduced_zero_intersection(P) - sum(
            contribution(FIBER_M[p], j) for p, j in comps.items()), (h, comps)
        assert all(comps[r.place] in (r.component, r.m - r.component)
                   for r in readings), (readings, comps)
        heights.append(h)
    return heights
