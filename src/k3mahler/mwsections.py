"""Elliptic curves over Q(sqrt(-3))(sigma) and the k=18 section suite.

Provides the chord-tangent group law in long Weierstrass form with exact
rational-function arithmetic, a nontorsion certificate by specialization at a
fiber and reduction mod p, the two-descent halving criterion on curves
y^2 = x(x^2 + a x + b), section/zero-section intersection numbers,
replay-with-verification of the Neron-model component identifications for the
k=18 surface, and the canonical height h(P) = 2*chi + 2*(P.O) - sum of local
contributions.

Every check that mirrors a printed computation is verified exactly; a
mismatch raises VerificationError rather than returning a wrong index.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .exactalg import (Place, Poly, RatFunc, is_square_ratfunc, poly_sqrt,
                       reduce_mod_p, sqrt_ratfunc, valuation)
from .lattices import SURFACES
from .pointcount import point_order, primes_up_to, weierstrass_invariants


class VerificationError(RuntimeError):
    """A printed valuation/membership fact failed to replay exactly."""


# ---------------------------------------------------------------------------
# Curves and points
# ---------------------------------------------------------------------------

class FunctionFieldCurve(namedtuple("FunctionFieldCurve", "a1 a2 a3 a4 a6")):
    """Long Weierstrass form with RatFunc coefficients."""

    __slots__ = ()

    @staticmethod
    def from_coeffs(a1, a2, a3, a4, a6) -> "FunctionFieldCurve":
        return FunctionFieldCurve(*(RatFunc.coerce(v) for v in (a1, a2, a3, a4, a6)))

    def invariants(self) -> tuple:
        """(b2, b4, b6, discriminant), by `pointcount.weierstrass_invariants`."""
        return weierstrass_invariants(self.a1, self.a2, self.a3, self.a4, self.a6)

    def equation_residual(self, x: RatFunc, y: RatFunc) -> RatFunc:
        return (y * y + self.a1 * x * y + self.a3 * y
                - (x ** 3 + self.a2 * x * x + self.a4 * x + self.a6))


class SectionPoint(namedtuple("SectionPoint", "x y")):
    """An affine point (x, y) of RatFuncs, or the zero section (None, None)."""

    __slots__ = ()

    @staticmethod
    def zero() -> "SectionPoint":
        return SectionPoint(None, None)

    @staticmethod
    def affine(x, y) -> "SectionPoint":
        return SectionPoint(RatFunc.coerce(x), RatFunc.coerce(y))

    @property
    def is_zero(self) -> bool:
        return self.x is None

    def __repr__(self):
        return "O" if self.is_zero else f"({self.x!r}, {self.y!r})"


O = SectionPoint.zero()


def verify_on_curve(P: SectionPoint, E: FunctionFieldCurve) -> bool:
    """Exact identity check of the Weierstrass equation.

    When the a_i are polynomials the denominators are cleared by hand
    (multiply by dx^3 dy^2), so the whole check is polynomial multiplication
    with no gcd reduction on huge intermediates.
    """
    if P.is_zero:
        return True
    coeffs = (E.a1, E.a2, E.a3, E.a4, E.a6)
    if all(c.den.is_constant() for c in coeffs):
        a1, a2, a3, a4, a6 = (c.num for c in coeffs)
        nx, dx, ny, dy = P.x.num, P.x.den, P.y.num, P.y.den
        dx2 = dx * dx
        dx3 = dx2 * dx
        dy2 = dy * dy
        lhs = ny * ny * dx3 + a1 * nx * ny * dx2 * dy + a3 * ny * dx3 * dy
        rhs = (nx * nx * nx * dy2 + a2 * nx * nx * dx * dy2
               + a4 * nx * dx2 * dy2 + a6 * dx3 * dy2)
        return lhs == rhs
    return E.equation_residual(P.x, P.y).is_zero()


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


# P reduces to a point of order `order` on the fiber sigma = t modulo p, with
# sqrt(-3) -> w (None when every coordinate is rational)
NontorsionWitness = namedtuple("NontorsionWitness", "t p w order")


# the torsion exponent bound of this family, and the fixed, deterministic
# search order of the nontorsion certificate
NONTORSION_BOUND = 6
NONTORSION_SIGMAS = range(1, 13)
NONTORSION_PRIMES = tuple(p for p in primes_up_to(300) if p >= 5)


def verify_nontorsion(P: SectionPoint,
                      E: FunctionFieldCurve) -> NontorsionWitness | None:
    """A witness that [n]P != O for every n = 1..NONTORSION_BOUND, or None
    when the search certifies nothing.

    Specializing at a smooth fiber sigma = t and reducing modulo a prime p of
    good reduction at which P_t is integral are group homomorphisms, so an
    image of order > NONTORSION_BOUND shows that no such [n]P vanishes.  The
    search runs over t in NONTORSION_SIGMAS and then p in NONTORSION_PRIMES
    (only p = 1 mod 3 when a coordinate involves sqrt(-3)).  A pair is skipped
    at a pole of a coefficient or coordinate, at a denominator divisible by
    p, and when disc(E)(t) = 0 mod p, which also covers disc(E)(t) = 0.
    """
    if not verify_on_curve(P, E):
        raise ValueError("point is not on the curve")
    if P.is_zero:
        return None
    fns = (E.a1, E.a2, E.a3, E.a4, E.a6, P.x, P.y)
    if any(not c.is_rational() for f in fns for c in f.num.coeffs + f.den.coeffs):
        # sqrt(-3) -> w needs -3 to be a square mod p
        primes = [(p, next(r for r in range(1, p) if r * r % p == p - 3))
                  for p in NONTORSION_PRIMES if p % 3 == 1]
    else:
        primes = [(p, None) for p in NONTORSION_PRIMES]
    for t in NONTORSION_SIGMAS:
        try:
            vals = [f.eval(t) for f in fns]
        except ZeroDivisionError:
            continue
        for p, w in primes:
            red = [reduce_mod_p(v, p, w) for v in vals]
            if None in red or weierstrass_invariants(*red[:5])[3] % p == 0:
                continue
            # Hasse: #E(F_p) <= p + 1 + 2 sqrt(p) bounds every point's order
            order = point_order(red[:5], (red[5], red[6]), p,
                                bound=p + 2 + 2 * math.isqrt(p))
            if order > NONTORSION_BOUND:
                return NontorsionWitness(t, p, w, order)
    return None


# ---------------------------------------------------------------------------
# Coordinate changes, twists, completing the square
# ---------------------------------------------------------------------------

def transform_curve(E: FunctionFieldCurve, u, r, s, t) -> FunctionFieldCurve:
    """Weierstrass change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    u, r, s, t = (RatFunc.coerce(v) for v in (u, r, s, t))
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    A1 = (a1 + 2 * s) / u
    A2 = (a2 - s * a1 + 3 * r - s * s) / u ** 2
    A3 = (a3 + r * a1 + 2 * t) / u ** 3
    A4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4
    A6 = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6
    return FunctionFieldCurve(A1, A2, A3, A4, A6)


def transform_point(P: SectionPoint, u, r, s, t) -> SectionPoint:
    """Image of a point under the same change of variables."""
    if P.is_zero:
        return P
    u, r, s, t = (RatFunc.coerce(v) for v in (u, r, s, t))
    xs = (P.x - r) / (u * u)
    ys = (P.y - s * (P.x - r) - t) / (u ** 3)
    return SectionPoint(xs, ys)


def to_completed_square(P: SectionPoint, E: FunctionFieldCurve) -> SectionPoint:
    if P.is_zero:
        return P
    return SectionPoint(P.x, P.y + (E.a1 * P.x + E.a3) * Fraction(1, 2))


def bform_coefficients(E: FunctionFieldCurve) -> tuple[RatFunc, RatFunc]:
    """(a, b) for a curve already in the shape y^2 = x(x^2 + a x + b)."""
    if not (E.a1.is_zero() and E.a3.is_zero() and E.a6.is_zero()):
        raise ValueError("curve is not in the form y^2 = x(x^2 + ax + b)")
    return E.a2, E.a4


# ---------------------------------------------------------------------------
# Halving criterion
# ---------------------------------------------------------------------------

# the square tests of `can_halve`; the last five are None when x(Q) is no square
HalvingCertificate = namedtuple("HalvingCertificate", (
    "can_halve", "x_is_square", "qplus_is_square", "qminus_is_square",
    "r", "qplus", "qminus"))


def can_halve(Q: SectionPoint, E: FunctionFieldCurve) -> HalvingCertificate:
    """Two-descent test on y^2 = x(x^2 + a x + b): Q = [2]P is solvable iff
    x(Q) is a square, say r^2, and one of q+- = 2x + a +- 2y/r is a square.

    Requires a^2 - 4b not a square (checked) and x(Q) != 0 (error otherwise).
    """
    a, b = bform_coefficients(E)
    hyp = a * a - 4 * b
    if is_square_ratfunc(hyp):
        raise ValueError("theorem hypothesis violated: a^2 - 4b is a square")
    if Q.is_zero or Q.x.is_zero():
        raise ValueError("theorem hypothesis violated: x-coordinate is zero")
    if not verify_on_curve(Q, E):
        raise ValueError("point is not on the curve")
    r = sqrt_ratfunc(Q.x)
    if r is None:
        return HalvingCertificate(False, False, None, None, None, None, None)
    qplus = 2 * Q.x + a + 2 * Q.y / r
    qminus = 2 * Q.x + a - 2 * Q.y / r
    sp = is_square_ratfunc(qplus) if not qplus.is_zero() else False
    sm = is_square_ratfunc(qminus) if not qminus.is_zero() else False
    return HalvingCertificate(sp or sm, True, sp, sm, r, qplus, qminus)


# ---------------------------------------------------------------------------
# Intersection with the zero section
# ---------------------------------------------------------------------------

def zero_intersection(P: SectionPoint) -> int:
    """(P.O): half the total pole degree of x(P) across all places.

    The finite part is deg(den)/2 (the denominator must be a perfect square:
    every pole of a section has even order); the place at infinity is read in
    the other Weierstrass chart via x(s) = s^4 x(1/s), giving a pole exactly
    when deg(num) - deg(den) > 4.
    """
    if P.is_zero:
        raise ValueError("(O.O) is not computed here")
    x = P.x
    # den is monic: every finite pole has even order iff den is a square
    if poly_sqrt(x.den) is None:
        raise VerificationError("odd pole order in x at a finite place")
    total = x.den.degree() // 2
    inf_order = x.num.degree() - x.den.degree() - 4
    if inf_order > 0:
        if inf_order % 2:
            raise VerificationError("odd pole order in x at infinity")
        total += inf_order // 2
    return total


def contribution(m: int, j: int) -> Fraction:
    """Local height correction j(m-j)/m for an I_m fiber."""
    if not 0 <= j < m:
        raise ValueError(f"component index {j} out of range for I_{m}")
    return Fraction(j * (m - j), m)


# ---------------------------------------------------------------------------
# Neron components and the height of the k=18 surface
# ---------------------------------------------------------------------------

class NeronFiberData(namedtuple("NeronFiberData", (
        "place", "kodaira_m", "component",
        "facts",  # the replayed valuations and limits
))):
    __slots__ = ()

    def __new__(cls, place, kodaira_m, component, facts=None):
        # a fresh dict per record: a namedtuple default would be shared
        return super().__new__(cls, place, kodaira_m, component,
                               {} if facts is None else facts)

    def contr(self) -> Fraction:
        return contribution(self.kodaira_m, self.component)


_S = Poly.x()  # the parameter of a model's chart: s, or sigma
_AT_ZERO = Place.at_root(0)
_FIBER_M = {f.place: f.m for f in SURFACES[18].fibers}

# The node rule, for an I_m fiber at the origin of a chart: whether the chart
# is the reciprocal one (s = 1/sigma), the change of variables (u, r, s, t) to
# Neron's model there, the model's fixture loader, and (b, c, d) of the conic
# Y^2 + bXY + cX^2 + dZ^2 = 0 that carries the limit points at depth m/2.
# s=0 is the I12 fiber at sigma = infinity: x = X + 2 s^6, y = Y - s X - 2 s^7 - s^6;
# s=inf is the I2 fiber at sigma = 0: x = X/9 + 12 s, y = Y/27 + X/9 - 6 s.
_NODE_RULES = {
    "s=0": (True, (1, 2 * _S ** 6, -_S, -(2 * _S ** 7 + _S ** 6)),
            "neron_es_model", (1, 0, 1)),
    "s=inf": (False, (Fraction(1, 3), 12 * _S, 1, -6 * _S),
              "neron_esigma_model", (9, 27, -78732)),
}

# The line rule: the place, and the factors of the fiber in Beauville
# coordinates as (form, degree), listed by component; the zero section meets
# the first.  s=1/18 (sigma = 18) is (X+Y+Z)(XY+XZ+YZ) = 0; alpha1 and beta1,
# the conjugate roots of sigma^2 - 18 sigma + 1, are (X+Y)(X+Z)(Y+Z) = 0 and
# are read at once at their degree-2 place.
_I3_RULE = (Place.finite(Poly([1, -18, 1])),
            lambda X, Y, Z: ((X + Y, 1), (X + Z, 1), (Y + Z, 1)))
_LINE_RULES = {
    "s=1/18": (Place.at_root(18),
               lambda X, Y, Z: ((X + Y + Z, 1), (X * Y + X * Z + Y * Z, 2))),
    "alpha1": _I3_RULE,
    "beta1": _I3_RULE,
}


def _val_or_inf(f: RatFunc, place: Place) -> int | None:
    if f.is_zero():
        return None  # +infinity
    return valuation(f, place)


def _min_val(vals) -> int:
    finite = [v for v in vals if v is not None]
    if not finite:
        raise VerificationError("all coordinates vanish identically")
    return min(finite)


def _reciprocal_chart(P: SectionPoint) -> SectionPoint:
    """x = s^4 x'(1/s), y = s^6 y'(1/s)."""
    if P.is_zero:
        return P
    return SectionPoint(P.x.substitute_reciprocal() * RatFunc(Poly.x(4)),
                        P.y.substitute_reciprocal() * RatFunc(Poly.x(6)))


@lru_cache(maxsize=None)
def schart_curve() -> FunctionFieldCurve:
    """Weierstrass model around s = 0 via x = s^4 x'(1/s), y = s^6 y'(1/s),
    checked against its fixture."""
    from . import fixtures
    E = fixtures.y18_curve()
    # the coefficient a_i picks up s^(2i)
    derived = FunctionFieldCurve(*(
        a.substitute_reciprocal() * RatFunc(Poly.x(2 * i))
        for i, a in ((1, E.a1), (2, E.a2), (3, E.a3), (4, E.a4), (6, E.a6))))
    if derived != fixtures.y18_schart_curve():
        raise VerificationError("s-chart model mismatch")
    return derived


@lru_cache(maxsize=None)
def neron_model(place: str) -> FunctionFieldCurve:
    """Neron's model at a node-rule place, derived by its change of variables
    and checked against its fixture and against Neron's valuation pattern."""
    from . import fixtures
    reciprocal, change, fixture, _ = _NODE_RULES[place]
    E = schart_curve() if reciprocal else fixtures.y18_curve()
    derived = transform_curve(E, *change)
    if derived != getattr(fixtures, fixture)():
        raise VerificationError(f"{place} model mismatch")
    _verify_neron_valuations(derived, _AT_ZERO, _FIBER_M[place])
    return derived


@lru_cache(maxsize=None)
def beauville_coords(P: SectionPoint) -> tuple[RatFunc, RatFunc, RatFunc]:
    """[X:Y:Z] = [-y - a1 x : y : x + (s^2 - 18s)] on the Beauville cubic."""
    if P.is_zero:
        return RatFunc(0), RatFunc(1), RatFunc(0)
    from . import fixtures
    a1 = fixtures.y18_curve().a1
    X = -P.y - a1 * P.x
    Y = P.y
    Z = P.x + RatFunc(Poly([0, -18, 1]))
    # image must satisfy (X+Y)(X+Z)(Y+Z) + a1 XYZ = 0
    if not ((X + Y) * (X + Z) * (Y + Z) + a1 * X * Y * Z).is_zero():
        raise VerificationError("Beauville cubic identity failed")
    return X, Y, Z


def _node_component(place: str, m: int, P: SectionPoint) -> NeronFiberData:
    """Count the chain components [X : Y : s^i] that the section degenerates
    through, min(v(X), v(Y)) on Neron's model; at depth m/2 the limit point
    must lie on the fiber's conic."""
    reciprocal, change, _, (b, c, d) = _NODE_RULES[place]
    Q = transform_point(_reciprocal_chart(P) if reciprocal else P, *change)
    if not verify_on_curve(Q, neron_model(place)):
        raise VerificationError(f"transformed section left the {place} model")
    vX, vY = _val_or_inf(Q.x, _AT_ZERO), _val_or_inf(Q.y, _AT_ZERO)
    facts = {"v(X)": vX, "v(Y)": vY}
    j = max(0, _min_val([vX, vY]))
    if j > m // 2:
        raise VerificationError("section valuation exceeds half the fiber")
    if j == m // 2:
        sh = RatFunc(Poly.x(j))
        x0, y0 = (Q.x / sh).eval(0), (Q.y / sh).eval(0)
        facts["limit"] = (x0, y0)
        if not (y0 * y0 + b * x0 * y0 + c * x0 * x0 + d).is_zero():
            raise VerificationError(f"limit point is not on the {place} conic")
    return NeronFiberData(place, m, j, facts)


@lru_cache(maxsize=None)
def _line_vanishing(rule: tuple, P: SectionPoint) -> tuple[bool, ...]:
    """Which factors of a line rule vanish on the section, read once per rule:
    alpha1 and beta1 share theirs."""
    pl, factors = rule
    X, Y, Z = beauville_coords(P)
    mu = _min_val([_val_or_inf(c, pl) for c in (X, Y, Z)])
    hits = []
    for f, deg in factors(X, Y, Z):
        v = _val_or_inf(f, pl)
        hits.append(v is None or v > deg * mu)
    return tuple(hits)


def _line_component(place: str, m: int, P: SectionPoint) -> NeronFiberData:
    """The component whose factor vanishes on the section; exactly one must."""
    hits = _line_vanishing(_LINE_RULES[place], P)
    if sum(hits) != 1:
        raise VerificationError(f"section does not meet exactly one component "
                                f"of the {place} fiber")
    return NeronFiberData(place, m, hits.index(True), {"vanishing": hits})


def neron_component(place: str, P: SectionPoint) -> NeronFiberData:
    """The verified Neron component that P meets on one singular fiber of
    SURFACES[18]; the zero section and I1 fibers give component 0."""
    if place not in _FIBER_M:
        raise ValueError(f"unknown fiber place {place!r}; "
                         f"expected one of {tuple(_FIBER_M)}")
    m = _FIBER_M[place]
    if m == 1 or P.is_zero:
        return NeronFiberData(place, m, 0)
    if place in _NODE_RULES:
        return _node_component(place, m, P)
    return _line_component(place, m, P)


def _verify_neron_valuations(E: FunctionFieldCurve, place: Place, m: int) -> None:
    """The valuation pattern of Neron's theorem for an I_m model at the place:
    v(lambda^2 + 4 alpha) = 0, v(mu) >= l, v(beta) >= l, v(gamma) = m,
    v(j) = -m, with l = m/2 + 1."""
    ell = m // 2 + 1
    b2, b4, _, disc = E.invariants()
    # v(j) = 3 v(c4) - v(disc), kept factored to dodge a huge polynomial gcd
    v_j = 3 * valuation(b2 * b2 - 24 * b4, place) - valuation(disc, place)
    checks = [
        ("v(lambda^2+4alpha)", valuation(b2, place), "==", 0),
        ("v(mu)", valuation(E.a3, place), ">=", ell),
        ("v(beta)", valuation(E.a4, place), ">=", ell),
        ("v(gamma)", valuation(E.a6, place), "==", m),
        ("v(j)", v_j, "==", -m),
    ]
    for name, got, op, want in checks:
        ok = got == want if op == "==" else got >= want
        if not ok:
            raise VerificationError(f"Neron model check failed: {name} = {got}, "
                                    f"expected {op} {want}")


def height(P: SectionPoint, chi: int, fibers: Sequence[NeronFiberData]) -> Fraction:
    """Canonical height 2*chi + 2*(P.O) - sum of fiber contributions."""
    if P.is_zero:
        raise ValueError("height of the zero section is 0 by convention; "
                         "this routine expects a nonzero section")
    total = Fraction(2 * chi) + 2 * zero_intersection(P)
    for f in fibers:
        total -= f.contr()
    return total


def y18_height(P: SectionPoint) -> tuple[Fraction, list[NeronFiberData]]:
    """Height of a section of the k=18 surface (chi = 2), with one verified
    component for each singular fiber of SURFACES[18], in the record's order."""
    fibers = [neron_component(f.place, P) for f in SURFACES[18].fibers]
    return height(P, 2, fibers), fibers
