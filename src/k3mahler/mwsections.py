"""Elliptic curves over Q(sqrt(-3))(sigma) and the section suite of the
`Surface` records.

Provides the family's Weierstrass model over the sigma-line (polynomial
coefficients), read at sigma = inf by the weights of its functions
(`valuation`), a record's infinite section, pole places and halving root
built from its factored tuples (`record_section`), the exact on-curve check
of a section, certificates by specialization at a fiber and reduction mod a
split prime p (nontorsion against the record's torsion order, and the
non-squares of the two-descent halving obstruction on the completed square
y^2 = x(x^2 + a x + b), where adding the 2-torsion point (0, 0) has a closed
form), section/zero-section intersection numbers, and the canonical height
h(P) = 2*chi + 2*(P.O) - sum of local terms M(m - M)/m, one per singular
fiber of the `Surface` record by Silverman's rule for multiplicative fibers.
The only group law is the chord-tangent one over F_p in `point_order`.

A coordinate of a section is a `PolyRatio` num/den of two Polys, never
brought to lowest terms: every quantity read here (the on-curve identity,
values at sigma = t, orders at places, x(Q) = r^2) is read by clearing
denominators, so no gcd is taken.  Any object with Poly ``num`` and ``den``
(and ``at``) serves as a coordinate.

Every check that mirrors a printed computation is verified exactly; a
mismatch raises VerificationError rather than returning a wrong index.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exactalg import Place, Poly, poly_valuation, reduce_mod_p
from .pointcount import legendre, primes_up_to


class VerificationError(RuntimeError):
    """A printed valuation/membership fact failed to replay exactly."""


# ---------------------------------------------------------------------------
# Curves and points
# ---------------------------------------------------------------------------

def weierstrass_invariants(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, discriminant) of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Ring-generic: the same formulas serve polynomials and integers (reduce
    the results mod p for the curve over F_p)."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


class FunctionFieldCurve(namedtuple("FunctionFieldCurve", "a1 a2 a3 a4 a6")):
    """Long Weierstrass form with Poly coefficients, a model over
    Q(sqrt(-3))[sigma]."""

    __slots__ = ()

    @staticmethod
    def from_coeffs(a1, a2, a3, a4, a6) -> "FunctionFieldCurve":
        return FunctionFieldCurve(*(Poly.coerce(v) for v in (a1, a2, a3, a4, a6)))

    def invariants(self) -> tuple:
        """(b2, b4, b6, discriminant), by `weierstrass_invariants`."""
        return weierstrass_invariants(self.a1, self.a2, self.a3, self.a4, self.a6)


class PolyRatio(namedtuple("PolyRatio", "num den")):
    """num/den for Polys num and den != 0, not reduced: a common factor is
    allowed and changes no value or order read from it."""

    __slots__ = ()
    # tuple concatenation and repetition would pass for arithmetic: 2 * f
    __add__ = __mul__ = __rmul__ = None

    def at(self, t: int) -> Poly:
        """The value at sigma = t, a constant; ZeroDivisionError at a pole."""
        return self.num.at(t) // self.den.at(t)


# an affine section (x, y): coordinates with Poly num and den, as PolyRatio
SectionPoint = namedtuple("SectionPoint", "x y")

# a record's section, the places of its pole factors, and its halving root r
# (None where the record has none)
RecordSection = namedtuple("RecordSection", "point places r")


def _factored(const, *factors) -> Poly:
    return math.prod(map(Poly, factors), start=Poly((const,)))


def _pole_place(factor) -> Place:
    """The place of a record's pole factor, which must be irreducible over
    Q(sqrt(-3))."""
    places = Place.over(Poly(factor))
    if len(places) != 1:
        raise ValueError(f"pole factor {factor} is reducible over Q(sqrt(-3))")
    return places[0]


@lru_cache(maxsize=None)
def record_section(surf) -> RecordSection:
    """The section of a `Surface` record, x = X/dcore^2 and y = Y/dcore^3
    with dcore the product of its pole factors, each factor's place checked
    irreducible, and r.  Cached on the record, so one changed by `_replace`
    is built anew."""
    dcore = _factored(1, *surf.pole_factors)
    x, y = (_factored(*f) for f in surf.section)
    return RecordSection(
        SectionPoint(PolyRatio(x, dcore ** 2), PolyRatio(y, dcore ** 3)),
        tuple(map(_pole_place, surf.pole_factors)),
        surf.halving_root and PolyRatio(*(_factored(*f) for f in surf.halving_root)))


def valuation(f, place: Place, weight: int) -> float:
    """Order of f = num/den at a place, +inf for f = 0, which a common factor
    leaves unchanged: v(num) - v(den) at a finite place.

    At infinity f is read in the chart s = 1/sigma around the fiber sigma =
    inf, x = s^4 x'(1/s) and y = s^6 y'(1/s), where a function of `weight` w
    (2 for x, 3 for psi2, 4 for dF/dx and c4, 12 for disc) is s^(chi w)
    f(1/s): its order at s = 0 is chi w + deg den - deg num.  That chart is a
    Weierstrass model with polynomial a_i, integral at s = 0, because deg a_i
    <= chi i for family_curve(k), chi = K3_CHI = 2 (Miranda, The Basic Theory
    of Elliptic Surfaces, 1989)."""
    if f.num.is_zero():
        return math.inf
    if place.is_infinite:
        return K3_CHI * weight + f.den.degree() - f.num.degree()
    return poly_valuation(f.num, place.poly) - poly_valuation(f.den, place.poly)


def verify_on_curve(P: SectionPoint, E: FunctionFieldCurve) -> bool:
    """Exact identity check of the Weierstrass equation of a model with
    polynomial a_i (ValueError otherwise), multiplied through by dx^3 dy^2:
    polynomial products only, computed once per (P, E) and then recalled."""
    if not all(isinstance(c, Poly) for c in E):
        raise ValueError("the model's coefficients are not polynomials")
    return _weierstrass_identity(P.x.num, P.x.den, P.y.num, P.y.den, E)


@lru_cache(maxsize=32)
def _weierstrass_identity(nx: Poly, dx: Poly, ny: Poly, dy: Poly, E) -> bool:
    a1, a2, a3, a4, a6 = E
    dx2 = dx * dx
    dx3 = dx2 * dx
    dy2 = dy * dy
    lhs = ny * ny * dx3 + a1 * nx * ny * dx2 * dy + a3 * ny * dx3 * dy
    rhs = (nx * nx * nx * dy2 + a2 * nx * nx * dx * dy2
           + a4 * nx * dx2 * dy2 + a6 * dx3 * dy2)
    return lhs == rhs


def point_order(coeffs, pt: tuple[int, int], p: int, bound: int = 24) -> int:
    """Order of an affine point on the curve with integer coefficients a1..a6
    reduced mod p, up to bound.

    Raises on singular reduction, where the chord-tangent law is not a group
    law on all points."""
    a1, a2, a3, a4, a6 = (v % p for v in coeffs)
    if weierstrass_invariants(a1, a2, a3, a4, a6)[3] % p == 0:
        raise ValueError("singular curve mod p")

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % p == 0:
            return None
        if P == Q:
            num = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) % p
            den = (2 * y1 + a1 * x1 + a3) % p
        else:
            num, den = (y2 - y1) % p, (x2 - x1) % p
        lam = num * pow(den, -1, p) % p
        nu = (y1 - lam * x1) % p
        x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
        y3 = (-(lam + a1) * x3 - nu - a3) % p
        return (x3, y3)

    x, y = pt
    if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p != 0:
        raise ValueError("point is not on the curve mod p")
    acc, n = pt, 1  # acc = [n]P at the top of each iteration
    while acc is not None:
        if n > bound:
            raise ValueError(f"order exceeds bound {bound}")
        acc = add(acc, pt)
        n += 1
    return n


# The witnesses carry the report's field names.  P reduces to a point of
# order `order` on the fiber sigma modulo p, with sqrt(-3) -> sqrt_m3_mod_p
NontorsionWitness = namedtuple("NontorsionWitness", "sigma p sqrt_m3_mod_p order")

# a claimed non-square reduces, at the fiber sigma modulo p with sqrt(-3) ->
# sqrt_m3_mod_p, to a quadratic non-residue of F_p
NonsquareWitness = namedtuple("NonsquareWitness", "sigma p sqrt_m3_mod_p")


# the fixed, deterministic search order of the certificates by specialization
# and reduction
NONTORSION_SIGMAS = range(1, 13)


def _split_primes() -> list[tuple[int, int]]:
    """(p, w) for the primes p = 1 mod 3 below 300, with w^2 = -3 mod p: the
    primes at which sqrt(-3) -> w maps Q(sqrt(-3)) into F_p."""
    return [(p, next(r for r in range(1, p) if r * r % p == p - 3))
            for p in primes_up_to(300) if p % 3 == 1]


def _specializations(fns):
    """(t, p, w, images of fns in F_p) for t in NONTORSION_SIGMAS, then (p, w)
    in `_split_primes`, each function evaluated once per t.  A t at a pole of
    one of them is skipped; an image is None where p divides a denominator."""
    primes = _split_primes()
    for t in NONTORSION_SIGMAS:
        try:
            vals = [f.at(t) for f in fns]
        except ZeroDivisionError:
            continue
        for p, w in primes:
            yield t, p, w, [reduce_mod_p(v, p, w) for v in vals]


def verify_nontorsion(P: SectionPoint, E: FunctionFieldCurve,
                      torsion: int) -> NontorsionWitness | None:
    """A witness that [n]P != O for every n = 1..torsion, or None when the
    search certifies nothing; `torsion` bounds the order of every torsion
    section of E (`subchecks` passes the record's Mordell-Weil torsion order).

    Specializing at a smooth fiber sigma = t and reducing modulo a prime p of
    good reduction at which P_t is integral are group homomorphisms, so an
    image of order > torsion shows that no such [n]P vanishes.  The search is
    `_specializations` over the split primes, where a rational point reduces
    like any other.  It skips a pair at which a coefficient or coordinate
    does not reduce, or disc(E)(t) = 0 mod p, which covers disc(E)(t) = 0.
    """
    if not verify_on_curve(P, E):
        raise ValueError("point is not on the curve")
    for t, p, w, red in _specializations((*E, P.x, P.y)):
        if None in red or weierstrass_invariants(*red[:5])[3] % p == 0:
            continue
        # Hasse: #E(F_p) <= p + 1 + 2 sqrt(p) bounds every point's order
        order = point_order(red[:5], (red[5], red[6]), p,
                            bound=p + 2 + 2 * math.isqrt(p))
        if order > torsion:
            return NontorsionWitness(t, p, w, order)
    return None


def nonsquare_witnesses(fns, claims: dict) -> dict:
    """Per claim (indices into fns, image), the first NonsquareWitness of
    `_specializations(fns)` at which image(p, *the images of those fns) is a
    quadratic non-residue, or None.

    A square g^2 of Q(sqrt(-3))(sigma), finite at t and integral at p,
    reduces to g(t)^2, so a non-residue proves the claim no square.  A split
    prime is needed even for rational claims: at p = 2 mod 3 the residue
    field is F_(p^2), and the square -3 sigma^2 reduces to a non-residue.
    """
    found = {}
    for t, p, w, red in _specializations(fns):
        for name, (idx, image) in claims.items():
            args = [red[i] for i in idx]
            if name not in found and None not in args \
                    and legendre(image(p, *args), p) == -1:
                found[name] = NonsquareWitness(t, p, w)
        if len(found) == len(claims):
            break
    return {name: found.get(name) for name in claims}


# ---------------------------------------------------------------------------
# Completing the square and the halving obstruction
# ---------------------------------------------------------------------------

def complete_square(E: FunctionFieldCurve) -> FunctionFieldCurve:
    """y^2 = x^3 + (b2/4) x^2 + (b4/2) x + b6/4: E with y + (a1 x + a3)/2 for y."""
    b2, b4, b6, _ = E.invariants()
    return FunctionFieldCurve(Poly(), b2 * Fraction(1, 4), Poly(),
                              b4 * Fraction(1, 2), b6 * Fraction(1, 4))


def _psi2(P: SectionPoint, E: FunctionFieldCurve) -> PolyRatio:
    """psi2 = 2y + a1 x + a3 over dx dy."""
    nx, dx, ny, dy = P.x.num, P.x.den, P.y.num, P.y.den
    return PolyRatio(2 * ny * dx + E.a1 * nx * dy + E.a3 * dx * dy, dx * dy)


def _dfdx(P: SectionPoint, E: FunctionFieldCurve) -> PolyRatio:
    """dF/dx = 3x^2 + 2 a2 x + a4 - a1 y over dx^2 dy."""
    nx, dx, ny, dy = P.x.num, P.x.den, P.y.num, P.y.den
    return PolyRatio((3 * nx * nx + 2 * E.a2 * nx * dx + E.a4 * dx * dx) * dy
                     - E.a1 * ny * dx * dx, dx * dx * dy)


def to_completed_square(P: SectionPoint, E: FunctionFieldCurve) -> SectionPoint:
    """P on complete_square(E): y + (a1 x + a3)/2 = psi2/2 for y."""
    psi2 = _psi2(P, E)
    return SectionPoint(P.x, PolyRatio(psi2.num, 2 * psi2.den))


def plus_two_torsion(P: SectionPoint, b: Poly) -> SectionPoint:
    """(x, y) + (0, 0) = (b/x, -b y/x^2) on y^2 = x(x^2 + a x + b), x != 0
    (Silverman & Tate, Rational Points on Elliptic Curves, III.4)."""
    nx, dx, ny, dy = P.x.num, P.x.den, P.y.num, P.y.den
    return SectionPoint(PolyRatio(b * dx, nx), PolyRatio(-b * ny * dx * dx, dy * nx * nx))


# the claims on the images of (a, b, x(P), x(Q), y(Q), r); q+- = 2 x(Q) + a
# +- 2 y(Q)/r is 0, never a witness, where r = 0 mod p
HALVING_CLAIMS = {
    "a^2-4b": ((0, 1), lambda p, a, b: a * a - 4 * b),
    "x(Pb)": ((2,), lambda p, x: x),
    "q+": ((0, 3, 4, 5), lambda p, a, x, y, r: r and 2 * x + a + 2 * y * pow(r, -1, p)),
    "q-": ((0, 3, 4, 5), lambda p, a, x, y, r: r and 2 * x + a - 2 * y * pow(r, -1, p)),
}


def halving_witnesses(P: SectionPoint, r: PolyRatio,
                      E: FunctionFieldCurve) -> tuple[bool, dict]:
    """Whether x(Q) = r^2, and `nonsquare_witnesses` for HALVING_CLAIMS, for
    Pb the section P of E on complete_square(E): y^2 = x(x^2 + a x + b) and
    Q = Pb + (0, 0) there, after checking P on E.

    x(Q) = b dx/nx and r^2 are compared cross-multiplied.  x(Pb) no square
    puts P outside 2E(K).  With a^2 - 4b no square and
    x(Q) = r^2, Q = [2]R needs one of q+- to be a square, so witnesses for
    both put Q, P plus a 2-torsion point, outside 2E(K) too.
    """
    if P.x.num.is_zero() or not verify_on_curve(P, E):
        raise ValueError("point is not an affine point of the curve with x != 0")
    Eb = complete_square(E)
    if not Eb.a6.is_zero():
        raise ValueError("completed square is not in the form y^2 = x(x^2 + ax + b)")
    Pb = to_completed_square(P, E)
    Q = plus_two_torsion(Pb, Eb.a4)
    square = Q.x.num * r.den * r.den == r.num * r.num * Q.x.den
    return square, nonsquare_witnesses((Eb.a2, Eb.a4, Pb.x, Q.x, Q.y, r), HALVING_CLAIMS)


# ---------------------------------------------------------------------------
# Intersection with the zero section
# ---------------------------------------------------------------------------

def zero_intersection(P: SectionPoint, places) -> int:
    """(P.O): half the total pole order of x(P) over all places, read by
    `valuation`, so a factor common to num and den counts nothing.

    The finite poles are read at the given places (each of degree deg, a pole
    of order 2e counts e deg).  Off them den must divide num, which leaves x
    no pole there.  The place at infinity is read at the weight 2 of x.
    Every pole of a section has even order.
    """
    x, rest, orders = P.x, P.x.den, []
    for pl in places:
        orders.append((valuation(x, pl, 2), pl.degree()))
        rest = rest // pl.poly ** poly_valuation(rest, pl.poly)
    if not (x.num % rest).is_zero():
        raise VerificationError("x may have a pole off the given places")
    orders.append((valuation(x, Place.infinity(), 2), 1))
    if any(v < 0 and v % 2 for v, _ in orders):
        raise VerificationError("odd pole order in x at a place")
    return sum(-v // 2 * deg for v, deg in orders if v < 0)


def contribution(m: int, j: int) -> Fraction:
    """Local height correction j(m-j)/m for an I_m fiber."""
    if not 0 <= j < m:
        raise ValueError(f"component index {j} out of range for I_{m}")
    return Fraction(j * (m - j), m)


# ---------------------------------------------------------------------------
# Local heights and the canonical height
# ---------------------------------------------------------------------------

# chi(O) of a K3 surface; the Euler numbers m of its I_m fibers sum to 12 chi
K3_CHI = 2

# What the local-height rule read at one fiber: m of its I_m, the valuations
# at the section of psi2 = 2y + a1 x + a3 and of dF/dx = 3x^2 + 2 a2 x + a4 -
# a1 y (None for +infinity), and the component M met
FiberReading = namedtuple("FiberReading", "place m v_psi2 v_dfdx component")


@lru_cache(maxsize=None)
def family_curve(k: int) -> FunctionFieldCurve:
    """y^2 + (s^2 - k s + 1) xy = x (x - 1)(x + s^2 - k s)."""
    return FunctionFieldCurve.from_coeffs(Poly([1, -k, 1]), Poly([-1, -k, 1]), 0,
                                          Poly([0, k, -1]), 0)


@lru_cache(maxsize=None)
def _fiber_places(k: int, fibers: tuple) -> tuple:
    """The place of each entry of a fiber record, after checking Silverman's
    hypothesis there: v(c4) = 0 and v(disc) = m on family_curve(k), so the
    fiber is I_m.  The places over an entry's sigma-polynomial are those of
    `Place.over` (infinity for sigma None): conjugate entries share one place
    of their degree, or take one root each.  The m must sum to 12 chi."""
    b2, b4, _, disc = family_curve(k).invariants()
    one, out = Poly([1]), {}
    c4, disc = PolyRatio(b2 * b2 - 24 * b4, one), PolyRatio(disc, one)
    for sigma in dict.fromkeys(f.sigma for f in fibers):
        entries = [f for f in fibers if f.sigma == sigma]
        places = [Place.infinity()] if sigma is None else Place.over(Poly(sigma))
        if sum(pl.degree() for pl in places) != len(entries):
            raise VerificationError(f"{[f.place for f in entries]} do not match "
                                    f"the places over {places}")
        for f, pl in zip(entries, places * (len(entries) // len(places))):
            v_c4, v_disc = valuation(c4, pl, 4), valuation(disc, pl, 12)
            if v_c4 != 0 or v_disc != f.m:
                raise VerificationError(f"{f.place}: v(c4) = {v_c4}, v(disc) = {v_disc}; "
                                        f"not a multiplicative fiber I_{f.m}")
            out[f.place] = pl
    if sum(f.m for f in fibers) != 12 * K3_CHI:
        raise VerificationError(f"the fibers' m sum to {sum(f.m for f in fibers)}")
    return tuple(out[f.place] for f in fibers)


def section_height(surf, P: SectionPoint,
                   po: int) -> tuple[Fraction, list[FiberReading]]:
    """Canonical height 2 chi + 2 (P.O) - sum M(m - M)/m of a section of
    family_curve(k), k = surf.k, that meets the zero section po = (P.O)
    times, with one reading per entry of the `Surface` record's fibers.

    M is the component of the I_m fiber that P meets, by Silverman,
    "Computing heights on elliptic curves", Math. Comp. 51 (1988), Thm 5.2,
    multiplicative case: M = min(v(psi2), m // 2) if v(x) >= 0, v(psi2) > 0
    and v(dF/dx) > 0, else 0.  x, psi2 and dF/dx are formed once on
    family_curve(k), as pairs, and read by `valuation` at their weights."""
    k, fibers, E = surf.k, surf.fibers, family_curve(surf.k)
    if not verify_on_curve(P, E):
        raise ValueError("point is not on the curve")
    fns, vals, readings = ((P.x, 2), (_psi2(P, E), 3), (_dfdx(P, E), 4)), {}, []
    for f, place in zip(fibers, _fiber_places(k, fibers)):
        if place not in vals:  # conjugate entries share a reading
            vals[place] = [valuation(g, place, w) for g, w in fns]
        v_x, v_psi2, v_dfdx = vals[place]
        M = min(v_psi2, f.m // 2) if v_x >= 0 and v_psi2 > 0 and v_dfdx > 0 else 0
        readings.append(FiberReading(f.place, f.m, *(
            None if v == math.inf else v for v in (v_psi2, v_dfdx)), M))
    return 2 * K3_CHI + 2 * po - sum(
        contribution(r.m, r.component) for r in readings), readings


def subchecks(surf):
    """Yield `verify`'s section stages of a `Surface` record, as (stage, its subchecks)."""
    E = family_curve(surf.k)
    ps, places, r = record_section(surf)
    on_curve = verify_on_curve(ps, E)
    yield "on_curve", [{"name": "infinite-section-on-curve", "pass": on_curve,
                        "provenance": "exact Weierstrass identity"}]
    if not on_curve:  # every later stage reads the section as a point of E
        return

    wit = verify_nontorsion(ps, E, surf.torsion)
    yield "nontorsion", [{"name": "section-nontorsion", "pass": wit is not None,
                          "provenance": "specialization at sigma=t, reduction mod p",
                          "witness": wit and wit._asdict()}]

    if r is not None:
        square, wits = halving_witnesses(ps, r, E)
        yield "halving", [{
            "name": "halving-obstruction", "pass": square and None not in wits.values(),
            "provenance": "x(Q) = r^2 exactly; a^2 - 4b, x(Pb), q+ and q- are "
                          "non-residues at sigma=t mod p, p = 1 mod 3",
            "witness": {name: w and w._asdict() for name, w in wits.items()}}]

    po = zero_intersection(ps, places)
    height = Fraction(*surf.height)
    # Shioda's h = 2 chi + 2 (P.O) - sum j(m - j)/m, solved for (P.O)
    local = sum(contribution(f.m, f.j) for f in surf.fibers)
    yield "zero_intersection", [{
        "name": "zero-section-intersection", "pass": po == (height - 2 * K3_CHI + local) / 2,
        "provenance": "pole-degree count", "value": po}]

    try:
        h, readings, error = *section_height(surf, ps, po), {}
    except VerificationError as exc:   # the record contradicts the curve
        h, readings, error = None, [], {"error": str(exc)}
    comps = {r.place: r.component for r in readings}
    terms = [f"{r.component * (r.m - r.component)}/{r.m}" for r in readings if r.component]
    yield "height", [
        {"name": "neron-components", "pass": comps == {f.place: f.j for f in surf.fibers},
         "provenance": "Silverman's multiplicative rule at the record's fibers, "
                       "v(c4) = 0 and v(disc) = m checked",
         "components": comps, **error,
         "witness": {r.place: dict(zip(("m", "v_psi2", "v_dfdx", "M"), r[1:]))
                     for r in readings}},
        {"name": "height", "pass": h == height,
         "provenance": " - ".join([f"2*{K3_CHI} + 2*{po}", *terms]), "value": str(h)},
        {"name": "height-vs-lattice-det", "pass": h is not None and 12 * h == surf.level,
         "provenance": "12 * h(P) = |det T|", "value": str(h and 12 * h)},
    ]
