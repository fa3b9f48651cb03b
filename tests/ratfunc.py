"""Rational functions of Q(sqrt(-3))(sigma) in lowest terms, and the gcd
that keeps them there: the reference arithmetic of the tests.

``RatFunc`` keeps a numerator/denominator pair of polynomials in canonical
form: denominator monic, gcd(num, den) = 1.  ``poly_gcd`` runs the Collins
subresultant remainder sequence on the integer pseudo-division kernel of
`k3mahler.exactalg`, after a mod-p image has had the chance to certify the
(typical) coprime case.  The package itself keeps sections as unreduced
(num, den) pairs and never takes a gcd; the printed Neron-model route
(`neron_printed`), the chord-tangent group law (`grouplaw`) and the
Fraction-oracle kernel checks divide by rational functions and need one.
``poly_sqrt`` decides squares of polynomials, ``valuation`` reads the
order of a RatFunc at a place, and ``reverse`` forms sigma^n f(1/sigma).
``RatFunc.at`` reads a value at sigma = t as the package reads one, a
constant Poly, so a RatFunc serves as a coordinate of a section.
"""

from __future__ import annotations

import math
from fractions import Fraction

from k3mahler.exactalg import Place, Poly, _poly, _pseudo_divide, _scale, poly_valuation
from k3mahler.pointcount import is_prime
from quadfield import ZERO, QuadElem, coeffs, is_square_quad, poly


def _integerize_primitive(f: Poly) -> Poly:
    """Scale f by a rational so the coefficients land in Z[sqrt(-3)] with
    integer content 1 (keeps the remainder sequences small)."""
    if f.is_zero():
        return f
    g = math.gcd(*f._re, *f._im)
    return _poly([v // g for v in f._re], [v // g for v in f._im])


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, the remainder the
    subresultant sequence is built on.

    With a = A / da, b = B / db and c = lc(B), the kernel gives
    s A = Q B + R, so a mod b = R / (s da) and
    prem(a, b) = c^n R / (db^n s da): one kernel call, one normalisation.
    """
    n = a.degree() - b.degree() + 1
    if n <= 0:
        return a
    cr, ci = b._re[-1], b._im[-1]
    _, _, rr, ri, s = _pseudo_divide(a._re, a._im, b._re, b._im)
    pr, pi = 1, 0
    for _ in range(n):
        pr, pi = pr * cr - 3 * pi * ci, pr * ci + pi * cr
    rr, ri = _scale(rr, ri, pr, pi)
    return _poly(rr, ri, s * a._den * b._den ** n)


def _find_modp_primes() -> list[tuple[int, int]]:
    """Primes p = 7 mod 12 (so -3 is a QR with an easy square root) paired
    with w = sqrt(-3) mod p, for the fast coprimality certificate."""
    out = []
    p = (1 << 30) + 7 - ((1 << 30) + 7) % 12 + 7
    while len(out) < 3:
        if is_prime(p):
            w = pow(p - 3, (p + 1) // 4, p)
            if w * w % p == p - 3:
                out.append((p, w))
        p += 12
    return out


_MODP_PRIMES: list | None = None


def _modp_primes() -> list[tuple[int, int]]:
    global _MODP_PRIMES
    if _MODP_PRIMES is None:
        _MODP_PRIMES = _find_modp_primes()
    return _MODP_PRIMES



def _map_mod_p(f: Poly, p: int, w: int) -> list[int] | None:
    """Image of f in F_p[x] under sqrt(-3) -> w; None if p hits a denominator
    (p divides the common denominator exactly when it divides one of the
    coefficient denominators)."""
    if f._den % p == 0:
        return None
    inv = pow(f._den, -1, p)
    return [(a + b * w) * inv % p for a, b in zip(f._re, f._im)]


def _gcd_degree_mod_p(fa: list[int], fb: list[int], p: int) -> int:
    a, b = fa[:], fb[:]

    def trim(v):
        while v and v[-1] % p == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) - 1 >= db and a:
            shift = len(a) - 1 - db
            c = a[-1] * inv % p
            for i, bc in enumerate(b):
                a[i + shift] = (a[i + shift] - c * bc) % p
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def _definitely_coprime(a: Poly, b: Poly) -> bool:
    """True only when a mod-p image certifies gcd(a, b) = 1."""
    for p, w in _modp_primes():
        fa = _map_mod_p(a, p, w)
        fb = _map_mod_p(b, p, w)
        if fa is None or fb is None:
            continue
        if fa[-1] == 0 or fb[-1] == 0:
            continue  # leading coefficient vanished: degree unreliable
        return _gcd_degree_mod_p(fa, fb, p) == 0
    return False


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q(sqrt(-3)) via the subresultant remainder sequence.

    A mod-p image first certifies the (typical) coprime case in O(deg^2)
    word operations; otherwise the Collins subresultant PRS keeps the
    coefficient growth polynomial where plain Euclid explodes.  Its
    pseudo-remainders come from the integer division kernel.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.degree() <= 0 or g.degree() <= 0:
        return Poly([1])
    if _definitely_coprime(f, g):
        return Poly([1])
    a, b = _integerize_primitive(f), _integerize_primitive(g)
    if a.degree() < b.degree():
        a, b = b, a
    gg: QuadElem = QuadElem(1)
    hh: QuadElem = QuadElem(1)
    while True:
        delta = a.degree() - b.degree()
        r = _pseudo_rem(a, b)
        if r.is_zero():
            return b.monic()
        if r.degree() <= 0:
            return Poly([1])
        a, b = b, r * poly([(gg * hh ** delta).inv()])
        gg = coeffs(a)[-1]
        hh = hh * (gg / hh) ** delta if delta else hh


def poly_sqrt(f: Poly) -> Poly | None:
    """A polynomial g with g^2 = f, or None if f is not a square.

    A square root is unique up to sign, so the top half of f fixes the only
    candidate: g_n = sqrt(lc f), then for i = n-1, ..., 0 the coefficient of
    sigma^(n+i) gives g_i = (f_(n+i) - sum_(i<j<n) g_j g_(n+i-j)) / (2 g_n).
    The exact product g * g == f is the proof, for "square" and for "not a
    square" alike.
    """
    if f.is_zero():
        return Poly()
    if f.degree() % 2:
        return None
    fs = coeffs(f)
    ok, w = is_square_quad(fs[-1])
    if not ok:
        return None
    n = f.degree() // 2
    g = [ZERO] * n + [w]
    inv_2w = (2 * w).inv()
    for i in range(n - 1, -1, -1):
        s = fs[n + i]
        for j in range(i + 1, n):
            s = s - g[j] * g[n + i - j]
        g[i] = s * inv_2w
    root = poly(g)
    return root if root * root == f else None



def _as_poly(v) -> Poly:
    return poly([v]) if isinstance(v, QuadElem) else Poly.coerce(v)


class RatFunc:
    """Quotient of two Polys in canonical form: monic denominator, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        n, d = _as_poly(num), _as_poly(den)
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero():
            n, d = Poly(), Poly([1])
        else:
            g = poly_gcd(n, d)
            if g.degree() > 0:
                n, d = n // g, d // g
            n, d = n * poly([coeffs(d)[-1].inv()]), d.monic()
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def _raw(n: Poly, d: Poly) -> "RatFunc":
        # fast path: gcd(n, d) = 1 and d != 0 are the caller's responsibility
        obj = object.__new__(RatFunc)
        if n.is_zero():
            n, d = Poly(), Poly([1])
        elif (lc := coeffs(d)[-1]) != 1:
            n, d = n * poly([lc.inv()]), d.monic()
        object.__setattr__(obj, "num", n)
        object.__setattr__(obj, "den", d)
        return obj

    @staticmethod
    def coerce(v) -> "RatFunc":
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (Poly, QuadElem, int, Fraction)):
            return RatFunc(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to RatFunc")

    @staticmethod
    def x() -> "RatFunc":
        return RatFunc(Poly([0, 1]))

    # -- arithmetic ------------------------------------------------------------
    # Operands are always in lowest terms, so cancellations are arranged so
    # that the results are too; the gcds below act on small common parts.
    def __add__(self, other):
        o = RatFunc.coerce(other)
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if d1 == d2:
            num = n1 + n2
            if num.is_zero():
                return RatFunc._raw(Poly(), Poly([1]))
            g = poly_gcd(num, d1)
            if g.degree() > 0:
                return RatFunc._raw(num // g, d1 // g)
            return RatFunc._raw(num, d1)
        g = poly_gcd(d1, d2)
        if g.degree() == 0:
            return RatFunc._raw(n1 * d2 + n2 * d1, d1 * d2)
        d1r, d2r = d1 // g, d2 // g
        num = n1 * d2r + n2 * d1r
        if num.is_zero():
            return RatFunc._raw(Poly(), Poly([1]))
        h = poly_gcd(num, g)
        if h.degree() > 0:
            num, g = num // h, g // h
        return RatFunc._raw(num, d1r * d2r * g)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other):
        return RatFunc.coerce(other) + (-self)

    def __mul__(self, other):
        o = RatFunc.coerce(other)
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if n1.is_zero() or n2.is_zero():
            return RatFunc._raw(Poly(), Poly([1]))
        g1 = poly_gcd(n1, d2)
        if g1.degree() > 0:
            n1, d2 = n1 // g1, d2 // g1
        g2 = poly_gcd(n2, d1)
        if g2.degree() > 0:
            n2, d1 = n2 // g2, d1 // g2
        return RatFunc._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc._raw(self.den, self.num)

    def __truediv__(self, other):
        return self * RatFunc.coerce(other).inv()

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return RatFunc(1)
        return RatFunc._raw(self.num ** n, self.den ** n)

    def __eq__(self, other):
        try:
            o = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() <= 0

    def constant(self) -> QuadElem:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        return (coeffs(self.num) or (ZERO,))[0]

    def at(self, t: int) -> Poly:
        """The value at sigma = t, a constant, as `mwsections.PolyRatio.at`
        reads a coordinate; ZeroDivisionError at a pole."""
        return self.num.at(t) // self.den.at(t)

    def substitute_reciprocal(self) -> "RatFunc":
        """f(1/sigma) as a rational function of sigma."""
        dn, dd = self.num.degree(), self.den.degree()
        if self.is_zero():
            return self
        m = max(dn, dd)
        # reversal of a coprime pair stays coprime (x cannot divide both)
        return RatFunc._raw(reverse(self.num, m), reverse(self.den, m))

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


def reverse(f: Poly, n: int) -> Poly:
    """sigma^n f(1/sigma), for n >= deg f."""
    if n < f.degree():
        raise ValueError("reversal order below degree")
    return poly([0] * (n - f.degree()) + list(coeffs(f)[::-1]))


def valuation(f: RatFunc, place: Place) -> int:
    """Order of vanishing of f at the place (negative for a pole).

    At infinity this is deg(den) - deg(num).  Raises on the zero function.
    """
    f = RatFunc.coerce(f)
    if f.is_zero():
        raise ValueError("valuation of the zero function is +infinity")
    if place.is_infinite:
        return f.den.degree() - f.num.degree()
    pi = place.poly
    # canonical form has gcd(num, den) = 1, so only one of the two counts
    v = poly_valuation(f.num, pi)
    if v:
        return v
    return -poly_valuation(f.den, pi)
