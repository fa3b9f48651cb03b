"""Exact arithmetic over Q(sqrt(-3)) and the rational function field Q(sqrt(-3))(sigma).

Elements of the quadratic field are ``QuadElem`` values a + b*sqrt(-3) with
rational a, b.  Polynomials in one variable sigma are dense coefficient lists
(lowest degree first), and ``RatFunc`` keeps a numerator/denominator pair in a
canonical form: denominator monic, gcd(num, den) = 1.  Everything here is
immutable and exact; no floating point enters this module.

Places of the function field are monic irreducible polynomials plus the place
at infinity.  Irreducibility is decided for degrees <= 2 (via the square test
on the discriminant); higher-degree polynomials are rejected.

Square tests take a candidate root and one exact squaring: a square root is
unique up to sign, so ``poly_sqrt`` solves the only candidate from the top
half of the coefficients and proves the answer by multiplying it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .pointcount import is_prime

D = -3  # square-free discriminant tag of the coefficient field

Rational = Union[int, Fraction]


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected rational, got {type(v).__name__}")


def sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if not a square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class QuadElem:
    """An element a + b*sqrt(-3) of Q(sqrt(-3)), with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, *_):
        raise AttributeError("QuadElem is immutable")

    # -- coercion helpers -------------------------------------------------
    @staticmethod
    def coerce(v) -> "QuadElem":
        if isinstance(v, QuadElem):
            return v
        if isinstance(v, (int, Fraction)):
            return QuadElem(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to QuadElem")

    # -- ring/field operations --------------------------------------------
    @staticmethod
    def _try_coerce(v):
        if isinstance(v, QuadElem):
            return v
        if isinstance(v, (int, Fraction)):
            return QuadElem(v)
        return None

    def __add__(self, other):
        o = QuadElem._try_coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b)

    def __sub__(self, other):
        o = QuadElem._try_coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = QuadElem._try_coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = QuadElem._try_coerce(other)
        if o is None:
            return NotImplemented
        # (a + b w)(c + d w) with w^2 = -3
        return QuadElem(self.a * o.a - 3 * self.b * o.b,
                        self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inv(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(sqrt(-3))")
        return QuadElem(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = QuadElem._try_coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = QuadElem._try_coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result, base = QuadElem(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "QuadElem":
        return QuadElem(self.a, -self.b)

    def norm(self) -> Fraction:
        """x * conj(x) = a^2 + 3 b^2 (nonnegative, zero iff x = 0)."""
        return self.a * self.a + 3 * self.b * self.b

    # -- predicates / dunders ----------------------------------------------
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        try:
            o = QuadElem.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*w"
        return f"({self.a} + {self.b}*w)"


ZERO = QuadElem(0)
ONE = QuadElem(1)
SQRT_M3 = QuadElem(0, 1)  # sqrt(-3)


def is_square_quad(c) -> tuple[bool, Optional[QuadElem]]:
    """Decide whether c is a square in Q(sqrt(-3)); return (flag, witness).

    Solves w^2 = c for w = u + v*sqrt(-3): u^2 - 3 v^2 = Re(c), 2uv = Im(c).
    The witness (when it exists) is canonicalized so that its first nonzero
    component is positive.
    """
    c = QuadElem.coerce(c)
    if c.is_zero():
        return True, QuadElem(0)
    if c.b == 0:
        u = sqrt_fraction(c.a)
        if u is not None:
            return True, QuadElem(u)
        v = sqrt_fraction(c.a / -3)
        if v is not None:
            return True, QuadElem(0, v)
        return False, None
    # b != 0: need norm(c) = t^2 with t rational, then u^2 = (a + t)/2
    t = sqrt_fraction(c.norm())
    if t is None:
        return False, None
    for tt in (t, -t):
        u2 = (c.a + tt) / 2
        u = sqrt_fraction(u2)
        if u is not None and u != 0:
            v = c.b / (2 * u)
            w = QuadElem(u, v)
            if w.a < 0 or (w.a == 0 and w.b < 0):
                w = -w
            return True, w
    return False, None


# ---------------------------------------------------------------------------
# Polynomials over Q(sqrt(-3))
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over Q(sqrt(-3)), lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        lst = [QuadElem.coerce(c) for c in coeffs]
        while lst and lst[-1].is_zero():
            lst.pop()
        object.__setattr__(self, "coeffs", tuple(lst))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def coerce(v) -> "Poly":
        if isinstance(v, Poly):
            return v
        if isinstance(v, (int, Fraction, QuadElem)):
            return Poly([v])
        raise TypeError(f"cannot coerce {type(v).__name__} to Poly")

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return Poly([0] * power + [1])

    # -- basic queries -------------------------------------------------------
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self) -> QuadElem:
        if not self.coeffs:
            return ZERO
        return self.coeffs[-1]

    def constant(self) -> QuadElem:
        """Value as a field constant (degree <= 0 required)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else ZERO

    def __getitem__(self, i: int) -> QuadElem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZERO

    # -- arithmetic -----------------------------------------------------------
    @staticmethod
    def _try_coerce(v):
        if isinstance(v, Poly):
            return v
        if isinstance(v, (int, Fraction, QuadElem)):
            return Poly([v])
        return None

    def __add__(self, other):
        o = Poly._try_coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly([self[i] + o[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = Poly._try_coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Poly._try_coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = Poly._try_coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly()
        out = [ZERO] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(o.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Poly")
        result, base = Poly([1]), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        o = Poly.coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly(), self
        inv_lc = o.lc().inv()
        quot = [ZERO] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + o.degree()] * inv_lc
            quot[i] = c
            if not c.is_zero():
                for j, oc in enumerate(o.coeffs):
                    rem[i + j] = rem[i + j] - c * oc
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        try:
            o = Poly.coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    # -- calculus / structure --------------------------------------------------
    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv_lc = self.lc().inv()
        return Poly([c * inv_lc for c in self.coeffs])

    def eval(self, point) -> QuadElem:
        p = QuadElem.coerce(point)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def reverse(self, n: Optional[int] = None) -> "Poly":
        """sigma^n * f(1/sigma) as a polynomial; n defaults to deg f."""
        if self.is_zero():
            return self
        if n is None:
            n = self.degree()
        if n < self.degree():
            raise ValueError("reversal order below degree")
        out = [ZERO] * (n + 1)
        for i, c in enumerate(self.coeffs):
            out[n - i] = c
        return Poly(out)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                terms.append(f"({c!r})*s^{i}" if i else f"({c!r})")
        return "Poly[" + " + ".join(terms) + "]"


def _integerize_primitive(f: Poly) -> Poly:
    """Scale f by a rational so the coefficients land in Z[sqrt(-3)] with
    integer content 1 (keeps the remainder sequences small)."""
    if f.is_zero():
        return f
    den = 1
    for c in f.coeffs:
        den = den * c.a.denominator // math.gcd(den, c.a.denominator)
        den = den * c.b.denominator // math.gcd(den, c.b.denominator)
    num = 0
    for c in f.coeffs:
        num = math.gcd(num, abs(c.a.numerator * (den // c.a.denominator)))
        num = math.gcd(num, abs(c.b.numerator * (den // c.b.denominator)))
    scale = Fraction(den, num)
    return Poly([c * scale for c in f.coeffs])


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, division-free."""
    db = b.degree()
    lcb = b.lc()
    r = a
    n = a.degree() - db + 1
    while not r.is_zero() and r.degree() >= db:
        shift = r.degree() - db
        lcr = r.lc()
        r = Poly([lcb * c for c in r.coeffs]) \
            - Poly([ZERO] * shift + [lcr * c for c in b.coeffs])
        n -= 1
    if n > 0:
        s = lcb ** n
        r = Poly([s * c for c in r.coeffs])
    return r


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


_MODP_PRIMES: Optional[list] = None


def _modp_primes() -> list[tuple[int, int]]:
    global _MODP_PRIMES
    if _MODP_PRIMES is None:
        _MODP_PRIMES = _find_modp_primes()
    return _MODP_PRIMES


def reduce_mod_p(c: QuadElem, p: int, w: Optional[int]) -> Optional[int]:
    """Image of c in F_p under sqrt(-3) -> w (w * w = -3 mod p; None when c
    is rational); None if p divides a denominator of c."""
    if c.a.denominator % p == 0 or c.b.denominator % p == 0:
        return None
    v = c.a.numerator * pow(c.a.denominator, -1, p)
    if c.b:
        v += c.b.numerator * pow(c.b.denominator, -1, p) * w
    return v % p


def _map_mod_p(f: Poly, p: int, w: int) -> Optional[list[int]]:
    """Image of f in F_p[x] under sqrt(-3) -> w; None if p hits a denominator."""
    out = [reduce_mod_p(c, p, w) for c in f.coeffs]
    return None if None in out else out


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
        if len(fa) - 1 != a.degree() or len(fb) - 1 != b.degree():
            continue  # leading coefficient vanished: degree unreliable
        if fa[-1] % p == 0 or fb[-1] % p == 0:
            continue
        return _gcd_degree_mod_p(fa, fb, p) == 0
    return False


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q(sqrt(-3)) via the subresultant remainder sequence.

    A mod-p image first certifies the (typical) coprime case in O(deg^2)
    word operations; otherwise the Collins subresultant PRS keeps the
    coefficient growth polynomial where plain Euclid explodes.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return Poly([1])
    if _definitely_coprime(f, g):
        return Poly([1])
    a, b = _integerize_primitive(f), _integerize_primitive(g)
    if a.degree() < b.degree():
        a, b = b, a
    gg: QuadElem = ONE
    hh: QuadElem = ONE
    while True:
        delta = a.degree() - b.degree()
        r = _pseudo_rem(a, b)
        if r.is_zero():
            return _integerize_primitive(b).monic()
        if r.is_constant():
            return Poly([1])
        scale = (gg * hh ** delta).inv()
        a, b = b, Poly([scale * c for c in r.coeffs])
        gg = a.lc()
        hh = hh * (gg / hh) ** delta if delta else hh


def poly_sqrt(f: Poly) -> Optional[Poly]:
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
    ok, w = is_square_quad(f.lc())
    if not ok:
        return None
    n = f.degree() // 2
    g = [ZERO] * n + [w]
    inv_2w = (2 * w).inv()
    for i in range(n - 1, -1, -1):
        s = f[n + i]
        for j in range(i + 1, n):
            s = s - g[j] * g[n + i - j]
        g[i] = s * inv_2w
    root = Poly(g)
    return root if root * root == f else None


# ---------------------------------------------------------------------------
# Places and rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Place:
    """A place of Q(sqrt(-3))(sigma): a monic irreducible polynomial, or infinity."""

    poly: Optional[Poly]  # None encodes the place at infinity

    @staticmethod
    def finite(poly) -> "Place":
        p = Poly.coerce(poly).monic()
        if p.degree() < 1:
            raise ValueError("finite place needs a nonconstant polynomial")
        if p.degree() == 1:
            return Place(p)
        if p.degree() == 2:
            # reducible iff the discriminant is a square in Q(sqrt(-3))
            b, c = p[1], p[0]
            disc = b * b - 4 * c
            ok, _ = is_square_quad(disc)
            if ok:
                raise ValueError("degree-2 polynomial is reducible over Q(sqrt(-3))")
            return Place(p)
        raise ValueError("irreducibility undecided for degree > 2")

    @staticmethod
    def at_root(r) -> "Place":
        """The degree-1 place sigma - r."""
        return Place.finite(Poly([-QuadElem.coerce(r), 1]))

    @staticmethod
    def infinity() -> "Place":
        return Place(None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree()

    def __repr__(self):
        return "Place(inf)" if self.poly is None else f"Place({self.poly!r})"


def poly_valuation(f: Poly, pi: Poly) -> int:
    """Multiplicity of the irreducible pi in f (f nonzero)."""
    if f.is_zero():
        raise ValueError("valuation of the zero polynomial")
    v = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero():
            return v
        f = q
        v += 1


class RatFunc:
    """Quotient of two Polys in canonical form: monic denominator, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        n, d = Poly.coerce(num), Poly.coerce(den)
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero():
            n, d = Poly(), Poly([1])
        else:
            g = poly_gcd(n, d)
            if g.degree() > 0:
                n, d = n // g, d // g
            u = d.lc().inv()
            n = Poly([c * u for c in n.coeffs])
            d = Poly([c * u for c in d.coeffs])
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
        elif d.lc() != ONE:
            u = d.lc().inv()
            n = Poly([c * u for c in n.coeffs])
            d = Poly([c * u for c in d.coeffs])
        object.__setattr__(obj, "num", n)
        object.__setattr__(obj, "den", d)
        return obj

    @staticmethod
    def coerce(v) -> "RatFunc":
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (Poly, QuadElem, int, Fraction)):
            return RatFunc(Poly.coerce(v))
        raise TypeError(f"cannot coerce {type(v).__name__} to RatFunc")

    @staticmethod
    def x() -> "RatFunc":
        return RatFunc(Poly.x())

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
        return self.num.is_constant() and self.den.is_constant()

    def constant(self) -> QuadElem:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        return self.num.constant()

    def eval(self, point) -> QuadElem:
        p = QuadElem.coerce(point)
        d = self.den.eval(p)
        if d.is_zero():
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.eval(p) / d

    def substitute_reciprocal(self) -> "RatFunc":
        """f(1/sigma) as a rational function of sigma."""
        dn, dd = self.num.degree(), self.den.degree()
        if self.is_zero():
            return self
        m = max(dn, dd)
        # reversal of a coprime pair stays coprime (x cannot divide both)
        return RatFunc._raw(self.num.reverse(m), self.den.reverse(m))

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


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


def sqrt_ratfunc(f: RatFunc) -> Optional[RatFunc]:
    """A rational function r with r^2 = f, or None if f is not a square.

    num and den are coprime and den is monic, so f is a square exactly when
    both are; their roots are coprime too, and the root of den is monic.
    """
    f = RatFunc.coerce(f)
    if f.is_zero():
        return RatFunc(0)
    n = poly_sqrt(f.num)
    d = poly_sqrt(f.den)
    if n is None or d is None:
        return None
    return RatFunc._raw(n, d)


def is_square_ratfunc(f: RatFunc) -> bool:
    """True iff f = g^2 for some g in Q(sqrt(-3))(sigma); raises on f = 0."""
    f = RatFunc.coerce(f)
    if f.is_zero():
        raise ValueError("squareness of the zero function is undefined")
    return sqrt_ratfunc(f) is not None
