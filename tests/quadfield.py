"""Q(sqrt(-3)) on Fractions: the oracle the integer carrier of
`k3mahler.exactalg` is checked against.

``QuadElem`` is the field element a + b*sqrt(-3) with rational a and b, and
``is_square_quad`` its square test.  The package keeps an element of the
field as a constant ``Poly`` on integers; ``poly`` builds a Poly from
QuadElems and ``coeffs`` reads its coefficients back as QuadElems, so that
``horner``, ``reduce_fraction`` and ``split_rule`` replay on Fractions what
``Poly.at``, ``reduce_mod_p`` and ``Place.over`` do on integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from k3mahler.exactalg import Poly


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected rational, got {type(v).__name__}")


def sqrt_fraction(q: Fraction) -> Fraction | None:
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

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0):
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

    def norm(self) -> Fraction:
        """x * conj(x) = a^2 + 3 b^2 (nonnegative, zero iff x = 0)."""
        return self.a * self.a + 3 * self.b * self.b

    # -- predicates / dunders ----------------------------------------------
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

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


def is_square_quad(c) -> tuple[bool, QuadElem | None]:
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
# Polys through QuadElems
# ---------------------------------------------------------------------------

def poly(cs) -> Poly:
    """The Poly with coefficients cs (QuadElems, ints or Fractions), constant
    term first."""
    return Poly((c.a, c.b) if isinstance(c, QuadElem) else c for c in cs)


def coeffs(f: Poly) -> tuple:
    """The coefficients of f as QuadElems, constant term first."""
    return tuple(QuadElem(Fraction(a, f._den), Fraction(b, f._den))
                 for a, b in zip(f._re, f._im))


def horner(f: Poly, t) -> QuadElem:
    """f at sigma = t by Horner's rule on QuadElems: the oracle of Poly.at."""
    t, acc = QuadElem.coerce(t), ZERO
    for c in reversed(coeffs(f)):
        acc = acc * t + c
    return acc


def reduce_fraction(c: QuadElem, p: int, w: int | None) -> int | None:
    """Image of c in F_p under sqrt(-3) -> w (w * w = -3 mod p; None when c
    is rational); None if p divides a denominator of c: the oracle of
    reduce_mod_p."""
    if c.a.denominator % p == 0 or c.b.denominator % p == 0:
        return None
    v = c.a.numerator * pow(c.a.denominator, -1, p)
    if c.b:
        v += c.b.numerator * pow(c.b.denominator, -1, p) * w
    return v % p


def split_rule(f: Poly) -> list[Poly]:
    """The monic polynomials of the places over f of degree 1 or 2, on
    QuadElems: sigma - (w - b)/2 and sigma - (-w - b)/2 for monic
    sigma^2 + b sigma + c whose discriminant has the canonical root w, else
    monic f itself.  The oracle of Place.over."""
    f = f.monic()
    if f.degree() == 2:
        c, b, _ = coeffs(f)
        ok, w = is_square_quad(b * b - 4 * c)
        if ok:
            return [poly([-(w - b) / 2, 1]), poly([-(-w - b) / 2, 1])]
    return [f]
