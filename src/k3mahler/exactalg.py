"""Exact arithmetic over Q(sqrt(-3)) and the rational function field Q(sqrt(-3))(sigma).

Elements of the quadratic field are ``QuadElem`` values a + b*sqrt(-3) with
rational a, b.  ``RatFunc`` keeps a numerator/denominator pair of polynomials
in canonical form: denominator monic, gcd(num, den) = 1.  Everything here is
immutable and exact; no floating point enters this module.

A ``Poly`` in sigma (lowest degree first) is stored as integers: the rational
parts and the sqrt(-3) parts of its coefficients as two integer lists over
one common denominator den > 0, with gcd(den, all numerators) = 1, so that
equal polynomials are stored alike.  All polynomial arithmetic runs on those
integers (w = sqrt(-3), w^2 = -3):

* Products use Kronecker substitution: a coefficient list c becomes the
  integer sum c_i 2^(s i), one big-integer product multiplies two such
  integers, and the slots of the result are the coefficients of the product.
  Every coefficient of (a + b w)(c + d w) is a sum of at most
  n = min(len a, len c) terms, so it is at most 4 n M1 M2 in size (M1, M2 the
  largest |coefficient| of the factors); a slot of bitlen(4 n M1 M2) + 1 bits,
  the extra bit for the sign, holds it.  The slots are signed: read in two's
  complement, a negative slot borrows one from the slot above, so the unpack
  carries that borrow upward.  Three integer products (Karatsuba on the two
  parts) give both parts.  Harvey, "Faster polynomial multiplication via
  multipoint Kronecker substitution", J. Symb. Comput. 44 (2009).
* Division runs one integer pseudo-division kernel.  The divisor is first
  multiplied by the conjugate of its leading coefficient, which makes that
  coefficient a rational integer N; the remainder is scaled only as far as N
  needs to divide its next leading coefficient.  divmod, exact division,
  valuations and the pseudo-remainders of the gcd all go through it.
* ``coeffs`` and ``f[i]`` give the coefficients as QuadElems, built on demand.

Places of the function field are monic irreducible polynomials plus the place
at infinity.  Irreducibility is decided for degrees <= 2 (via the square test
on the discriminant); higher-degree polynomials are rejected.

Square tests take a candidate root and one exact squaring: a square root is
unique up to sign, so ``poly_sqrt`` solves the only candidate from the top
half of the coefficients and proves the answer by multiplying it out.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import zip_longest

from .pointcount import is_prime


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
# Polynomials over Q(sqrt(-3))
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over Q(sqrt(-3)), lowest degree first.

    Stored as (re + im*sqrt(-3)) / den: two integer coefficient tuples of
    one length and a common denominator den > 0 with gcd(den, re, im) = 1, so
    equal polynomials have equal fields.  The zero polynomial has empty
    tuples, den 1 and degree -1.  ``coeffs`` is derived from them.
    """

    __slots__ = ("_re", "_im", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = [QuadElem.coerce(c) for c in coeffs]
        den = math.lcm(1, *(q.denominator for c in cs for q in (c.a, c.b)))
        _init(self, [c.a.numerator * (den // c.a.denominator) for c in cs],
              [c.b.numerator * (den // c.b.denominator) for c in cs], den)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as QuadElems (built on first use, then cached)."""
        if self._coeffs is None:
            d = self._den
            object.__setattr__(self, "_coeffs", tuple(
                QuadElem(Fraction(a, d), Fraction(b, d))
                for a, b in zip(self._re, self._im)))
        return self._coeffs

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
        return _poly([0] * power + [1], [0] * (power + 1))

    # -- basic queries -------------------------------------------------------
    def degree(self) -> int:
        return len(self._re) - 1

    def is_zero(self) -> bool:
        return not self._re

    def is_constant(self) -> bool:
        return len(self._re) <= 1

    def lc(self) -> QuadElem:
        return self[len(self._re) - 1]

    def constant(self) -> QuadElem:
        """Value as a field constant (degree <= 0 required)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self[0]

    def __getitem__(self, i: int) -> QuadElem:
        if 0 <= i < len(self._re):
            return QuadElem(Fraction(self._re[i], self._den),
                            Fraction(self._im[i], self._den))
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
        return _add(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-v for v in self._re], [-v for v in self._im], self._den)

    def __sub__(self, other):
        o = Poly._try_coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o, -1)

    def __rsub__(self, other):
        o = Poly._try_coerce(other)
        if o is None:
            return NotImplemented
        return _add(o, self, -1)

    def __mul__(self, other):
        o = Poly._try_coerce(other)
        if o is None:
            return NotImplemented
        if not self._re or not o._re:
            return Poly()
        if len(o._re) == 1:
            re, im = _scale(self._re, self._im, o._re[0], o._im[0])
        elif len(self._re) == 1:
            re, im = _scale(o._re, o._im, self._re[0], self._im[0])
        else:
            re, im = _kronecker_mul(self._re, self._im, o._re, o._im)
        return _poly(re, im, self._den * o._den)

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
        if len(self._re) < len(o._re):
            return Poly(), self
        qr, qi, rr, ri, s = _pseudo_divide(self._re, self._im, o._re, o._im)
        # s F = Q G + R with f = F / df, g = G / dg: f = Q dg / (s df) g + R / (s df)
        den, dg = s * self._den, o._den
        return (_poly([v * dg for v in qr], [v * dg for v in qi], den),
                _poly(rr, ri, den))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        try:
            o = Poly.coerce(other)
        except TypeError:
            return NotImplemented
        return (self._den == o._den and self._re == o._re
                and self._im == o._im)

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    def __bool__(self):
        return not self.is_zero()

    # -- calculus / structure --------------------------------------------------
    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        # (F / d) / (c / d) = F conj(c) / norm(c): the denominator drops out
        cr, ci = self._re[-1], self._im[-1]
        if not ci:
            return _poly(list(self._re), list(self._im), cr)
        re, im = _scale(self._re, self._im, cr, -ci)
        return _poly(re, im, cr * cr + 3 * ci * ci)

    def eval(self, point) -> QuadElem:
        p = QuadElem.coerce(point)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def reverse(self, n: int | None = None) -> "Poly":
        """sigma^n * f(1/sigma) as a polynomial; n defaults to deg f."""
        if self.is_zero():
            return self
        if n is None:
            n = self.degree()
        if n < self.degree():
            raise ValueError("reversal order below degree")
        pad = (0,) * (n - self.degree())
        return _poly(pad + self._re[::-1], pad + self._im[::-1], self._den)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                terms.append(f"({c!r})*s^{i}" if i else f"({c!r})")
        return "Poly[" + " + ".join(terms) + "]"


def _init(obj: Poly, re: list, im: list, den: int) -> None:
    """Set obj to (re + im*sqrt(-3)) / den in canonical form (den != 0)."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if n == 0:
        re = im = ()
        den = 1
    else:
        if n < len(re):
            re, im = re[:n], im[:n]
        if den < 0:
            re, im, den = [-v for v in re], [-v for v in im], -den
        if den != 1:
            g = math.gcd(den, *re, *im)
            if g != 1:
                re, im = [v // g for v in re], [v // g for v in im]
                den //= g
        re, im = tuple(re), tuple(im)
    object.__setattr__(obj, "_re", re)
    object.__setattr__(obj, "_im", im)
    object.__setattr__(obj, "_den", den)
    object.__setattr__(obj, "_coeffs", None)


def _poly(re, im, den: int = 1) -> Poly:
    obj = object.__new__(Poly)
    _init(obj, re, im, den)
    return obj


def _add(f: Poly, g: Poly, sign: int) -> Poly:
    """f + sign * g over the least common denominator."""
    den = math.lcm(f._den, g._den)
    s, t = den // f._den, sign * (den // g._den)
    return _poly([a * s + b * t for a, b in zip_longest(f._re, g._re, fillvalue=0)],
                 [a * s + b * t for a, b in zip_longest(f._im, g._im, fillvalue=0)],
                 den)


def _scale(re, im, cr: int, ci: int) -> tuple[list, list]:
    """(re + im w)(cr + ci w) coefficientwise, w^2 = -3."""
    if not ci:
        return [a * cr for a in re], [b * cr for b in im]
    return ([a * cr - 3 * b * ci for a, b in zip(re, im)],
            [a * ci + b * cr for a, b in zip(re, im)])


def _pack(cs, nb: int) -> int:
    """sum cs[i] 2^(8 nb i) for signed |cs[i]| < 2^(8 nb - 1): offset every
    slot by 2^(8 nb - 1) to make it unsigned, then take the offsets back."""
    half = 1 << (8 * nb - 1)
    raw = b"".join((c + half).to_bytes(nb, "little") for c in cs)
    off = half.to_bytes(nb, "little") * len(cs)
    return int.from_bytes(raw, "little") - int.from_bytes(off, "little")


def _unpack(h: int, n: int, nb: int) -> list[int]:
    """The n signed slots of h = sum c_i 2^(8 nb i), |c_i| < 2^(8 nb - 1).

    The two's complement bytes of h give each slot mod 2^(8 nb) less a borrow
    from every negative slot below it, so the borrow is carried upward."""
    full = 1 << (8 * nb)
    half = full >> 1
    raw = h.to_bytes(n * nb, "little", signed=True)
    out = []
    carry = 0
    for k in range(0, n * nb, nb):
        u = int.from_bytes(raw[k:k + nb], "little") + carry
        if u >= half:
            out.append(u - full)
            carry = 1
        else:
            out.append(u)
            carry = 0
    return out


def _kronecker_mul(a, b, c, d) -> tuple[list, list]:
    """(a + b w)(c + d w), w^2 = -3, for integer coefficient sequences, by
    Kronecker substitution into Python ints.

    Slots of bitlen(4 n M1 M2) + 1 bits, rounded up to whole bytes, hold every
    coefficient of ac - 3bd and ad + bc (see the module docstring).  Packing
    is linear, so three integer products (Karatsuba on the two parts) give
    both parts; one or two when a factor is rational.
    """
    m1 = max(max(map(abs, a)), max(map(abs, b)))
    m2 = max(max(map(abs, c)), max(map(abs, d)))
    bits = (4 * min(len(a), len(c)) * m1 * m2).bit_length() + 1
    nb = (bits + 7) // 8
    n = len(a) + len(c) - 1
    A, C = _pack(a, nb), _pack(c, nb)
    AC = A * C
    b_real, d_real = not any(b), not any(d)
    if b_real and d_real:
        return _unpack(AC, n, nb), [0] * n
    if b_real:
        return _unpack(AC, n, nb), _unpack(A * _pack(d, nb), n, nb)
    B = _pack(b, nb)
    if d_real:
        return _unpack(AC, n, nb), _unpack(B * C, n, nb)
    D = _pack(d, nb)
    BD = B * D
    return (_unpack(AC - 3 * BD, n, nb),
            _unpack((A + B) * (C + D) - AC - BD, n, nb))


def _pseudo_divide(fr, fi, gr, gi) -> tuple[list, list, list, list, int]:
    """Integer pseudo-division in Z[w][sigma], w^2 = -3: s F = Q G + R with
    deg R < deg G and an integer s > 0.  Returns (Q re, Q im, R re, R im, s).

    G times the conjugate of its leading coefficient c has the rational
    integer leading coefficient N = norm(c) (G itself when c is rational).
    Before each step the remainder (and the quotient so far) is multiplied
    by the least s_i > 0 that makes N divide its leading coefficient; s is
    the product of the s_i, so s = 1 whenever N divides every leading
    coefficient met (N = +-1 among them).
    """
    cr, ci = gr[-1], gi[-1]
    if ci:
        gr, gi = _scale(gr, gi, cr, -ci)
    N = gr[-1]
    absN = abs(N)
    m = len(gr) - 1
    rr, ri = list(fr), list(fi)
    dq = len(rr) - m - 1
    qr, qi = [0] * (dq + 1), [0] * (dq + 1)
    s = 1
    real = not any(gi)
    for i in range(dq, -1, -1):
        top = i + m
        tr, ti = rr[top], ri[top]
        if not tr and not ti:
            continue
        k = absN // math.gcd(N, tr, ti)
        if k != 1:
            s *= k
            tr, ti = tr * k, ti * k
            for j in range(top):
                rr[j] *= k
                ri[j] *= k
            for j in range(i + 1, dq + 1):
                qr[j] *= k
                qi[j] *= k
        ur, ui = tr // N, ti // N
        qr[i], qi[i] = ur, ui
        rr[top] = ri[top] = 0
        if real:
            for j in range(m):
                x = gr[j]
                rr[i + j] -= ur * x
                ri[i + j] -= ui * x
        else:
            for j in range(m):
                x, y = gr[j], gi[j]
                rr[i + j] -= ur * x - 3 * ui * y
                ri[i + j] -= ur * y + ui * x
    if ci:
        qr, qi = _scale(qr, qi, cr, -ci)
    return qr, qi, rr[:m], ri[:m], s


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


def reduce_mod_p(c: QuadElem, p: int, w: int | None) -> int | None:
    """Image of c in F_p under sqrt(-3) -> w (w * w = -3 mod p; None when c
    is rational); None if p divides a denominator of c."""
    if c.a.denominator % p == 0 or c.b.denominator % p == 0:
        return None
    v = c.a.numerator * pow(c.a.denominator, -1, p)
    if c.b:
        v += c.b.numerator * pow(c.b.denominator, -1, p) * w
    return v % p


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
            return b.monic()
        if r.is_constant():
            return Poly([1])
        a, b = b, r * (gg * hh ** delta).inv()
        gg = a.lc()
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

class Place(namedtuple("Place", "poly")):
    """A place of Q(sqrt(-3))(sigma): a monic irreducible polynomial, or
    infinity (poly None)."""

    __slots__ = ()

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
            n, d = n * d.lc().inv(), d.monic()
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
            n, d = n * d.lc().inv(), d.monic()
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
