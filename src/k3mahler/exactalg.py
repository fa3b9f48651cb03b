"""Exact arithmetic in Q(sqrt(-3))[sigma], on integers.

Everything here is immutable and exact; no floating point enters this
module, and nothing here takes a gcd of polynomials: a quotient of
polynomials is kept by its users as an unreduced (num, den) pair, whose
value at a point and order at a place need none.

A ``Poly`` in sigma (lowest degree first) is stored as integers: the rational
parts and the sqrt(-3) parts of its coefficients as two integer lists over
one common denominator den > 0, with gcd(den, all numerators) = 1, so that
equal polynomials are stored alike.  An element of Q(sqrt(-3)), such as a
value ``f.at(t)`` at sigma = t, is a constant Poly; ``reduce_mod_p`` reads its
image in F_p.  All arithmetic runs on those integers (w = sqrt(-3), w^2 = -3):

* Products use Kronecker substitution: a coefficient list c becomes the
  integer sum c_i 2^(s i), one big-integer product multiplies two such
  integers, and the slots of the result are the coefficients of the product.
  Every coefficient of (a + b w)(c + d w) is a sum of at most
  n = min(len a, len c) terms, so it is at most 4 n M1 M2 in size (M1, M2 the
  largest |coefficient| of the factors); a slot of bitlen(4 n M1 M2) + 1 bits,
  the extra bit for the sign, holds it.  The slots are signed: the pack
  offsets each slot by half its range and takes the offsets back, and the
  unpack adds them again, so every slot is read unsigned from its bytes.
  Three integer products (Karatsuba on the two parts) give both parts.
  Harvey, "Faster polynomial multiplication via multipoint Kronecker
  substitution", J. Symb. Comput. 44 (2009).
* Division runs one integer pseudo-division kernel.  The divisor is first
  multiplied by the conjugate of its leading coefficient, which makes that
  coefficient a rational integer N; the remainder is scaled only as far as N
  needs to divide its next leading coefficient.  divmod, exact division and
  valuations all go through it; so does the quotient of two constants.
* Squares of Q(sqrt(-3)) are decided in Z[w] by ``_is_square``.

Places of the function field are monic irreducible polynomials plus the place
at infinity.  ``Place.over`` gives the places over a polynomial of degree 1 or
2, one square test on the discriminant splitting a quadratic; higher degrees
are rejected.  The tests check these integers against two references: the
field arithmetic on Fractions (tests/quadfield.py) and the rational-function
arithmetic in lowest terms with its subresultant gcd (tests/ratfunc.py).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import zip_longest


# ---------------------------------------------------------------------------
# Polynomials over Q(sqrt(-3))
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over Q(sqrt(-3)), lowest degree first.

    Stored as (re + im*sqrt(-3)) / den: two integer coefficient tuples of
    one length and a common denominator den > 0 with gcd(den, re, im) = 1, so
    equal polynomials have equal fields.  The zero polynomial has empty
    tuples, den 1 and degree -1.  The constants are the elements of
    Q(sqrt(-3)).
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, coeffs: Iterable = ()):
        """Coefficients as `_parts` reads them."""
        pairs = list(map(_parts, coeffs))
        den = math.lcm(1, *(v.denominator for c in pairs for v in c))
        _init(self, [a.numerator * (den // a.denominator) for a, _ in pairs],
              [b.numerator * (den // b.denominator) for _, b in pairs], den)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def coerce(v) -> "Poly":
        """v itself, or the constant v; TypeError where v is no coefficient."""
        return v if isinstance(v, Poly) else Poly((v,))

    # -- basic queries -------------------------------------------------------
    def degree(self) -> int:
        return len(self._re) - 1

    def is_zero(self) -> bool:
        return not self._re

    # -- arithmetic -----------------------------------------------------------
    @staticmethod
    def _try_coerce(v):
        try:
            return Poly.coerce(v)
        except TypeError:
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

    def at(self, t: int) -> "Poly":
        """The value at sigma = t, an integer, as a constant, by Horner's rule
        on the integer parts."""
        re = im = 0
        for a, b in zip(reversed(self._re), reversed(self._im)):
            re, im = re * t + a, im * t + b
        return _poly([re], [im], self._den)

    def __repr__(self):
        terms = [f"({a} + {b}*w)*s^{i}" for i, (a, b) in enumerate(zip(self._re, self._im))
                 if a or b]
        return f"Poly[({' + '.join(terms) or '0'}) / {self._den}]"


def _parts(c) -> tuple:
    """(re, im) of a Poly coefficient re + im sqrt(-3): an int or a Fraction
    c is (c, 0), and an (re, im) pair of them, the records' convention, is
    itself.  Anything else, a float among them, raises TypeError."""
    pair = c if isinstance(c, tuple) else (c, 0)
    if len(pair) != 2 or not all(isinstance(v, (int, Fraction)) for v in pair):
        raise TypeError(f"a Poly coefficient is an int, a Fraction or an (re, im) "
                        f"pair of them, not {c!r}")
    return pair


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


def _offset(n: int, nb: int) -> int:
    """sum 2^(8 nb - 1) 2^(8 nb i) over the n slots i: half the range of
    each slot, which makes a signed slot |c| < 2^(8 nb - 1) unsigned."""
    return int.from_bytes((1 << (8 * nb - 1)).to_bytes(nb, "little") * n, "little")


def _pack(cs, nb: int) -> int:
    """sum cs[i] 2^(8 nb i) for signed |cs[i]| < 2^(8 nb - 1): each slot
    offset to be unsigned, then the offsets taken back."""
    half = 1 << (8 * nb - 1)
    raw = b"".join((c + half).to_bytes(nb, "little") for c in cs)
    return int.from_bytes(raw, "little") - _offset(len(cs), nb)


def _unpack(h: int, n: int, nb: int) -> list[int]:
    """The n signed slots of h = sum c_i 2^(8 nb i), |c_i| < 2^(8 nb - 1):
    with `_pack`'s offset added back each slot's bytes hold c_i + 2^(8 nb - 1)."""
    half = 1 << (8 * nb - 1)
    raw = (h + _offset(n, nb)).to_bytes(n * nb, "little")
    return [int.from_bytes(raw[k:k + nb], "little") - half for k in range(0, n * nb, nb)]


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


def reduce_mod_p(c: Poly, p: int, w: int | None) -> int | None:
    """Image in F_p of the constant c = (re + im sqrt(-3)) / den under
    sqrt(-3) -> w (w * w = -3 mod p; None when c is rational); None iff p
    divides den, which, as gcd(den, re, im) = 1, is iff p divides the
    denominator of either part."""
    if c._den % p == 0:
        return None
    (re,), (im,) = c._re or (0,), c._im or (0,)
    return (re + im * w if im else re) * pow(c._den, -1, p) % p


def _is_square(A: int, B: int) -> tuple[int, int] | None:
    """(U, V) with ((U + V w)/2)^2 = A + B w, w = sqrt(-3), and the first
    nonzero of U, V positive; None if A + B w is no square in Q(w).

    A square root of the algebraic integer A + B w is one, so it lies in
    Z[(1 + w)/2]: (U + V w)/2 with integers U, V, U^2 - 3V^2 = 4A and UV = 2B.
    Its norm T = (U^2 + 3V^2)/4 has T^2 = A^2 + 3B^2, so U^2 = 2(A + T) and
    3V^2 = 2(T - A), with V of the sign of B where U != 0.  The candidate read
    off those is squared back, which decides.
    """
    T = math.isqrt(A * A + 3 * B * B)
    U, V = math.isqrt(2 * (A + T)), math.isqrt(2 * (T - A) // 3)
    if B < 0:
        V = -V
    return (U, V) if U * U - 3 * V * V == 4 * A and U * V == 2 * B else None


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------

class Place(namedtuple("Place", "poly")):
    """A place of Q(sqrt(-3))(sigma): a monic irreducible polynomial, or
    infinity (poly None)."""

    __slots__ = ()

    @staticmethod
    def over(f: Poly) -> list["Place"]:
        """The places over f of degree 1 or 2: the place of monic f, or, where
        a quadratic splits over Q(sqrt(-3)), one per root, the root
        (-b + sqrt(disc))/2 first.  One square test on the discriminant decides:
        for monic f = (F0 + F1 sigma + den sigma^2) / den, D = F1^2 - 4 den F0 =
        den^2 disc lies in Z[w], and its root (U + V w)/2 gives the roots
        (-2 F1 +- (U + V w)) / (4 den)."""
        f = f.monic()
        if f.degree() == 1:
            return [Place(f)]
        if f.degree() != 2:
            raise ValueError(f"places over a polynomial of degree {f.degree()}: "
                             "only degrees 1 and 2 are decided")
        (r0, r1, _), (i0, i1, _), den = f._re, f._im, f._den
        root = _is_square(r1 * r1 - 3 * i1 * i1 - 4 * den * r0,
                          2 * r1 * i1 - 4 * den * i0)
        if root is None:
            return [Place(f)]
        U, V = root
        return [Place(_poly([2 * r1 - s * U, 4 * den], [2 * i1 - s * V, 0], 4 * den))
                for s in (1, -1)]

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
