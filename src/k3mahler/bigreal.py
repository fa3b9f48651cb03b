"""Reals as integer fixed-point values with an error bound, and the integer
kernels the verifier's numerics are built from.

A BigReal is man 2^-prec with the bound rad 2^-(prec + 64), every rounding
taken upward.  Sums are exact; products and moves to fewer bits round to
nearest and add the rounding and the operands' propagated bounds.
`bound_kind` is "rigorous" for a proven bound (the L-value, d3, the lattice
sums) and "estimate" for the quadrature and anything computed from it;
`terms` is the series length of the kernel that made the value.  A kernel
returns an int X for X 2^-wp; its docstring bounds its error in units 2^-wp.
"""

from __future__ import annotations

import math
from fractions import Fraction

_RAD = 64       # the bound's dyadic has 64 more bits than the value


def _ceil_shift(n: int, s: int) -> int:
    return -(-n >> s)     # ceil(n / 2^s)


class BigReal:
    __slots__ = ("man", "prec", "rad", "bound_kind", "terms")

    def __init__(self, man: int, prec: int, rad: int, bound_kind: str = "rigorous",
                 terms: int | None = None):
        self.man, self.prec, self.rad, self.bound_kind, self.terms = \
            man, prec, rad, bound_kind, terms

    @staticmethod
    def fixed(man: int, wp: int, units: int = 0) -> "BigReal":
        """man 2^-wp, a kernel's result within `units` units."""
        return BigReal(man, wp, units << _RAD)

    @staticmethod
    def exactly(value, prec: int = 53) -> "BigReal":
        """An int, float or Fraction rounded to prec bits; the bound is the
        rounding, rounded up."""
        x = Fraction(value) * (1 << prec)
        man = round(x)
        return BigReal(man, prec, math.ceil(abs(man - x) * (1 << _RAD)))

    @staticmethod
    def with_bound(value, error_bound, prec: int = 53, kind: str = "rigorous") -> "BigReal":
        b = BigReal.exactly(value, prec)
        b.rad += math.ceil(Fraction(error_bound) * (1 << prec + _RAD))
        b.bound_kind = kind
        return b

    @property
    def value(self) -> Fraction:
        return Fraction(self.man, 1 << self.prec)

    @property
    def error_bound(self) -> Fraction:
        return Fraction(self.rad, 1 << self.prec + _RAD)

    def round_to(self, prec: int) -> "BigReal":
        """The value rounded to prec <= self.prec bits, the rounding in the bound."""
        s = self.prec - prec
        if s <= 0:
            return self
        man = (self.man + (1 << s - 1)) >> s
        rad = _ceil_shift(self.rad + (abs((man << s) - self.man) << _RAD), s)
        return BigReal(man, prec, rad, self.bound_kind, self.terms)

    def __float__(self) -> float:
        return self.man / (1 << self.prec)     # int true division rounds correctly

    def as_float(self) -> tuple[float, float]:
        """(float64 value, bound on its distance from the exact value): the
        error bound plus the rounding to float64, rounded up."""
        f = float(self)
        err = self.error_bound + abs(self.value - Fraction(f))
        return f, math.nextafter(float(err), math.inf)

    def _pair(self, other):
        o = other if isinstance(other, BigReal) else BigReal.exactly(other, self.prec)
        prec = min(self.prec, o.prec)
        kind = "rigorous" if self.bound_kind == o.bound_kind == "rigorous" else "estimate"
        return self.round_to(prec), o.round_to(prec), prec, kind

    def __add__(self, other):
        a, b, prec, kind = self._pair(other)
        return BigReal(a.man + b.man, prec, a.rad + b.rad, kind)

    def __neg__(self):
        return BigReal(-self.man, self.prec, self.rad, self.bound_kind)

    def __sub__(self, other):
        return self + -(other if isinstance(other, BigReal) else Fraction(other))

    def __mul__(self, other):
        # |xy - x~y~| <= |x~| e_y + |y~| e_x + e_x e_y, plus the rounding of x~y~
        a, b, p, kind = self._pair(other)
        prod = a.man * b.man
        man = (prod + (1 << p - 1)) >> p
        rad = _ceil_shift(abs(a.man) * b.rad + abs(b.man) * a.rad
                          + _ceil_shift(a.rad * b.rad, _RAD)
                          + (abs((man << p) - prod) << _RAD), p)
        return BigReal(man, p, rad, kind)

    __radd__ = __add__
    __rmul__ = __mul__

    def abs_diff(self, other) -> Fraction:
        o = other.value if isinstance(other, BigReal) else Fraction(other)
        return abs(self.value - o)

    def consistent_with(self, other: "BigReal") -> bool:
        """True iff the two values are within the sum of their bounds."""
        return self.abs_diff(other) <= self.error_bound + other.error_bound

    def __repr__(self):
        err = float(self.error_bound)
        return f"BigReal({float(self)!r}, prec={self.prec}, err<={err:.3g} {self.bound_kind})"


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def arctan_inv(k: int, w: int, hyperbolic: bool = False) -> int:
    """atan(1/k) 2^w, or atanh(1/k) 2^w, within w units for k >= 3, w >= 11:
    p_i = floor(p_(i-1) / k^2), p_0 = floor(2^w / k), is within 9/8 of
    2^w / k^(2i+1), so each of the n <= w / 3.17 + 1 terms p_i // (2i + 1) is
    within 2.13 units, and once p_n = 0 the rest is below 1.27."""
    p, total, i, kk = (1 << w) // k, 0, 0, k * k
    while p:
        t = p // (2 * i + 1)
        total += t if hyperbolic or i % 2 == 0 else -t
        p //= kk
        i += 1
    return total


def pi_reals(wp: int) -> tuple[BigReal, BigReal]:
    """(pi, 1/pi) at wp bits, by Machin's pi = 16 atan(1/5) - 4 atan(1/239) at
    g = bitlen(wp) + 6 guard bits: the arctangents' 20 w units are below
    2^(g-1), so pi is within 1 unit, and 2^(2wp) // (pi 2^wp + e), |e| <= 1,
    within 1/pi^2 + 1 < 2 units of 2^wp / pi.  (Square roots are
    math.isqrt(n << 2 wp), within 1 unit.)"""
    g = wp.bit_length() + 6
    w = wp + g
    p = (16 * arctan_inv(5, w) - 4 * arctan_inv(239, w) + (1 << g - 1)) >> g
    return BigReal.fixed(p, wp, 1), BigReal.fixed((1 << 2 * wp) // p, wp, 2)


def exp_neg(X: int, wp: int) -> int:
    """e^-x 2^wp within 1 unit, x = X 2^-wp >= 0.  At w = wp + g bits,
    y = x / 2^s < 2^-8 is exact (g >= s); the Taylor sum of e^y, K <= w/8 + 1
    floored terms, is low by relative 2^-w (2K + 1) at most; the s floored
    squarings each double that and add 2^-w, the floored reciprocal adds a
    unit: at most 2^(s+1) (2K + 3) units of 2^-w, under 2^(g-1) for
    g = s + bitlen(wp) + 4, so rounding off the g guard bits leaves 1 unit."""
    s = (X >> wp).bit_length() + 8
    g = s + wp.bit_length() + 4
    w, k = wp + g, 0
    y, one = X << g - s, 1 << w
    t = total = one
    while t:
        k += 1
        t = t * y // (k << w)
        total += t
    for _ in range(s):
        total = total * total >> w
    return ((one << w) // total + (1 << g - 1)) >> g


def n2_tail_log2(alpha: float, M: int) -> float:
    """log2 of a bound on sum_{n>M} n^2 e^(-alpha n), with 2^-20 to spare for
    float64's logarithms.  The ratio of consecutive terms, (1 + 1/n)^2
    e^-alpha, falls with n, so the tail is below the geometric series from
    n = M + 1 with the ratio there, < 1 once M + 1 > 2/alpha."""
    ratio = ((M + 2) / (M + 1)) ** 2 * math.exp(-alpha)
    if ratio >= 1:
        raise ValueError(f"M = {M} is too small for a geometric tail")
    return (2 * math.log2(M + 1) - alpha * (M + 1) / math.log(2)
            - math.log2(1 - ratio) + 2 ** -20)


def bound_units(log2_bound: float, wp: int) -> int:
    """A bound given by its log2 in units 2^-wp, rounded up.  The float power
    is taken below 2^53, where the + 1 covers its rounding, and shifted on
    ints: never past float64's range, nor below 2^(log2_bound + wp)."""
    e = log2_bound + wp
    k = max(0, math.floor(e) - 52)
    return math.ceil(2.0 ** (e - k)) + 1 << k
