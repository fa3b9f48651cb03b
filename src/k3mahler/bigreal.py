"""Reals as integer fixed-point values with an error bound, and the integer
kernels the verifier's numerics are built from.

A BigReal is man 2^-prec with the bound rad 2^-(prec + 64), every rounding
taken upward.  Sums are exact; products and moves to fewer bits round to
nearest and add the rounding and the operands' propagated bounds.
`bound_kind` is "rigorous" for a proven bound (the L-value, d3, the lattice
sums) and "estimate" for the quadrature and anything computed from it;
`terms` is the series length of the kernel that made the value.  A kernel
returns an int X for X 2^-wp; its docstring bounds its error in units 2^-wp.
E1(nu) for n = 1..M, the smoothed L-value's kernel, is one downward chain.
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

def _arctan_inv(k: int, w: int, hyperbolic: bool = False) -> int:
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
    p = (16 * _arctan_inv(5, w) - 4 * _arctan_inv(239, w) + (1 << g - 1)) >> g
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


def _e1_scaled(X: int, wp: int, bits: int) -> int:
    """e^x E1(x) 2^wp, x = X 2^-wp >= 1, within 2 units plus 2^-bits.  As a
    Stieltjes function, int_0^inf e^-t dt / (x + t), it lies between any two
    successive convergents of 1/(x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...)))))
    (A&S 5.1.22); the loop stops when two are 2^-bits apart.  The recurrence,
    scaled by 2^wp at each x-step, has positive terms, so the shifts keeping
    q0 at wp + 80 bits (relative 2^-(wp+70) each) move the convergent by far
    under a unit in 2^20 steps; the final division adds one."""
    d, m = 1 << wp, 0
    p0, p1, q0, q1 = 1, 0, 0, 1
    while True:
        m += 1
        # the steps j = 2m - 1 (b_j = x, a_j = max(1, m - 1)) and j = 2m (1, m)
        a = d * max(1, m - 1)
        p0, p1 = p1, X * p1 + a * p0
        q0, q1 = q1, X * q1 + a * q0
        a = d * m
        p0, p1 = p1, p1 + a * p0
        q0, q1 = q1, q1 + a * q0
        if abs(p1 * q0 - p0 * q1) << bits <= q1 * q0:
            return (p1 << wp) // q1
        s = q0.bit_length() - wp - 80
        if s > 0:
            p0, p1, q0, q1 = p0 >> s, p1 >> s, q0 >> s, q1 >> s


def _ein(X: int, w: int) -> int:
    """sum_k>=1 (-1)^(k+1) x^k / (k k!) 2^w, x = X 2^-w, within e^x (ln K + 3)
    + K units for K terms: the floored x^k/k! are within e^x, the tail 2 e^x."""
    t, total, k = X, 0, 1
    while t:
        total += t // k if k % 2 else -(t // k)
        k += 1
        t = t * X // (k << w)
    return total


def e1_values(U: int, wp: int, M: int) -> tuple[list[int], int]:
    """([E1(n u) 2^wp for n = 0..M], 1), u = U 2^-wp <= 4, M >= 2, M u >= 1:
    entries 1..M within 1 unit.  As E1(nu) - E1((n+1)u) = e^-(n+1)u int_0^1
    e^(u(1-t)) dt / (n + t) and 1/(n + t) = sum_i (-1)^i t^i / n^(i+1), one
    chain runs down from E1(Mu) = q^M _e1_scaled(Mu):
        E1(nu) = E1((n+1)u) + e^-(n+1)u sum_i>=0 (-1)^i H_i / n^(i+1),
    H_i = int_0^1 t^i e^(u(1-t)) dt = (1 + u H_(i+1)) / (i + 1) <= e^u/(i+1)
    falls, so for n >= 2 the terms alternate and fall; it closes at E1(u) =
    E1(2u) + ln 2 + Ein(u) - Ein(2u), ln 2 = 2 atanh(1/3).  In units 2^-w,
    w = wp + g, E >= e^u: P_n = q^n, floored powers of q = exp_neg(u), are
    within 2n.  H_i, from H_I = 0, errs by 2 + u eps_(i+1)/(i+1), so by
    2 e^u + 1: the start's error, below e^u 2^w, reaches H_i times at most
    e^u (u/(K+1))^(I-K) <= e^u 2^-w / E^2, K = max(w, E) - 2.  Horner in 1/n
    over k + 1 <= K + 1 terms with k + 2 >= E and n^(k+2) > P_(n+1) + 2n + 2
    >= e^-(n+1)u 2^w is within (2 e^u + 2)/(n - 1) + 1, and the cut, below
    the first omitted term e^u / (k+2) n^(k+2), within e^(n+1)u.  A link adds
    2 (n+1) E/n + e^-3u (2 e^u + 3) + 2 <= 3E + 7, the start 2M + 3, the
    close ln 2's 2w and Ein's e^2u (ln(w + 1) + 3) + w + 1 twice: under
    2^(g-1) for the g below (g <= wp), so one rounding leaves 1 unit."""
    E = math.ceil(math.exp(U / (1 << wp))) + 1
    g = (M * (3 * E + 9) + 8 * wp + 2 * E * E * ((2 * wp).bit_length() + 3)).bit_length() + 1
    w, V = wp + g, U << g
    q, P = exp_neg(V, w), [1 << w]
    for n in range(M):
        P.append(P[-1] * q >> w)
    K = max(w, E) - 2
    I = K - (-(w + 2 * E.bit_length()) // (((K + 1 << w) // V).bit_length() - 1))
    H = [0] * (I + 1)
    for i in range(I - 1, -1, -1):
        H[i] = ((1 << w) + (V * H[i + 1] >> w)) // (i + 1)
    e, x = [0] * (M + 1), M * V
    e[M] = P[M] * _e1_scaled(x, w, max(1, w - int(1.4426 * (x >> w)))) >> w
    for n in range(M - 1, 1, -1):
        t, s = 0, (n ** 16).bit_length() - 1      # n^16 >= 2^s
        for h in H[max(E, -(-16 * (P[n + 1] + 2 * n + 2).bit_length() // s)) - 2::-1]:
            t = h - t // n
        e[n] = e[n + 1] + (P[n + 1] * (t // n) >> w)
    e[1] = e[2] + 2 * _arctan_inv(3, w, hyperbolic=True) + _ein(V, w) - _ein(2 * V, w)
    return [0] + [(v + (1 << g - 1)) >> g for v in e[1:]], 1


def bernoulli_even(K: int) -> list[Fraction]:
    """[B_2, B_4, ..., B_2K] exactly, from the tangent numbers T_k (Knuth and
    Buckholtz, Math. Comp. 21 (1967)): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    T = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * T[k], 4 ** k * (4 ** k - 1))
            for k in range(1, K + 1)]


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
