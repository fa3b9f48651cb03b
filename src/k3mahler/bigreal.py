"""Arbitrary-precision reals carrying an explicit working precision and an
absolute error bound.

Thin wrapper over mpmath.  The bound is propagated through the few arithmetic
operations the verification pipelines actually use.  It is only as strong as
the bounds it starts from, and `bound_kind` says which it is: a proven tail
bound (the L-value, d3 and the lattice sums) gives a "rigorous" bound, but the
quadrature's error estimate is an "estimate", and so is anything computed
from it.
"""

from __future__ import annotations

import math

import mpmath as mp


def _mpf_at(value, prec: int):
    with mp.workprec(prec):
        return +mp.mpf(value)


class BigReal:
    __slots__ = ("value", "prec", "error_bound", "bound_kind")

    def __init__(self, value: mp.mpf, prec: int, error_bound: mp.mpf,
                 bound_kind: str = "rigorous"):   # or "estimate"
        self.value = value
        self.prec = prec
        self.error_bound = error_bound
        self.bound_kind = bound_kind

    @staticmethod
    def exactly(value, prec: int = 53) -> "BigReal":
        """Wrap a value regarded as exact apart from representation rounding."""
        v = _mpf_at(value, prec)
        return BigReal(v, prec, mp.mpf(2) ** (-prec) * (abs(v) + 1))

    @staticmethod
    def with_bound(value, error_bound, prec: int = 53,
                   kind: str = "rigorous") -> "BigReal":
        return BigReal(_mpf_at(value, prec), prec, mp.mpf(error_bound), kind)

    def __float__(self) -> float:
        return float(self.value)

    def as_float(self) -> tuple[float, float]:
        """(float64 value, bound on its distance from the exact value): the
        error bound plus the rounding to float64, rounded up."""
        f = float(self.value)
        with mp.workprec(self.prec + 64):
            err = self.error_bound + abs(self.value - f)
        return f, math.nextafter(float(err), math.inf)

    def _round_err(self, v) -> mp.mpf:
        return mp.mpf(2) ** (-self.prec) * (abs(v) + 1)

    def _kind(self, other: "BigReal") -> str:
        return "rigorous" if self.bound_kind == other.bound_kind == "rigorous" \
            else "estimate"

    def __add__(self, other):
        o = other if isinstance(other, BigReal) else BigReal.exactly(other, self.prec)
        prec = min(self.prec, o.prec)
        with mp.workprec(prec):
            v = self.value + o.value
        return BigReal(v, prec, self.error_bound + o.error_bound + self._round_err(v),
                       self._kind(o))

    def __sub__(self, other):
        o = other if isinstance(other, BigReal) else BigReal.exactly(other, self.prec)
        return self + BigReal(-o.value, o.prec, o.error_bound, o.bound_kind)

    def __mul__(self, other):
        o = other if isinstance(other, BigReal) else BigReal.exactly(other, self.prec)
        prec = min(self.prec, o.prec)
        with mp.workprec(prec):
            v = self.value * o.value
        err = (abs(self.value) * o.error_bound + abs(o.value) * self.error_bound
               + self.error_bound * o.error_bound + self._round_err(v))
        return BigReal(v, prec, err, self._kind(o))

    __radd__ = __add__
    __rmul__ = __mul__

    def abs_diff(self, other) -> mp.mpf:
        o = other.value if isinstance(other, BigReal) else mp.mpf(other)
        return abs(self.value - o)

    def consistent_with(self, other: "BigReal") -> bool:
        """True iff the two values are within the sum of their bounds."""
        return self.abs_diff(other) <= self.error_bound + other.error_bound

    def __repr__(self):
        return (f"BigReal({mp.nstr(self.value, 20)}, prec={self.prec}, "
                f"err<={mp.nstr(mp.mpf(self.error_bound), 3)} {self.bound_kind})")
