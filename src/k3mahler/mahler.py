"""Numerical Mahler-measure evaluators for P_k = x + 1/x + y + 1/y + z + 1/z - k.

Three independent routes:

* ``mahler_quadrature`` -- the z-integral is done exactly by Jensen's formula,
  leaving a 2D integral of acosh(|2 cos a + 2 cos b - k| / 2) over the region
  where the argument exceeds 1.  Nested tanh-sinh quadrature (Takahasi and
  Mori, Publ. RIMS 9 (1974)) in numpy, with every segment ending at a kink
  curve |2 cos a + 2 cos b - k| = 2 or where one enters the square, reaches
  the float64 floor in a few milliseconds.
* ``mahler_mc`` -- plain Monte Carlo on the torus, the statistical oracle.
* ``bertin_series`` -- the weighted Eisenstein-Kronecker double sums over the
  four sublattices j*m*tau + n (j = 1, 2, 3, 6; weights -4, 16, -36, 144) at
  the tabulated CM point, in mpmath at a caller-chosen precision.

The lattice sums here, the Eisenstein-Kronecker series and the weight-0
Epstein combination behind the d3 term of m(P_18) (``epstein_combo``), share
one row kernel: each row of either sum is a sum over n of 1/(u^3 v) and
1/(u^2 v^2), u = n + z, v = n + conj z, which partial fractions and
cot(pi z) give in closed form.  Rows decay like e^(-2 pi Im z), so both sums
come with a rigorous bound.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

from .bigreal import BigReal
from .lattices import tau_table


class ToleranceNotReached(RuntimeError):
    """Quadrature could not certify the requested tolerance.

    Carries the best estimate and the achieved error bound.
    """

    def __init__(self, estimate: float, achieved: float, requested: float):
        super().__init__(f"requested abs tol {requested:g}, achieved {achieved:g}")
        self.estimate = estimate
        self.achieved = achieved
        self.requested = requested


# ---------------------------------------------------------------------------
# Jensen-reduced quadrature
# ---------------------------------------------------------------------------

# Tanh-sinh abscissae t = j h run over |t| <= _TS_TMAX: at t = 3.5 the weight
# is below 1e-20 h, and every integrand here is bounded.
_TS_TMAX = 3.5
# h = 2^-1, ..., 2^-_TS_LEVELS; the last costs about 10^6 integrand values
_TS_LEVELS = 6
_HALF_PI = math.pi / 2.0


def _tanh_sinh(h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh rule on [0, 1] with step h: (gap, upper, weights).

    x = tanh(s), s = (pi/2) sinh(t) maps t to (-1, 1) and the node is
    (1 + x)/2, which lies `gap` from the lower end (upper False) or from the
    upper end (upper True).  gap = (1 - |x|)/2 = e^-|s| / (2 cosh s) is
    computed directly, not from 1 - tanh, so a node can sit within 1e-20 of an
    endpoint singularity.
    """
    n = math.ceil(_TS_TMAX / h)
    t = np.arange(-n, n + 1) * h
    s = _HALF_PI * np.sinh(t)
    cs = np.cosh(s)
    gap = 0.5 * np.exp(-np.abs(s)) / cs
    weights = h * 0.5 * _HALF_PI * np.cosh(t) / (cs * cs)
    return gap, t > 0, weights


def _inner_integrals(b: np.ndarray, k: float, rule: tuple) -> np.ndarray:
    """int_0^pi acosh+(|2 cos a + 2 cos b - k| / 2) da for each outer node b.

    With B = 2 cos b - k the integrand is nonzero on [0, e+] (where
    2 cos a + B >= 2, e+ = acos((2 - B)/2)) and on [e-, pi] (where it is
    <= -2, e- = acos((-2 - B)/2)); each segment is empty, ends at a kink, or is
    all of [0, pi].  In the distance d from the kink end the argument is
    1 + u with u = 2 sin(e -+ d/2) sin(d/2) + extra, exact in form up to the
    rounding of e, where extra > 0 only for a full segment.
    """
    gap, upper, weights = rule
    nodes = np.where(upper, 1.0 - gap, gap)
    B = 2.0 * np.cos(b) - k
    total = np.zeros_like(b)
    for t, sign in ((1.0 - B / 2.0, -1.0), (-1.0 - B / 2.0, 1.0)):
        e = np.arccos(np.clip(t, -1.0, 1.0))
        length = e if sign < 0 else math.pi - e
        extra = np.maximum(-1.0 - t if sign < 0 else t - 1.0, 0.0)
        d = length[:, None] * nodes[None, :]
        u = (2.0 * np.sin(e[:, None] + sign * 0.5 * d) * np.sin(0.5 * d)
             + extra[:, None])
        f = np.log1p(u + np.sqrt(u * (u + 2.0)))    # acosh(1 + u), small u kept
        total += length * (f @ weights)
    return total


def mahler_quadrature(k: float, tol: float = 1e-8) -> BigReal:
    """m(P_k) by nested tanh-sinh quadrature of the Jensen-reduced integrand.

    m(P_k) = pi^-2 int_0^pi int_0^pi acosh+(|2 cos a + 2 cos b - k| / 2) da db.
    The inner integral is split at its kinks (see _inner_integrals); the outer
    one over [0, pi] at pi/2 and at the b where an inner kink enters or leaves
    [0, pi], so every singularity sits at a segment end, where tanh-sinh
    converges double-exponentially.  Both steps are halved together, level by
    level, until two levels agree to the float64 floor or the level cap is
    reached.  The error estimate is |I_h - I_{h/2}| plus a rounding term of
    four ulps of the value (an estimate, as QUADPACK's was); tol only decides
    whether ToleranceNotReached is raised.
    """
    k = float(k)
    if tol <= 0:
        raise ValueError("tol must be positive")
    # outer kinks: cos(beta) values where an inner kink crosses cos(a) = +-1
    outer_pts = []
    for t in (k / 2.0, (k + 4.0) / 2.0, (k - 4.0) / 2.0):
        if -1.0 < t < 1.0:
            outer_pts.append(math.acos(t))
    ends = sorted({0.0, math.pi / 2.0, math.pi, *outer_pts})
    lo, hi = np.array(ends[:-1])[:, None], np.array(ends[1:])[:, None]
    value, diff = None, math.inf
    for level in range(1, _TS_LEVELS + 1):
        rule = _tanh_sinh(2.0 ** -level)
        gap, upper, weights = rule
        b = np.where(upper, hi - (hi - lo) * gap, lo + (hi - lo) * gap)
        inner = _inner_integrals(b.ravel(), k, rule).reshape(b.shape)
        new = math.fsum(((hi - lo) * weights * inner).ravel()) / math.pi ** 2
        if value is not None:
            diff = abs(new - value)
        value = new
        rounding = 4.0 * math.ulp(value)
        if diff <= rounding:
            break
    bound = diff + rounding
    if bound > tol:
        raise ToleranceNotReached(value, bound, tol)
    return BigReal.with_bound(value, bound, kind="estimate")


def mahler_mc(k: float, samples: int, seed: int,
              integrand: str = "jensen") -> tuple[float, float]:
    """Monte Carlo estimate of m(P_k): (estimate, standard error).

    integrand="jensen" samples the 2-torus after the exact z-integration;
    integrand="torus3" samples log|P_k| on the raw 3-torus.  Deterministic for
    a fixed seed.
    """
    if samples < 10 ** 3:
        raise ValueError("use at least 10^3 samples")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 1_000_000)
        if integrand == "jensen":
            t = rng.uniform(0.0, 2.0 * np.pi, size=(2, n))
            c = 2.0 * np.cos(t[0]) + 2.0 * np.cos(t[1]) - k
            vals = np.arccosh(np.maximum(np.abs(c) / 2.0, 1.0))
        elif integrand == "torus3":
            t = rng.uniform(0.0, 2.0 * np.pi, size=(3, n))
            c = 2.0 * (np.cos(t[0]) + np.cos(t[1]) + np.cos(t[2])) - k
            with np.errstate(divide="ignore"):
                vals = np.log(np.abs(c))
        else:
            raise ValueError(f"unknown integrand {integrand!r}")
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        remaining -= n
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def exact_tau_value(k: int, prec: int = 128):
    """mpmath value of the tabulated CM point (A + sqrt(B))/C."""
    rec = tau_table(k)
    with mp.workprec(prec):
        return (rec.A + mp.sqrt(mp.mpf(rec.B))) / rec.C


# ---------------------------------------------------------------------------
# Lattice sums: the Eisenstein-Kronecker series and the Epstein combination
# ---------------------------------------------------------------------------

EK_WEIGHTS = ((1, -4), (2, 16), (3, -36), (6, 144))
EPSTEIN_FORMS = ((5, 6, -1), (10, 3, 1), (15, 2, -1), (30, 1, 1))   # a, c, sign


def _row_sums(z):
    """(sum_n 1/(u^3 v), sum_n 1/(u^2 v^2)), u = n + z, v = n + conj z, Im z > 0,
    by the partial fractions (d = z - conj z)
        1/(u^3 v) = -1/(d u^3) - 1/(d^2 u^2) - 1/(d^3 u) + 1/(d^3 v),
        1/(u^2 v^2) = 1/(d^2 u^2) + 2/(d^3 u) + 1/(d^2 v^2) - 2/(d^3 v)
    and, with c = cot(pi z), S_j = sum_n u^-j: S_1 = pi c (summed
    symmetrically), S_2 = pi^2 (1 + c^2), S_3 = pi^3 c (1 + c^2)."""
    c = mp.cot(mp.pi * z)
    s1, s2 = mp.pi * c, mp.pi ** 2 * (1 + c * c)
    d = z - mp.conj(z)
    odd = (s1 - mp.conj(s1)) / d ** 3
    return -s1 * s2 / d - s2 / d ** 2 - odd, (s2 + mp.conj(s2)) / d ** 2 + 2 * odd


def _lattice_sum(prec: int, terms, row) -> BigReal:
    """sum f (h + 2 sum_{m>=1} row(*_row_sums(m z1), m Im z1)) over the four
    (z1, f, h) in terms, rounded to prec bits with a rigorous bound, for a row
    with |row(A, B, y)| <= 2|A - A_inf| + |B - B_inf|.  With y = m Im z1,
    q = e^(-2 pi y) and e = 2q/(1 - q) >= |cot(pi z) + i|, S_1, S_2, S_3 lie
    within pi e, pi^2 e (2 + e), pi^3 (1 + e) e (2 + e) of their limits, so a
    row is at most b(m) = `tail` (1 - q_1); b(m)/q^m falls, so rows m, m+1, ...
    sum to at most `tail`.  Roundings: 64 of x^4 (1 + |z|) a row (x = pi (2 + e)
    / min(1, y) bounds its terms), one an addition, 16 a term f (h + 2 sum)."""
    ulp = mp.mpf(2) ** -(prec + 32)
    with mp.workprec(prec + 32):
        value = err = mp.mpf(0)
        for z1, f, h in terms:
            q1 = mp.exp(-2 * mp.pi * mp.im(z1))
            rows = mag = mp.mpf(0)
            for m in itertools.count(1):
                y, e = m * mp.im(z1), 2 * q1 ** m / (1 - q1 ** m)
                tail = mp.pi * e * (mp.pi ** 2 * (1 + e) * (2 + e) / y
                                    + mp.pi * (2 + e) / y ** 2 + 1 / y ** 3) / (1 - q1)
                if tail <= mp.mpf(2) ** -(prec + 7) / abs(f):
                    break
                rows += row(*_row_sums(m * z1), y)
                mag += (mp.pi * (2 + e) / min(1, y)) ** 4 * (1 + abs(m * z1))
            term = f * (h + 2 * rows)
            value += term
            err += (2 * abs(f) * (tail + (m + 64) * mag * ulp)
                    + 16 * (abs(term) + abs(value)) * ulp)
    with mp.workprec(prec):
        rounded = +value
    return BigReal(rounded, prec, err + abs(rounded - value))


def bertin_series(tau, prec: int = 64) -> BigReal:
    """m(P_k) = (Im tau / 8 pi^3) sum_j w_j sum' 2 Re(1/(l^3 conj l)) + 1/|l|^4,
    l = j m tau + n, at the CM point tau (Bertin).  Row m = 0 is 6 zeta(4); rows
    m and -m are equal, and row m is 2 Re A + B of _row_sums(j m tau), whose
    limit 2 (-pi/4y^3) + pi/2y^3 is 0."""
    if mp.im(tau) <= 0:
        raise ValueError("Im(tau) > 0 required")
    with mp.workprec(prec + 32):
        t = mp.mpc(tau)
        terms = [(j * t, w * mp.im(t) / (8 * mp.pi ** 3), 6 * mp.zeta(4))
                 for j, w in EK_WEIGHTS]
    return _lattice_sum(prec, terms, lambda a, b, y: 2 * mp.re(a) + mp.re(b))


def bertin_series_for_k(k: int, prec: int = 64) -> BigReal:
    """bertin_series at the tabulated CM point of k."""
    return bertin_series(exact_tau_value(k, prec + 32), prec)


def epstein_combo(prec: int = 128) -> BigReal:
    """(3 sqrt(30)/pi^3) sum sign Z(a, c) over EPSTEIN_FORMS.  Row m of Z(a, c) =
    sum' (a m^2 + c n^2)^-2 is c^-2 B at z = i m sqrt(a/c) (Chowla and Selberg,
    J. reine angew. Math. 227 (1967)); row 0 is 2 zeta(4)/c^2, and the limits
    pi/(2 c^2 y^3) of rows +-m sum to pi zeta(3)/(c^2 Y^3), Y = sqrt(a/c)."""
    with mp.workprec(prec + 32):
        terms = [(1j * mp.sqrt(mp.mpf(a) / c), sign * 3 * mp.sqrt(30) / (mp.pi ** 3 * c * c),
                  2 * mp.zeta(4) + mp.pi * mp.zeta(3) * mp.sqrt(mp.mpf(c) / a) ** 3)
                 for a, c, sign in EPSTEIN_FORMS]
    return _lattice_sum(prec, terms, lambda _, b, y: mp.re(b) - mp.pi / (2 * y ** 3))
