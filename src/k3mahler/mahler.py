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
  four sublattices j*m*tau + n (j = 1, 2, 3, 6; weights -4, 16, -36, 144),
  summed over symmetric boxes and Richardson-extrapolated in the box size.

The modular side (Dedekind eta, the eta-quotient parametrization w(tau) and
its inverse) runs in mpmath at a caller-chosen precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from .bigreal import BigReal
from .lattices import tau_table

EK_WEIGHTS = ((1, -4.0), (2, 16.0), (3, -36.0), (6, 144.0))


class ToleranceNotReached(RuntimeError):
    """Quadrature could not certify the requested tolerance.

    Carries the best estimate and the achieved error bound.
    """

    def __init__(self, estimate: float, achieved: float, requested: float):
        super().__init__(f"requested abs tol {requested:g}, achieved {achieved:g}")
        self.estimate = estimate
        self.achieved = achieved
        self.requested = requested


class NewtonNonConvergence(RuntimeError):
    pass


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


# ---------------------------------------------------------------------------
# Dedekind eta and the modular parametrization
# ---------------------------------------------------------------------------

def eta(tau, prec: int = 128, n_terms: Optional[int] = None):
    """Dedekind eta via the truncated q-product, correct to ~2^-prec.

    The truncation length is chosen so |q|^N clears the target precision
    plus guard bits; n_terms overrides it (used by the convergence tests).
    """
    with mp.workprec(prec + 24):
        t = mp.mpc(tau)
        if mp.im(t) <= 0:
            raise ValueError("eta requires Im(tau) > 0")
        q = mp.exp(2j * mp.pi * t)
        if n_terms is None:
            n_terms = int((prec + 24) * math.log(2)
                          / (2 * math.pi * float(mp.im(t)))) + 4
        prod = mp.mpc(1)
        qn = mp.mpc(1)
        for _ in range(1, n_terms + 1):
            qn *= q
            prod *= (1 - qn)
        out = mp.exp(1j * mp.pi * t / 12) * prod
    with mp.workprec(prec):
        return +out


def w_of_tau(tau, prec: int = 128):
    """The sixth power of the eta quotient eta(t)eta(6t)/(eta(2t)eta(3t))."""
    with mp.workprec(prec + 24):
        t = mp.mpc(tau)
        num = eta(t, prec + 24) * eta(6 * t, prec + 24)
        den = eta(2 * t, prec + 24) * eta(3 * t, prec + 24)
        out = (num / den) ** 6
    with mp.workprec(prec):
        return +out


def k_of_tau(tau, prec: int = 128):
    """k = w + 1/w under the modular parametrization."""
    with mp.workprec(prec + 24):
        w = w_of_tau(tau, prec + 24)
        out = w + 1 / w
    with mp.workprec(prec):
        return +out


@dataclass(frozen=True)
class CMPoint:
    tau: mp.mpc
    source: str  # "table" | "numeric-inversion"


def exact_tau_value(k: int, prec: int = 128):
    """mpmath value of the tabulated CM point (A + sqrt(B))/C."""
    rec = tau_table(k)
    with mp.workprec(prec):
        return (rec.A + mp.sqrt(mp.mpf(rec.B))) / rec.C


def tau_of_k(k, prec: int = 128, max_iter: int = 80) -> CMPoint:
    """CM point for tabulated k, else Newton inversion of w(tau) = w(k).

    The numeric branch requires k > 4 so that w = (k - sqrt(k^2 - 4))/2 lies in
    (0, 1) and tau can be taken purely imaginary, seeded by the leading-order
    inversion w ~ q^(1/2).
    """
    if isinstance(k, int) or (isinstance(k, float) and k.is_integer()):
        ki = int(k)
        try:
            return CMPoint(exact_tau_value(ki, prec), "table")
        except ValueError:
            pass
    k = float(k)
    if k <= 4:
        raise ValueError("numeric inversion implemented for k > 4 only "
                         "(tabulated k handled exactly)")
    with mp.workprec(prec + 32):
        kk = mp.mpf(k)
        w = (kk - mp.sqrt(kk * kk - 4)) / 2
        t = mp.log(1 / w) / mp.pi  # from w ~ exp(pi i tau), tau = i t
        target = mp.mpf(2) ** (-(prec + 8))
        for _ in range(max_iter):
            f = mp.re(w_of_tau(1j * t, prec + 32)) - w
            if abs(f) < target:
                break
            h = t * mp.mpf(2) ** (-(prec + 32) // 2)
            fp = (mp.re(w_of_tau(1j * (t + h), prec + 32))
                  - mp.re(w_of_tau(1j * (t - h), prec + 32))) / (2 * h)
            if fp == 0:
                raise NewtonNonConvergence("zero derivative in Newton step")
            t = t - f / fp
        else:
            raise NewtonNonConvergence(
                f"no convergence to 2^-({prec}+8) in {max_iter} steps")
        out = 1j * t
    with mp.workprec(prec):
        return CMPoint(+out, "numeric-inversion")


def fit_w_expansion(n_coeffs: int = 6, prec: int = 220) -> list:
    """Leading coefficients of w in the variable q^(1/2), fitted from values.

    Evaluates w at purely imaginary tau = i*t for n_coeffs values of t and
    solves the Vandermonde system in q = exp(2 pi i tau); with large t the
    truncation leakage is far below the fit's working precision.
    """
    with mp.workprec(prec):
        ts = [mp.mpf(3) / 2 + mp.mpf(j) / 4 for j in range(n_coeffs)]
        rows, rhs = [], []
        for t in ts:
            tau = 1j * t
            q = mp.exp(-2 * mp.pi * t)
            qhalf = mp.exp(-mp.pi * t)
            w = mp.re(w_of_tau(tau, prec))
            rows.append([q ** i for i in range(n_coeffs)])
            rhs.append(w / qhalf)
        sol = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
        return [+sol[i] for i in range(n_coeffs)]


# ---------------------------------------------------------------------------
# Eisenstein-Kronecker series
# ---------------------------------------------------------------------------

def _ek_box_sum(re_tau: float, im_tau: float, box: int) -> float:
    """Weighted sum over the four sublattices for one symmetric box size.

    For lam = j m tau + n the summand 2 Re(1/(lam^3 conj(lam))) +
    1/(lam^2 conj(lam)^2) equals (3 x^2 - y^2)/(x^2 + y^2)^3 with
    x = n + j m Re(tau), y = j m Im(tau); everything is summed in float64
    rows (pairwise) and the rows are reduced with exact fsum in a fixed order.
    """
    rows = []
    for j, weight in EK_WEIGHTS:
        nn = np.arange(-j * box, j * box + 1, dtype=np.float64)
        nn_m0 = nn[nn != 0.0]
        for m in range(-box, box + 1):
            n = nn_m0 if m == 0 else nn
            x = n + j * m * re_tau
            y = j * m * im_tau
            r2 = x * x + y * y
            rows.append(weight * float(np.sum((3.0 * x * x - y * y) / (r2 * r2 * r2))))
    return math.fsum(rows)


def bertin_series(tau, box: int = 256) -> BigReal:
    """Eisenstein-Kronecker evaluation of m(P_k) at the CM point tau.

    Sums symmetric boxes |m| <= M, |n| <= j*M for M = box/4, box/2, box (the
    tail decays like 1/M^2), applies two Richardson stages on the 1/M^2
    ladder, and reports the final extrapolation spread as the error estimate.
    """
    if box < 16:
        raise ValueError("box must be >= 16")
    re_tau, im_tau = float(mp.re(mp.mpc(tau))), float(mp.im(mp.mpc(tau)))
    if im_tau <= 0:
        raise ValueError("Im(tau) > 0 required")
    s1 = _ek_box_sum(re_tau, im_tau, box // 4)
    s2 = _ek_box_sum(re_tau, im_tau, box // 2)
    s3 = _ek_box_sum(re_tau, im_tau, box)
    r1 = (4.0 * s2 - s1) / 3.0
    r2 = (4.0 * s3 - s2) / 3.0
    rr = (16.0 * r2 - r1) / 15.0
    scale = im_tau / (8.0 * math.pi ** 3)
    # extrapolation spread, padded: the spread alone can undershoot the tail
    est = 4.0 * abs(rr - r2) * scale + 1e-12
    return BigReal.with_bound(rr * scale, est, kind="estimate")


def bertin_series_for_k(k: int, prec: int = 64) -> BigReal:
    """bertin_series at the tabulated CM point of k."""
    return bertin_series(exact_tau_value(k, prec))
