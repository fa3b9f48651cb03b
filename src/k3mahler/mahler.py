"""Numerical Mahler-measure evaluators for P_k = x + 1/x + y + 1/y + z + 1/z - k.

Two independent routes:

* ``mahler_quadrature`` -- Jensen's formula in z and the AGM period of
  m(x + 1/x + y + 1/y - c) leave a one-dimensional integral of K times an
  arccosine; tanh-sinh quadrature (Takahasi and Mori, Publ. RIMS 9 (1974)),
  split at the integrand's three singular points, reaches the float64 floor
  in 1-6 ms, in pure Python.
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
# One-dimensional AGM quadrature
# ---------------------------------------------------------------------------

# Tanh-sinh abscissae t = j h run over |t| <= _TS_TMAX: at t = 3.5 the weight
# is below 1e-20, and every integrand here is at most logarithmic at its ends.
_TS_TMAX = 3.5
# h = 1, 1/2, ..., 2^-_TS_LEVELS; each level adds the odd multiples of h
_TS_LEVELS = 8
_HALF_PI = math.pi / 2.0
# the end ratio (|k| - 2)/4 of [4, |k| - 2] at k = 100, beyond which that
# segment is split geometrically into pieces of at most this ratio
_MAX_RATIO = 24.5


def _tanh_sinh_nodes(h: float, odd: bool) -> list[tuple[float, bool, float]]:
    """Tanh-sinh nodes t = j h, |t| <= _TS_TMAX (odd j only, if odd), on
    [0, 1] as (gap, upper, weight / h): x = tanh(s), s = (pi/2) sinh t, and
    the node (1 + x)/2 lies gap = e^-|s| / (2 cosh s) from its lower end
    (upper False) or its upper end.  The gap is computed directly, not from
    1 - tanh, so a node can sit within 1e-20 of an endpoint singularity."""
    n = math.floor(_TS_TMAX / h)
    out = []
    for j in range(-n, n + 1):
        if odd and j % 2 == 0:
            continue
        t = j * h
        s = _HALF_PI * math.sinh(t)
        cs = math.cosh(s)
        out.append((0.5 * math.exp(-abs(s)) / cs, t > 0,
                    0.5 * _HALF_PI * math.cosh(t) / (cs * cs)))
    return out


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of a >= b > 0; stopped when a - b <= 1e-10 a,
    after which (a + b)/2 is within 1e-21 a of the limit."""
    while a - b > 1e-10 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _acos(one_minus: float, one_plus: float) -> float:
    """acos(clip(x)) = 2 atan(sqrt((1 - x)/(1 + x))) from 1 - x and 1 + x."""
    if one_minus <= 0.0:
        return 0.0
    if one_plus <= 0.0:
        return math.pi
    return 2.0 * math.atan2(math.sqrt(one_minus), math.sqrt(one_plus))


def _period_integrand(k: float, t: float, o4: float, o_km2: float, o_kp2: float,
                      o_2mk: float) -> float:
    """g(t) mu_k(t) for k >= 0, given o_c = t - c for c = 4, k - 2, k + 2, 2 - k.

    g(t) = K(t/4)/(2 pi) = 1/(4 M(1, k')) for t < 4 and 2 K(4/t)/(pi t) =
    1/(t M(1, k')) above, K(m) = pi / 2 M(1, sqrt(1 - m^2)); the complementary
    modulus k' is taken from o4.  mu_k(t) = 1 - (acos((k - t)/2) -
    acos((k + t)/2))/pi, whose arguments meet +-1 at t = k - 2, k + 2, 2 - k.
    """
    if o4 < 0.0:
        g = 0.25 / _agm(1.0, 0.25 * math.sqrt(-o4 * (8.0 + o4)))
    else:
        # k' = sqrt(t^2 - 16)/t rounds to 1 long before t^2 overflows
        kp = math.sqrt(o4 * (8.0 + o4)) / t if o4 < 1e150 else 1.0
        g = 1.0 / (t * _agm(1.0, kp))
    a = _acos(0.5 * o_km2, -0.5 * o_kp2)
    b = _acos(-0.5 * o_2mk, 0.5 * (k + 2.0 + t))
    return g * (1.0 - (a - b) / math.pi)


def mahler_quadrature(k: float, tol: float = 1e-8) -> BigReal:
    """m(P_k) by tanh-sinh quadrature of one AGM period.

    With m2(c) = m(x + 1/x + y + 1/y - c), Jensen's formula in z gives
    m(P_k) = pi^-1 int_0^pi m2(|k - 2 cos a|) da, and m2(0) = 0 with m2' = g,
    g(t) = K(t/4)/(2 pi) for t < 4 and 2 K(4/t)/(pi t) for t > 4: the period
    of Rodriguez-Villegas, "Modular Mahler measures I" (1999), behind Rogers'
    3F2 formula for m2 (IMRN 2011).  Swapping the integrals gives
    m(P_k) = int_0^(|k|+2) g(t) mu_k(t) dt, mu_k(t) the share of a in [0, pi]
    with |k - 2 cos a| > t (and m(P_k) = m(P_-k)).  It is split at |k - 2|, 4
    and |k| + 2, the kinks of mu and the logarithm of K, so tanh-sinh
    converges double-exponentially; past k = 100, [4, |k| - 2] is split
    geometrically into pieces of end ratio at most _MAX_RATIO, on each of
    which g ~ 1/t is as tame as at k = 100.  Differences that vanish at a
    segment end come from the node's gap.  The step is halved, reusing the earlier nodes,
    until two levels agree exactly or the level cap is reached.  The error
    estimate is |I_h - I_{h/2}| plus four ulps of the value (an estimate, as
    QUADPACK's was); tol only decides whether ToleranceNotReached is raised.
    """
    k = abs(float(k))
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    top = k + 2.0
    ends = {0.0, abs(k - 2.0), top} | ({4.0} if top > 4.0 else set())
    ratio = (k - 2.0) / 4.0
    if ratio > _MAX_RATIO:
        n = math.ceil(math.log(ratio) / math.log(_MAX_RATIO))
        ends |= {4.0 * ratio ** (i / n) for i in range(1, n)}
    ends = sorted(ends)
    marks = (4.0, k - 2.0, k + 2.0, 2.0 - k)
    terms: list[float] = []
    value, diff = None, math.inf
    for level in range(_TS_LEVELS + 1):
        h = 2.0 ** -level
        for gap, upper, weight in _tanh_sinh_nodes(h, odd=level > 0):
            for lo, hi in zip(ends, ends[1:]):
                length = hi - lo
                d = length * gap
                t, d_lo, d_hi = (hi - d, length - d, d) if upper else (lo + d, d, length - d)
                offsets = [d_lo if c == lo else -d_hi if c == hi else t - c for c in marks]
                terms.append(length * weight * _period_integrand(k, t, *offsets))
        new = h * math.fsum(terms)
        if value is not None:
            diff = abs(new - value)
        value = new
        if diff == 0.0:
            break
    bound = diff + 4.0 * math.ulp(value)
    if not bound <= tol:    # a NaN bound certifies nothing
        raise ToleranceNotReached(value, bound, tol)
    return BigReal.with_bound(value, bound, kind="estimate")


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
