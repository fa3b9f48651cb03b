"""m(P_k), P_k = x + 1/x + y + 1/y + z + 1/z - k, by quadrature of one AGM period.

``mahler_quadrature`` -- Jensen's formula in z and the AGM period of
m(x + 1/x + y + 1/y - c) leave a one-dimensional integral of K times an
arccosine; tanh-sinh quadrature (Takahasi and Mori, Publ. RIMS 9 (1974)),
split at the integrand's three singular points, reaches the float64 floor in
1-6 ms, in pure Python.  The independent route, the Eisenstein-Kronecker
lattice sums at the CM point, is `eisenstein`.
"""

from __future__ import annotations

import math

from .bigreal import BigReal


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


def mahler_quadrature(k: float) -> BigReal:
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
    QUADPACK's was); whether it is small enough is the caller's to judge, and
    only a bound that is not finite raises.
    """
    k = abs(float(k))
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
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
    if not math.isfinite(bound):    # a NaN bound certifies nothing
        raise RuntimeError(f"quadrature of m(P_{k:g}): achieved {bound:g}")
    # 64 bits hold every float64 from 2^-11 up exactly
    return BigReal.with_bound(value, bound, prec=64, kind="estimate")
