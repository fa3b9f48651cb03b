"""Numerical Mahler-measure evaluators for P_k = x + 1/x + y + 1/y + z + 1/z - k.

Two independent routes:

* ``mahler_quadrature`` -- Jensen's formula in z and the AGM period of
  m(x + 1/x + y + 1/y - c) leave a one-dimensional integral of K times an
  arccosine; tanh-sinh quadrature (Takahasi and Mori, Publ. RIMS 9 (1974)),
  split at the integrand's three singular points, reaches the float64 floor
  in 1-6 ms, in pure Python.
* ``bertin_series`` -- the weighted Eisenstein-Kronecker double sums over the
  four sublattices j*m*tau + n (j = 1, 2, 3, 6; weights -4, 16, -36, 144) at
  the tabulated CM point, on integers at a caller-chosen precision.

The lattice sums here, the Eisenstein-Kronecker series and the weight-0
Epstein combination behind the d3 term of m(P_18) (``epstein_combo``), share
one kernel: each row of either sum is a sum over n of 1/(u^3 v) and
1/(u^2 v^2), u = n + z, v = n + conj z, which partial fractions and
cot(pi z) give in closed form in q = e^(2 pi i z); summed by divisors, the
rows of the four sublattices become one q-series (``_lattice_sum``) whose
q^P are 12th roots of unity times powers e^(-2 pi P Im tau), as every
Re(j tau) is a multiple of 1/12, so both sums come with a rigorous bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bigreal import BigReal, bound_units, exp_neg, n2_tail_log2, pi_reals
from .surfaces import tau_table


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


def exact_tau_value(k: int, prec: int) -> tuple[Fraction, BigReal]:
    """The tabulated CM point (A + sqrt(B))/C as (Re tau, Im tau): a Fraction
    and sqrt(-B)/C at prec bits (the floored root, floored again by C)."""
    rec = tau_table(k)
    return Fraction(rec.A, rec.C), BigReal.fixed(
        math.isqrt(-rec.B << 2 * prec) // rec.C, prec, 2)


# ---------------------------------------------------------------------------
# Lattice sums: the Eisenstein-Kronecker series and the Epstein combination
# ---------------------------------------------------------------------------

EK_WEIGHTS = ((1, -4), (2, 16), (3, -36), (6, 144))
# 2 cos(2 pi t / 12) = a + b sqrt(3) for t = 0..11, as (a, b)
_COS_TWELFTHS = ((2, 0), (0, 1), (1, 0), (0, 0), (-1, 0), (0, -1),
                 (-2, 0), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1))


def _lattice_sum(x: BigReal, prec: int, t: int, e: int) -> BigReal:
    """sum_P beta(P) 2 cos(2 pi P t/12) r^P / P^e, r = e^-x, at x's bits wp,
    with `terms` M the least for which the tail, below 2 * 2.41 sum_{P>M}
    P^2 r^P, is under 2^-(prec + 8).  r is within x's bound plus a unit, its
    floored powers r^P within P times one more; each term is floored once
    into the rational or the sqrt(3) part, and the latter is multiplied by
    sqrt(3) (within a unit) once: all counted, term by term."""
    wp, alpha = x.prec, float(x)
    M = int(2 / alpha) + 1
    while (tail := n2_tail_log2(alpha, M) + math.log2(4.82)) > -(prec + 8):
        M += 1
    # beta(P) = sum_{j | (P, 6)} (w_j / 4) sigma_3(P / j), the q-expansion
    # coefficients of the weighted sublattices; |beta(P)| <= zeta(3) P^3
    # (1 + 4/8 + 9/27 + 36/216) < 2.41 P^3
    s3 = [0] * (M + 1)
    for d in range(1, M + 1):
        for m in range(d, M + 1, d):
            s3[m] += d ** 3
    beta = [sum(w // 4 * s3[P // j] for j, w in EK_WEIGHTS if P % j == 0)
            for P in range(M + 1)]
    R, r_err = exp_neg(x.man, wp), math.ceil(x.error_bound * (1 << wp)) + 2
    rp, rat, irr, err = 1 << wp, 0, 0, bound_units(tail, wp)
    for P in range(1, M + 1):
        rp = rp * R >> wp
        a, b = _COS_TWELFTHS[t * P % 12]
        y, d = beta[P] * rp, P ** e
        rat += a * y // d
        irr += b * y // d
        err += -(-2 * abs(beta[P]) * P * r_err // d) + 3
    value = BigReal.fixed(rat + (irr * math.isqrt(3 << 2 * wp) >> wp), wp,
                          err + (abs(irr) >> wp) + 2)
    value.terms = M
    return value


def bertin_series(tau, prec: int) -> BigReal:
    """m(P_k) = (Im tau / 8 pi^3) sum_j w_j sum' 2 Re(1/(l^3 conj l)) + 1/|l|^4,
    l = j m tau + n, at the CM point tau = (Re tau, Im tau) (Bertin): a
    rational with 12 Re tau an integer, so that every e^(2 pi i P Re tau) is
    a 12th root of unity, and a BigReal.

    Row m of sublattice j is pi^3 Re(w - w^3) / y at z = j m tau, y = Im z,
    w = (1 + q)/(1 - q), q = e^(2 pi i z), by partial fractions and
    pi cot(pi z) = -i pi w; with w - w^3 = -4 sum n^2 q^n, summing the rows
    by divisors leaves (row 0 is 6 zeta(4), and sum_j w_j = 120)
        m(P_k) = pi Im tau - 2 sum_P beta(P) 2 cos(2 pi P Re tau) r^P / P,
    r = e^(-2 pi Im tau).  Im tau's own bound costs it times
    |dm / d Im tau| <= pi (1 + 8 * 2.41 sum P^3 r^P)."""
    t, im = 12 * Fraction(tau[0]), tau[1]
    if t.denominator != 1:
        raise ValueError(f"12 Re(tau) = {t} is not an integer")
    if im.man <= 0:
        raise ValueError("Im(tau) > 0 required")
    wp = max(prec + 60, im.prec)
    y, pi = BigReal.fixed(im.man << wp - im.prec, wp), pi_reals(wp)[0]   # y = Im tau~
    rows = _lattice_sum(2 * pi * y, prec, int(t), 1)
    r = math.exp(-2 * math.pi * float(im))
    sens = Fraction(math.pi * (1 + 19.3 * r * (1 + 4 * r + r * r) / (1 - r) ** 4) * 1.01)
    value = pi * y - 2 * rows + BigReal.with_bound(0, sens * im.error_bound, wp)
    value = value.round_to(prec)
    value.terms = rows.terms
    return value


def bertin_series_for_k(k: int, prec: int) -> BigReal:
    """bertin_series at the tabulated CM point of k."""
    return bertin_series(exact_tau_value(k, prec + 32), prec)


def _zeta3(wp: int) -> BigReal:
    """zeta(3) = (5/2) sum_{k>=1} (-1)^(k+1) / (k^3 C(2k, k)) at wp bits: K floored
    terms and the alternating tail past the first zero, 5/2 (K + 1) units, and a floor."""
    total, c, k = 0, 1, 0
    while True:
        k += 1
        c = c * 2 * (2 * k - 1) // k
        t = (1 << wp) // (k ** 3 * c)
        if not t:
            break
        total += t if k % 2 else -t
    return BigReal.fixed(5 * total >> 1, wp, 5 * k // 2 + 2)


def epstein_combo(prec: int) -> BigReal:
    """(3 sqrt(30)/pi^3) sum sign Z(a, c) over the forms (a, c, sign) =
    (5, 6, -1), (10, 3, 1), (15, 2, -1), (30, 1, 1), Z(a, c) = sum'
    (a m^2 + c n^2)^-2.  Row m of Z(a, c) is c^-2 sum_n |n + z|^-4 at
    z = i m sqrt(a/c) (Chowla and Selberg, J. reine angew. Math. 227 (1967)),
    closed in q = e^(2 pi i z) as for bertin_series.  The forms are the
    sublattices j = 6/c of tau = i sqrt(30)/6, with sign j^2 = w_j / 4, so
    summing the rows by divisors gives, with r = e^(-pi sqrt(30)/3),
        sqrt(30) pi/18 - 2 zeta(3)/(5 pi^2)
            + sum_P beta(P) r^P (2 sqrt(30)/(5 pi P^2) + 6/(5 pi^2 P^3))."""
    wp = prec + 60
    pi, inv_pi = pi_reals(wp)
    s30 = BigReal.fixed(math.isqrt(30 << 2 * wp), wp, 1)
    x = pi * s30 * Fraction(1, 3)
    # the sums carry 2 cos = 2
    v2, v3 = (_lattice_sum(x, prec, 0, e) for e in (2, 3))
    value = (s30 * pi * Fraction(1, 18) - _zeta3(wp) * inv_pi * inv_pi * Fraction(2, 5)
             + v2 * s30 * inv_pi * Fraction(1, 5)
             + v3 * inv_pi * inv_pi * Fraction(3, 5)).round_to(prec)
    value.terms = v2.terms
    return value
