"""The Eisenstein-Kronecker lattice sums for m(P_k) at the tabulated CM point.

``bertin_series`` sums the weighted double sums over the four sublattices
j*m*tau + n (j = 1, 2, 3, 6; weights -4, 16, -36, 144), on integers at a
caller-chosen precision.  Each row is a sum over n of 1/(u^3 v) and
1/(u^2 v^2), u = n + z, v = n + conj z, which partial fractions and
cot(pi z) give in closed form in q = e^(2 pi i z); summed by divisors, the
rows of the four sublattices become one q-series (``lattice_sum``) whose q^P
are 12th roots of unity times powers e^(-2 pi P Im tau), as every Re(j tau)
is a multiple of 1/12, so the sum comes with a rigorous bound.  The Epstein
combination behind the d3 term (`dirichlet.epstein_combo`) shares the kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bigreal import BigReal, bound_units, exp_neg, n2_tail_log2, pi_reals
from .surfaces import tau_table


def exact_tau_value(k: int, prec: int) -> tuple[Fraction, BigReal]:
    """The tabulated CM point (A + sqrt(B))/C as (Re tau, Im tau): a Fraction
    and sqrt(-B)/C at prec bits (the floored root, floored again by C)."""
    rec = tau_table(k)
    return Fraction(rec.A, rec.C), BigReal.fixed(
        math.isqrt(-rec.B << 2 * prec) // rec.C, prec, 2)


EK_WEIGHTS = ((1, -4), (2, 16), (3, -36), (6, 144))
# 2 cos(2 pi t / 12) = a + b sqrt(3) for t = 0..11, as (a, b)
_COS_TWELFTHS = ((2, 0), (0, 1), (1, 0), (0, 0), (-1, 0), (0, -1),
                 (-2, 0), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1))


def lattice_sum(x: BigReal, prec: int, t: int, e: int) -> BigReal:
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
    rows = lattice_sum(2 * pi * y, prec, int(t), 1)
    r = math.exp(-2 * math.pi * float(im))
    sens = Fraction(math.pi * (1 + 19.3 * r * (1 + 4 * r + r * r) / (1 - r) ** 4) * 1.01)
    value = pi * y - 2 * rows + BigReal.with_bound(0, sens * im.error_bound, wp)
    value = value.round_to(prec)
    value.terms = rows.terms
    return value


def bertin_series_for_k(k: int, prec: int) -> BigReal:
    """bertin_series at the tabulated CM point of k."""
    return bertin_series(exact_tau_value(k, prec + 32), prec)


def subchecks(k: int, prec: int, exact: BigReal) -> list[dict]:
    """`verify`'s EK stage: the series of k at prec bits against `exact`."""
    bs = bertin_series_for_k(k, prec)
    return [{"name": "eisenstein-kronecker-series", "pass": bs.consistent_with(exact),
             "provenance": "weighted lattice sums at the CM point",
             "value": float(bs.value), "diff": float(bs.abs_diff(exact)),
             "error_bound": float(bs.error_bound + exact.error_bound),
             "prec": bs.prec, "terms": bs.terms}]
