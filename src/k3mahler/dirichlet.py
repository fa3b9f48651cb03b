"""The Dirichlet term d3 = (3 sqrt(3) / 4 pi) L(chi_-3, 2) = m(x + y + 1), and
the Epstein combination that checks it.

``d3`` is the whole right-hand side of m(P_0) and the second term of
m(P_18); ``dirichlet_lvalue`` sums L(chi_-3, 2) with an Euler-Maclaurin tail
on exact Bernoulli numbers (``bernoulli_even``), and ``epstein_combo``
reaches (14/5) d3 another way, by the lattice sums of `eisenstein`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bigreal import BigReal, pi_reals


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


def dirichlet_lvalue(prec: int) -> BigReal:
    """L(chi_-3, 2) = sum chi(n)/n^2 by paired summation with an
    Euler-Maclaurin tail on f(j) = (3j+1)^-2 - (3j+2)^-2, each of the J head
    blocks and tail terms floored once at prec + 24 bits.  The k-th tail term
    is 3^(2k-1) B_2k (x1^-(2k+1) - x2^-(2k+1)), x1 = 3J + 1, x2 = 3J + 2; as
    (-1)^n f^(n) > 0 falls (f is g(x) - g(x + 1/3), g completely monotone),
    the remainder is below the last term, counted twice."""
    wp = prec + 24
    J = max(64, prec // 2)
    head = sum(((6 * j + 3) << wp) // ((3 * j + 1) * (3 * j + 2)) ** 2 for j in range(J))
    x1, x2 = 3 * J + 1, 3 * J + 2
    # int_J^inf f + f(J)/2
    tail = (1 << wp) // (3 * x1 * x2) + ((x1 + x2) << wp) // (2 * (x1 * x2) ** 2)
    for k, b in enumerate(bernoulli_even(prec // 8 + 16), 1):
        e = 2 * k + 1
        t = ((3 ** (2 * k - 1) * b.numerator * (x2 ** e - x1 ** e)) << wp) \
            // (b.denominator * (x1 * x2) ** e)
        tail += t
        if abs(t) << prec + 16 < 1 << wp:
            break
    return BigReal.fixed(head + tail, wp, J + k + 2 + 2 * abs(t)).round_to(prec)


def d3(prec: int) -> BigReal:
    """d3 = (3 sqrt(3) / 4 pi) L(chi_-3, 2) = m(x + y + 1)."""
    wp = prec + 8
    c = BigReal.fixed(math.isqrt(3 << 2 * wp), wp, 1) * pi_reals(wp)[1] * Fraction(3, 4)
    return (c * dirichlet_lvalue(wp)).round_to(prec)


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
    closed in q = e^(2 pi i z) as for `eisenstein.bertin_series`.  The forms are the
    sublattices j = 6/c of tau = i sqrt(30)/6, with sign j^2 = w_j / 4, so
    summing the rows by divisors gives, with r = e^(-pi sqrt(30)/3),
        sqrt(30) pi/18 - 2 zeta(3)/(5 pi^2)
            + sum_P beta(P) r^P (2 sqrt(30)/(5 pi P^2) + 6/(5 pi^2 P^3))."""
    from . import eisenstein
    wp = prec + 60
    pi, inv_pi = pi_reals(wp)
    s30 = BigReal.fixed(math.isqrt(30 << 2 * wp), wp, 1)
    x = pi * s30 * Fraction(1, 3)
    # the sums carry 2 cos = 2
    v2, v3 = (eisenstein.lattice_sum(x, prec, 0, e) for e in (2, 3))
    value = (s30 * pi * Fraction(1, 18) - _zeta3(wp) * inv_pi * inv_pi * Fraction(2, 5)
             + v2 * s30 * inv_pi * Fraction(1, 5)
             + v3 * inv_pi * inv_pi * Fraction(3, 5)).round_to(prec)
    value.terms = v2.terms
    return value


def subchecks(prec: int, d3_term: BigReal) -> list[dict]:
    """`verify`'s Epstein stage: the combination at prec bits against `d3_term`."""
    eps = epstein_combo(prec)
    return [{"name": "dirichlet-term-epstein", "pass": eps.consistent_with(d3_term),
             "provenance": "Chowla-Selberg rows of the weight-0 Epstein combination "
                           "vs (14/5) d3",
             "value": float(eps.value), "diff": float(eps.abs_diff(d3_term)),
             "error_bound": float(eps.error_bound + d3_term.error_bound),
             "prec": eps.prec, "terms": eps.terms}]
