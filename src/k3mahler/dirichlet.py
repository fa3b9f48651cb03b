"""The Dirichlet term d3 = (3 sqrt(3) / 4 pi) L(chi_-3, 2) = m(x + y + 1), and
the Epstein combination that checks it.

``d3``, the whole right-hand side of m(P_0) and the second term of m(P_18),
and the zeta(3) of ``epstein_combo`` come from one central-binomial sum,
``_binomial_sums``; ``epstein_combo`` reaches (14/5) d3 another way, by the
lattice sums of `eisenstein`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bigreal import BigReal, pi_reals


def _binomial_sums(wp: int) -> tuple[int, int, int]:
    """(S+, S-, K): S+- = sum_{n<K} (+-1)^(n+1) floor(x_n), x_n = 2^wp /
    (n^3 C(2n, n)), K the first n with floor(x_n) = 0.  As x_(n+1)/x_n =
    n^3 / (2 (n+1)^2 (2n+1)) < 1/4, the tail sum_{n>=K} x_n is below 4/3 unit
    (the alternating one below x_K < 1)."""
    splus, sminus, c, n = 0, 0, 1, 0
    while True:
        n += 1
        c = c * 2 * (2 * n - 1) // n
        t = (1 << wp) // (n ** 3 * c)
        if not t:
            return splus, sminus, n
        splus += t
        sminus += t if n % 2 else -t


def d3(prec: int) -> BigReal:
    """d3 = (3 sqrt(3) / 4 pi) L(chi_-3, 2) = m(x + y + 1) = (3 S+ + 10 S-) / (2 pi^2),
    by Zucker's S+ = (pi sqrt(3)/2) L(chi_-3, 2) - (4/3) zeta(3) (J. Number
    Theory 20 (1985)) and zeta(3) = (5/2) S-.  3 S+ + 10 S- weighs odd n by 13
    and even n by -7, so its K - 1 floors and its tail leave it within
    13 (K - 1) + 13 (4/3) < 13 K + 18 units of `_binomial_sums`.  The products
    by 1/pi (within 2 units) and 1/2 take that below 2K/3 + 6 units, K < wp/2,
    which the prec.bit_length() + 8 guard bits put under 2^-(prec+1): with the
    final rounding, d3 is within 2^-prec."""
    wp = prec + prec.bit_length() + 8
    splus, sminus, K = _binomial_sums(wp)
    inv_pi = pi_reals(wp)[1]
    return (BigReal.fixed(3 * splus + 10 * sminus, wp, 13 * K + 18)
            * inv_pi * inv_pi * Fraction(1, 2)).round_to(prec)


def _zeta3(wp: int) -> BigReal:
    """zeta(3) = (5/2) S- at wp bits: S- of `_binomial_sums` is within its
    K - 1 floors and its alternating tail, under K units, so 5 S- / 2 with its
    floor is within 5K/2 + 1/2 <= 5K//2 + 2."""
    _, sminus, K = _binomial_sums(wp)
    return BigReal.fixed(5 * sminus >> 1, wp, 5 * K // 2 + 2)


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
