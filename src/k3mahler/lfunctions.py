"""Hecke L-series from explicit binary-quadratic-form sums, Dirichlet L-values,
the constant d3, and twisting.

The three Hecke series are encoded exactly as signed lists of positive
definite binary quadratic forms with degree-2 numerators; their Dirichlet
coefficients come from direct lattice-point enumeration, so every value here
is independent of the quadrature route.  L(phi, 3) is the smoothed sum of the
functional equation (``smoothed_lvalue``): 64-182 coefficients give it to
2^-128 with a rigorous bound, after a check that the functional equation
holds.  ``identity_rhs`` sums a `Surface` record's right-hand side from them,
the only place it is summed.  The Epstein combination that checks the d3
term lives with the other lattice sums in ``mahler``.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .bigreal import (BigReal, bernoulli_even, bound_units, e1_values, exp_neg,
                      n2_tail_log2, pi_reals)


# ---------------------------------------------------------------------------
# Quadratic-form series
# ---------------------------------------------------------------------------

class QuadFormTerm(namedtuple("QuadFormTerm", (
        "form",             # (a, b, c): a m^2 + b mk + c k^2, positive definite
        "numerator",        # (p, q, r): p m^2 + q mk + r k^2
        "sign",             # +1 or -1
        "numerator_bound",  # sup |numerator| / form over the real plane
))):
    __slots__ = ()

    def __new__(cls, form, numerator, sign, numerator_bound):
        a, b, c = form
        if a <= 0 or 4 * a * c - b * b <= 0:
            raise ValueError("form is not positive definite")
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        return super().__new__(cls, form, numerator, sign, numerator_bound)


class QuadFormSeries(namedtuple("QuadFormSeries", "disc prefactor terms")):
    """prefactor (a Fraction) times the signed sum of the terms."""

    __slots__ = ()

    def coeff_bound(self) -> float:
        """C with |A_n| <= C n^2 for every n >= 1.

        Each term contributes |numerator| <= numerator_bound * n at each of
        its r(n) representations, and r(n) <= 2 (2 sqrt(4 a n / disc4) + 1):
        at most two m for each k with disc4 k^2 <= 4 a n.
        """
        total = 0.0
        for t in self.terms:
            a, b, c = t.form
            total += t.numerator_bound * (4 * math.sqrt(4 * a / (4 * a * c - b * b)) + 2)
        return float(self.prefactor) * total


# The three explicit lattice sums.  The degree-2 numerator printed for the
# disc -15 series carries an obvious k^3/k^2 typo; the k^2 form below is the
# one that reproduces the coefficient table (A_2 = -1).
FORM_SERIES = {
    -24: QuadFormSeries(-24, Fraction(1, 2), (
        QuadFormTerm((1, 0, 6), (1, 0, -6), 1, 1),
        QuadFormTerm((2, 0, 3), (-2, 0, 3), 1, 1),
    )),
    -15: QuadFormSeries(-15, Fraction(1, 4), (
        QuadFormTerm((1, 1, 4), (2, 2, -7), 1, 2),
        QuadFormTerm((2, 1, 2), (1, 8, 1), -1, 2),
    )),
    -120: QuadFormSeries(-120, Fraction(1, 2), (
        QuadFormTerm((5, 0, 6), (5, 0, -6), 1, 1),
        QuadFormTerm((10, 0, 3), (10, 0, -3), -1, 1),
        QuadFormTerm((15, 0, 2), (15, 0, -2), 1, 1),
        QuadFormTerm((30, 0, 1), (30, 0, -1), -1, 1),
    )),
}


def form_coefficients(series: QuadFormSeries, N: int) -> list[int]:
    """Dirichlet coefficients A_n of the form series by lattice enumeration.

    A_n = prefactor * sum over terms of sign * sum_{Q(m,k)=n} N(m,k), with the
    (m, k) range bounded from positive definiteness.  Exact integers: A_n is
    the list's entry n, for 1 <= n <= N (entry 0 unused).
    """
    if N < 2:
        raise ValueError("N >= 2 required")
    acc = [0] * (N + 1)
    for term in series.terms:
        a, b, c = term.form
        p, q, r = term.numerator
        disc4 = 4 * a * c - b * b
        kmax = math.isqrt(4 * a * N // disc4) + 1
        for k in range(-kmax, kmax + 1):
            # a m^2 + b m k + c k^2 <= N: m in a window around -bk/2a
            rad = N - disc4 * k * k / (4.0 * a)
            if rad < 0:
                continue
            half = math.sqrt(rad / a)
            mid = -b * k / (2.0 * a)
            for m in range(math.floor(mid - half) - 1, math.ceil(mid + half) + 2):
                n = (a * m + b * k) * m + c * k * k
                if 1 <= n <= N:
                    acc[n] += term.sign * ((p * m + q * k) * m + r * k * k)
    num, den = series.prefactor.numerator, series.prefactor.denominator
    if any(v * num % den for v in acc):
        raise ArithmeticError("form coefficients are not integral")
    return [v * num // den for v in acc]


def _s(x: float, k: int) -> float:
    """sum_{n>=1} n^k x^n for k = 1, 2, 3 and 0 <= x < 1."""
    return x * (1, 1 + x, 1 + 4 * x + x * x)[k - 1] / (1 - x) ** (k + 1)


def smoothed_lvalue(series: QuadFormSeries, prec: int) -> BigReal:
    """L(phi, 3) for the form series by the smoothed sum of its functional
    equation (Dokchitser, Exp. Math. 13 (2004)), with a rigorous bound.

    With level N = |disc|, u = 2 pi / sqrt(N) and A = 1/u, Lambda(s) =
    A^s Gamma(s) L(s) = Lambda(3 - s) for the three series, and splitting the
    Mellin integral of theta(y) = sum a_n e^(-n u y) at y = 1 gives
        L(3) = sum_n a_n [e^-nu (u^2/n + 2u/n^2 + 2/n^3) + u^3 E_1(nu)] / 2.
    The tail past M is below 6 C sum_{n>M} n^2 e^-nu u^3/2 (|a_n| <= C n^2 by
    QuadFormSeries.coeff_bound; the bracket is below 6 e^-x for x >= 1),
    which picks M.  On integers at wp bits u is within 2 units, e^-nu (powers
    of exp_neg(u)) within 2n and E_1 within e1_values' bound, so with one
    floor per product the n-th bracket is within 2n (u^2 + 2u + 2) + u^3 e1
    + 4 units, counted times |a_n|; the rounded u~ costs 2 units times
    |dL/du| <= C u^2 sum n^2 e^-nu (1 + 1.5/nu).  Before the sum is trusted,
    theta(1/y) = y^3 theta(y) is checked at y = 5/4 within the same kind of
    tail, rounding and u~ bounds, or ArithmeticError is raised.
    """
    N, C = abs(series.disc), series.coeff_bound()
    A = math.sqrt(N) / (2 * math.pi)
    # the least M with the tail below 2^-(prec + 4); M + 1 > 2.5 A keeps the
    # geometric ratios of the theta tails below 1
    scale = math.log2(3 * C / A ** 3)
    M = max(math.ceil(2.5 * A), int(A * (prec + 4) * math.log(2)))
    while n2_tail_log2(1 / A, M) + scale > -(prec + 4):
        M += 1
    wp = prec + 64
    U = (pi_reals(wp)[0].man << wp + 1) // math.isqrt(N << 2 * wp)
    co = form_coefficients(series, M)
    e1, e1_err = e1_values(U, wp, co)
    q, q_inv, q_y = exp_neg(U, wp), exp_neg(4 * U // 5, wp), exp_neg(5 * U >> 2, wp)
    U2, U3 = U * U, U ** 3 >> 2 * wp
    cm, u3m = (U2 >> 2 * wp) + 2 * (U >> wp) + 5, (U3 >> wp) + 1
    qn = qn_inv = qn_y = 1 << wp
    total = err = theta_inv = theta_y = theta_err = 0
    for n in range(1, M + 1):
        qn, qn_inv, qn_y = qn * q >> wp, qn_inv * q_inv >> wp, qn_y * q_y >> wp
        a_n = co[n]
        if a_n == 0:
            continue
        w = (U2 * n + (U << wp + 1)) * n + (1 << 2 * wp + 1)
        total += a_n * (qn * w // (n ** 3 << 2 * wp) + (U3 * e1[n] >> wp))
        err += abs(a_n) * (2 * n * cm + u3m * e1_err + 4)
        # 4u/5 and 5u/4 are floored, so their powers are within 3n units
        theta_inv += a_n * qn_inv
        theta_y += a_n * qn_y
        theta_err += abs(a_n) * 9 * n
    u = U / (1 << wp)
    slack = (bound_units(math.log2(C) + n2_tail_log2(0.8 * u, M), wp)
             + bound_units(math.log2(C * 125 / 64) + n2_tail_log2(1.25 * u, M), wp)
             + theta_err + math.ceil(2.02 * C * (0.8 * _s(math.exp(-0.8 * u), 3)
                                                 + 1.25 ** 4 * _s(math.exp(-1.25 * u), 3))))
    if abs(64 * theta_inv - 125 * theta_y) > 64 * slack:
        raise ArithmeticError(
            f"theta(1/y) != y^3 theta(y) at level {N}: the functional "
            "equation does not hold, so the smoothed sum does not give L(3)")
    # the value is total / 2, at wp + 1 bits; 2 units of u~ are 4 there
    err += (bound_units(n2_tail_log2(1 / A, M) + scale, wp + 1)
            + math.ceil(4.04 * C * u * (u * _s(math.exp(-u), 2) + 1.5 * _s(math.exp(-u), 1))))
    value = BigReal.fixed(total, wp + 1, err).round_to(prec)
    value.terms = M
    return value


# ---------------------------------------------------------------------------
# Dirichlet L(chi_-3, 2) and d3
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# The right-hand side of an identity
# ---------------------------------------------------------------------------

def identity_rhs(surf, prec: int) -> tuple[BigReal, str, BigReal | None]:
    """(value, method, d3 term or None) of the right-hand side
    (r sqrt(n) / pi^3) L(phi_disc, 3) + d3_coeff * d3 of a `Surface` record,
    prefactor = (r, n), at prec bits; a term with no disc or d3_coeff 0 is
    left out.  The prefactor is a BigReal product at prec + 10 bits, its
    roundings in its bound; the value carries the smoothed sum's `terms`."""
    parts, terms, d3_term, M = [], [], None, None
    if surf.disc is not None:
        r, n = surf.prefactor
        wp, inv_pi = prec + 10, pi_reals(prec + 10)[1]
        pref = (inv_pi * inv_pi * inv_pi * BigReal.fixed(math.isqrt(n << 2 * wp), wp, 1)
                * r).round_to(prec)
        lv = smoothed_lvalue(FORM_SERIES[surf.disc], prec)
        parts.append(pref * lv)
        terms.append(f"({float(pref):.10g}) * L(phi_{surf.disc}, 3)")
        M = lv.terms
    if surf.d3_coeff:
        c = surf.d3_coeff
        d3_term = BigReal.exactly(c, prec) * d3(prec)
        parts.append(d3_term)
        terms.append(f"({c}) d3" if terms else "(3*sqrt(3)/4pi) L(chi_-3, 2)")
    value = sum(parts)
    value.terms = M
    return value, " + ".join(terms), d3_term


# ---------------------------------------------------------------------------
# Twisting
# ---------------------------------------------------------------------------

def twist_coeff(a_p: int, d: int, p: int) -> int:
    """The twisted coefficient (d/p) a_p at an odd prime p not dividing d."""
    from .pointcount import legendre
    if d % p == 0:
        raise ValueError(f"p={p} divides the twisting discriminant {d}; "
                         "the twisted coefficient is not (d/p) a_p there")
    return legendre(d, p) * a_p
