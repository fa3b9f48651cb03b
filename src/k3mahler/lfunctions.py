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

import mpmath as mp

from .bigreal import BigReal


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


def _n2_tail(alpha, M: int):
    """Upper bound for sum_{n>M} n^2 e^(-alpha n), as an mpf.

    The ratio of consecutive terms, (1 + 1/n)^2 e^-alpha, falls with n, so the
    tail is below the geometric series started at n = M + 1 with the ratio at
    n = M + 1; that ratio is < 1 once M + 1 > 2/alpha.
    """
    ratio = (mp.mpf(M + 2) / (M + 1)) ** 2 * mp.exp(-alpha)
    if ratio >= 1:
        raise ValueError(f"M = {M} is too small for a geometric tail")
    return (M + 1) ** 2 * mp.exp(-alpha * (M + 1)) / (1 - ratio)


def smoothed_lvalue(series: QuadFormSeries, prec: int = 128) -> BigReal:
    """L(phi, 3) for the form series by the smoothed sum of its functional
    equation (Dokchitser, Exp. Math. 13 (2004)), with a rigorous bound.

    With level N = |disc| and A = sqrt(N) / 2 pi, the completed L-function
    Lambda(s) = A^s Gamma(s) L(s) satisfies Lambda(s) = Lambda(3 - s) for the
    three series.  Splitting the Mellin integral of
    theta(y) = sum a_n e^(-2 pi n y / sqrt(N)) at y = 1 gives

        L(3) = sum_n a_n [(A/n)^3 Gamma(3, n/A) + E_1(n/A)] / (2 A^3),

    with Gamma(3, x) = e^-x (x^2 + 2x + 2).  The terms fall like e^(-n/A), so
    M = O(A prec) coefficients from form_coefficients suffice.  The tail bound
    uses |a_n| <= C n^2 (QuadFormSeries.coeff_bound) and, for x = n/A >= 1,
    |term| <= 6 |a_n| e^-x; the rounding term allows 32 roundings of every
    summand and one per addition, at the working precision.

    Before the sum is trusted, theta(1/y) = y^3 theta(y) is checked at
    y = 5/4 within the same tail and rounding bounds; a series whose
    functional equation does not fit raises ArithmeticError.
    """
    N = abs(series.disc)
    C = series.coeff_bound()
    wp = prec + 20
    with mp.workprec(wp):
        A = mp.sqrt(N) / (2 * mp.pi)
        y = mp.mpf(5) / 4
        y3 = y ** 3
        scale = 1 / (2 * A ** 3)
        # the smallest M whose tail bound is below 2^-(prec + 4), searched
        # upward from where e^(-M/A) alone reaches it (M + 1 > 2.5 A keeps
        # both geometric ratios below 1)
        M = max(math.ceil(2.5 * A), int(A * (prec + 4) * math.log(2)))
        while 6 * C * _n2_tail(1 / A, M) * scale > mp.mpf(2) ** -(prec + 4):
            M += 1
        co = form_coefficients(series, M)
        theta_inv = theta_y = abs_theta = mp.mpf(0)    # theta(1/y), theta(y)
        total = abs_total = mp.mpf(0)
        for n in range(1, M + 1):
            a_n = co[n]
            if a_n == 0:
                continue
            x = n / A
            ex = mp.exp(-x)
            term = a_n * (ex * (1 / x + 2 / x ** 2 + 2 / x ** 3) + mp.e1(x))
            total += term
            abs_total += abs(term)
            at_inv, at_y = a_n * mp.exp(-x / y), a_n * mp.exp(-x * y)
            theta_inv += at_inv
            theta_y += at_y
            abs_theta += abs(at_inv) + y3 * abs(at_y)
        unit = (M + 32) * mp.mpf(2) ** -wp
        slack = (C * (_n2_tail(1 / (A * y), M) + y3 * _n2_tail(y / A, M))
                 + unit * abs_theta)
        if abs(theta_inv - y3 * theta_y) > slack:
            raise ArithmeticError(
                f"theta(1/y) != y^3 theta(y) at level {N}: the functional "
                "equation does not hold, so the smoothed sum does not give L(3)")
        value = total * scale
        err = (6 * C * _n2_tail(1 / A, M) + unit * abs_total) * scale
    with mp.workprec(prec):
        rounded = +value
    return BigReal(rounded, prec, err + abs(rounded - value))


# ---------------------------------------------------------------------------
# Dirichlet L(chi_-3, 2) and d3
# ---------------------------------------------------------------------------

def dirichlet_lvalue(prec: int = 128) -> BigReal:
    """L(chi_-3, 2) = sum chi(n)/n^2 by paired summation with an
    Euler-Maclaurin tail on f(j) = (3j+1)^-2 - (3j+2)^-2."""
    with mp.workprec(prec + 24):
        J = max(64, prec // 2)
        head = mp.fsum(mp.mpf(3 * j + 1) ** -2 - mp.mpf(3 * j + 2) ** -2
                       for j in range(J))
        # tail: sum_{j>=J} f(j) = int_J^inf f + f(J)/2 - sum B_2k/(2k)! f^(2k-1)(J)
        x1, x2 = mp.mpf(3 * J + 1), mp.mpf(3 * J + 2)
        tail = (1 / x1 - 1 / x2) / 3
        tail += (x1 ** -2 - x2 ** -2) / 2
        target = mp.mpf(2) ** (-(prec + 16))
        kterm = None
        for kk in range(1, 200):
            n = 2 * kk - 1
            # f^(n)(x) = (-3)^n (n+1)! [x1^-(n+2) - x2^-(n+2)]
            deriv = mp.mpf(-3) ** n * mp.factorial(n + 1) * (x1 ** -(n + 2) - x2 ** -(n + 2))
            kterm = -mp.bernoulli(2 * kk) / mp.factorial(2 * kk) * deriv
            tail += kterm
            if abs(kterm) < target:
                break
        value = head + tail
    with mp.workprec(prec):
        return BigReal(+value, prec, mp.mpf(2) ** (-(prec - 2)) + 2 * abs(kterm))


def d3(prec: int = 128) -> BigReal:
    """d3 = (3 sqrt(3) / 4 pi) L(chi_-3, 2) = m(x + y + 1)."""
    L = dirichlet_lvalue(prec)
    with mp.workprec(prec):
        c = 3 * mp.sqrt(3) / (4 * mp.pi)
        return BigReal(+(c * L.value), prec, c * L.error_bound + mp.mpf(2) ** (-(prec - 2)))


# ---------------------------------------------------------------------------
# The right-hand side of an identity
# ---------------------------------------------------------------------------

def identity_rhs(surf, prec: int) -> tuple[BigReal, str, BigReal | None]:
    """(value, method, d3 term or None) of the right-hand side
    (r sqrt(n) / pi^3) L(phi_disc, 3) + d3_coeff * d3 of a `Surface` record,
    prefactor = (r, n), at prec bits; a term with no disc or d3_coeff 0 is
    left out.  The prefactor's few roundings at prec + 10 bits and the last
    one to prec stay within the 2^-prec (|v| + 1) that BigReal.exactly allows."""
    parts, terms, d3_term = [], [], None
    if surf.disc is not None:
        r, n = surf.prefactor
        with mp.workprec(prec + 10):
            v = r.numerator * mp.sqrt(n) / (r.denominator * mp.pi ** 3)
        pref = BigReal.exactly(v, prec)
        parts.append(pref * smoothed_lvalue(FORM_SERIES[surf.disc], prec))
        terms.append(f"({mp.nstr(pref.value, 10)}) * L(phi_{surf.disc}, 3)")
    if surf.d3_coeff:
        c = surf.d3_coeff
        with mp.workprec(prec):
            coeff = BigReal.exactly(mp.mpf(c.numerator) / c.denominator, prec)
        d3_term = coeff * d3(prec)
        parts.append(d3_term)
        terms.append(f"({c}) d3" if terms else "(3*sqrt(3)/4pi) L(chi_-3, 2)")
    return sum(parts), " + ".join(terms), d3_term


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
