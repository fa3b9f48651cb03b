"""The Hecke L-series from explicit binary-quadratic-form sums, their value
at s = 3, and twisting.

The three Hecke series are encoded exactly as signed lists of positive
definite binary quadratic forms with degree-2 numerators; their Dirichlet
coefficients come from direct lattice-point enumeration, so every value here
is independent of the quadrature route.  L(phi, 3) is the smoothed sum of the
functional equation (``smoothed_lvalue``): 64-182 coefficients give it to
2^-128 with a rigorous bound, after a check that the functional equation
holds: about 1 ms (3-6 ms at 400 bits), every E1(nu) from one downward
recurrence (``e1_values``).  `verify.identity_rhs` sums a `Surface` record's
right-hand side from it, and ``ap_subchecks`` checks the record's A_p.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .bigreal import BigReal, arctan_inv, bound_units, exp_neg, n2_tail_log2, pi_reals
from .surfaces import NEWFORM_AP


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


def _e1_scaled(X: int, wp: int, bits: int) -> int:
    """e^x E1(x) 2^wp, x = X 2^-wp >= 1, within 2 units plus 2^-bits.  As a
    Stieltjes function, int_0^inf e^-t dt / (x + t), it lies between any two
    successive convergents of 1/(x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...)))))
    (A&S 5.1.22); the loop stops when two are 2^-bits apart.  The recurrence,
    scaled by 2^wp at each x-step, has positive terms, so the shifts keeping
    q0 at wp + 80 bits (relative 2^-(wp+70) each) move the convergent by far
    under a unit in 2^20 steps; the final division adds one."""
    d, m = 1 << wp, 0
    p0, p1, q0, q1 = 1, 0, 0, 1
    while True:
        m += 1
        # the steps j = 2m - 1 (b_j = x, a_j = max(1, m - 1)) and j = 2m (1, m)
        a = d * max(1, m - 1)
        p0, p1 = p1, X * p1 + a * p0
        q0, q1 = q1, X * q1 + a * q0
        a = d * m
        p0, p1 = p1, p1 + a * p0
        q0, q1 = q1, q1 + a * q0
        if abs(p1 * q0 - p0 * q1) << bits <= q1 * q0:
            return (p1 << wp) // q1
        s = q0.bit_length() - wp - 80
        if s > 0:
            p0, p1, q0, q1 = p0 >> s, p1 >> s, q0 >> s, q1 >> s


def _ein(X: int, w: int) -> int:
    """sum_k>=1 (-1)^(k+1) x^k / (k k!) 2^w, x = X 2^-w, within e^x (ln K + 3)
    + K units for K terms: the floored x^k/k! are within e^x, the tail 2 e^x."""
    t, total, k = X, 0, 1
    while t:
        total += t // k if k % 2 else -(t // k)
        k += 1
        t = t * X // (k << w)
    return total


def e1_values(U: int, wp: int, M: int) -> list[int]:
    """[E1(n u) 2^wp for n = 0..M], u = U 2^-wp <= 4, M >= 2, M u >= 1:
    entries 1..M within 1 unit.  As E1(nu) - E1((n+1)u) = e^-(n+1)u int_0^1
    e^(u(1-t)) dt / (n + t) and 1/(n + t) = sum_i (-1)^i t^i / n^(i+1), one
    chain runs down from E1(Mu) = q^M _e1_scaled(Mu):
        E1(nu) = E1((n+1)u) + e^-(n+1)u sum_i>=0 (-1)^i H_i / n^(i+1),
    H_i = int_0^1 t^i e^(u(1-t)) dt = (1 + u H_(i+1)) / (i + 1) <= e^u/(i+1)
    falls, so for n >= 2 the terms alternate and fall; it closes at E1(u) =
    E1(2u) + ln 2 + Ein(u) - Ein(2u), ln 2 = 2 atanh(1/3).  In units 2^-w,
    w = wp + g, E >= e^u: P_n = q^n, floored powers of q = exp_neg(u), are
    within 2n.  H_i, from H_I = 0, errs by 2 + u eps_(i+1)/(i+1), so by
    2 e^u + 1: the start's error, below e^u 2^w, reaches H_i times at most
    e^u (u/(K+1))^(I-K) <= e^u 2^-w / E^2, K = max(w, E) - 2.  Horner in 1/n
    over k + 1 <= K + 1 terms with k + 2 >= E and n^(k+2) > P_(n+1) + 2n + 2
    >= e^-(n+1)u 2^w is within (2 e^u + 2)/(n - 1) + 1, and the cut, below
    the first omitted term e^u / (k+2) n^(k+2), within e^(n+1)u.  A link adds
    2 (n+1) E/n + e^-3u (2 e^u + 3) + 2 <= 3E + 7, the start 2M + 3, the
    close ln 2's 2w and Ein's e^2u (ln(w + 1) + 3) + w + 1 twice: under
    2^(g-1) for the g below (g <= wp), so one rounding leaves 1 unit."""
    E = math.ceil(math.exp(U / (1 << wp))) + 1
    g = (M * (3 * E + 9) + 8 * wp + 2 * E * E * ((2 * wp).bit_length() + 3)).bit_length() + 1
    w, V = wp + g, U << g
    q, P = exp_neg(V, w), [1 << w]
    for n in range(M):
        P.append(P[-1] * q >> w)
    K = max(w, E) - 2
    I = K - (-(w + 2 * E.bit_length()) // (((K + 1 << w) // V).bit_length() - 1))
    H = [0] * (I + 1)
    for i in range(I - 1, -1, -1):
        H[i] = ((1 << w) + (V * H[i + 1] >> w)) // (i + 1)
    e, x = [0] * (M + 1), M * V
    e[M] = P[M] * _e1_scaled(x, w, max(1, w - int(1.4426 * (x >> w)))) >> w
    for n in range(M - 1, 1, -1):
        t, s = 0, (n ** 16).bit_length() - 1      # n^16 >= 2^s
        for h in H[max(E, -(-16 * (P[n + 1] + 2 * n + 2).bit_length() // s)) - 2::-1]:
            t = h - t // n
        e[n] = e[n + 1] + (P[n + 1] * (t // n) >> w)
    e[1] = e[2] + 2 * arctan_inv(3, w, hyperbolic=True) + _ein(V, w) - _ein(2 * V, w)
    return [0] + [(v + (1 << g - 1)) >> g for v in e[1:]]


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
    of exp_neg(u)) within 2n and E_1 (e1_values) within 1, so with one
    floor per product the n-th bracket is within 2n (u^2 + 2u + 2) + u^3
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
    e1 = e1_values(U, wp, M)
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
        err += abs(a_n) * (2 * n * cm + u3m + 4)
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
# Twisting
# ---------------------------------------------------------------------------

def twist_coeff(a_p: int, d: int, p: int) -> int:
    """The twisted coefficient (d/p) a_p at an odd prime p not dividing d."""
    from .pointcount import legendre
    if d % p == 0:
        raise ValueError(f"p={p} divides the twisting discriminant {d}; "
                         "the twisted coefficient is not (d/p) a_p there")
    return legendre(d, p) * a_p


def ap_subchecks(surf, pmax: int) -> list[dict]:
    """`verify`'s A_p stage of a `Surface` record: the torus counts to pmax
    against the form series and, where it has p, the twisted newform table."""
    from . import pointcount
    table = NEWFORM_AP[surf.level]
    co = form_coefficients(FORM_SERIES[surf.disc], max(pmax, 2))
    aps = pointcount.ap_scan(surf.k, pmax)
    mism = {}
    for p, ap in aps.items():
        refs = [co[p]]
        if p in table:  # the embedded table is a second reference where it has p
            refs.append(table[p] if surf.ap_twist is None
                        else twist_coeff(table[p], surf.ap_twist, p))
        if any(r != ap for r in refs):
            mism[p] = (ap, *refs)
    # a scan that reached no prime has checked nothing
    return [{"name": f"A_p-vs-newform-level-{surf.level}", "pass": bool(aps) and not mism,
             "provenance": "torus point counts of the surface vs form-series "
                           "coefficients and the embedded twisted table",
             "primes": sorted(aps), "mismatches": mism,
             "values": {str(p): aps[p] for p in sorted(aps)}}]
