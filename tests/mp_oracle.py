"""The mpmath routes of the right-hand side and the lattice sums, kept as the
oracle for the integer fixed-point kernels of `k3mahler`.

These are the routes `verify` ran before its numerics moved onto integers:
the mpmath-backed value-and-bound carrier, the smoothed L-value, L(chi_-3, 2)
and d3, the right-hand side of an identity, and the Eisenstein-Kronecker and
Epstein lattice sums by the pi cot(pi z) row kernel.  They are kept as they
were; only their imports and their reading of the records changed.  The
tests compare the package with them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp

from k3mahler.surfaces import tau_table
from k3mahler.lfunctions import FORM_SERIES, form_coefficients


# ---------------------------------------------------------------------------
# The value-and-bound carrier
# ---------------------------------------------------------------------------

def _mpf_at(value, prec: int):
    with mp.workprec(prec):
        return +mp.mpf(value)


class BigReal:
    __slots__ = ("value", "prec", "error_bound", "bound_kind")

    def __init__(self, value: mp.mpf, prec: int, error_bound: mp.mpf,
                 bound_kind: str = "rigorous"):   # or "estimate"
        self.value = value
        self.prec = prec
        self.error_bound = error_bound
        self.bound_kind = bound_kind

    @staticmethod
    def exactly(value, prec: int = 53) -> "BigReal":
        """Wrap a value regarded as exact apart from representation rounding."""
        v = _mpf_at(value, prec)
        return BigReal(v, prec, mp.mpf(2) ** (-prec) * (abs(v) + 1))

    @staticmethod
    def with_bound(value, error_bound, prec: int = 53,
                   kind: str = "rigorous") -> "BigReal":
        return BigReal(_mpf_at(value, prec), prec, mp.mpf(error_bound), kind)

    def __float__(self) -> float:
        return float(self.value)

    def as_float(self) -> tuple[float, float]:
        """(float64 value, bound on its distance from the exact value): the
        error bound plus the rounding to float64, rounded up."""
        f = float(self.value)
        with mp.workprec(self.prec + 64):
            err = self.error_bound + abs(self.value - f)
        return f, math.nextafter(float(err), math.inf)

    def _round_err(self, v) -> mp.mpf:
        return mp.mpf(2) ** (-self.prec) * (abs(v) + 1)

    def _kind(self, other: "BigReal") -> str:
        return "rigorous" if self.bound_kind == other.bound_kind == "rigorous" \
            else "estimate"

    def __add__(self, other):
        o = other if isinstance(other, BigReal) else BigReal.exactly(other, self.prec)
        prec = min(self.prec, o.prec)
        with mp.workprec(prec):
            v = self.value + o.value
        return BigReal(v, prec, self.error_bound + o.error_bound + self._round_err(v),
                       self._kind(o))

    def __sub__(self, other):
        o = other if isinstance(other, BigReal) else BigReal.exactly(other, self.prec)
        return self + BigReal(-o.value, o.prec, o.error_bound, o.bound_kind)

    def __mul__(self, other):
        o = other if isinstance(other, BigReal) else BigReal.exactly(other, self.prec)
        prec = min(self.prec, o.prec)
        with mp.workprec(prec):
            v = self.value * o.value
        err = (abs(self.value) * o.error_bound + abs(o.value) * self.error_bound
               + self.error_bound * o.error_bound + self._round_err(v))
        return BigReal(v, prec, err, self._kind(o))

    __radd__ = __add__
    __rmul__ = __mul__

    def abs_diff(self, other) -> mp.mpf:
        o = other.value if isinstance(other, BigReal) else mp.mpf(other)
        return abs(self.value - o)

    def consistent_with(self, other: "BigReal") -> bool:
        """True iff the two values are within the sum of their bounds."""
        return self.abs_diff(other) <= self.error_bound + other.error_bound

    def __repr__(self):
        return (f"BigReal({mp.nstr(self.value, 20)}, prec={self.prec}, "
                f"err<={mp.nstr(mp.mpf(self.error_bound), 3)} {self.bound_kind})")


# ---------------------------------------------------------------------------
# L-values, d3 and the right-hand side
# ---------------------------------------------------------------------------

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
        (num, den), n = surf.prefactor
        with mp.workprec(prec + 10):
            v = num * mp.sqrt(n) / (den * mp.pi ** 3)
        pref = BigReal.exactly(v, prec)
        parts.append(pref * smoothed_lvalue(FORM_SERIES[surf.disc], prec))
        terms.append(f"({mp.nstr(pref.value, 10)}) * L(phi_{surf.disc}, 3)")
    if c := Fraction(*surf.d3_coeff):
        with mp.workprec(prec):
            coeff = BigReal.exactly(mp.mpf(c.numerator) / c.denominator, prec)
        d3_term = coeff * d3(prec)
        parts.append(d3_term)
        terms.append(f"({c}) d3" if terms else "(3*sqrt(3)/4pi) L(chi_-3, 2)")
    return sum(parts), " + ".join(terms), d3_term


# ---------------------------------------------------------------------------
# The lattice sums
# ---------------------------------------------------------------------------

def exact_tau_value(k: int, prec: int = 128):
    """mpmath value of the tabulated CM point (A + sqrt(B))/C."""
    rec = tau_table(k)
    with mp.workprec(prec):
        return (rec.A + mp.sqrt(mp.mpf(rec.B))) / rec.C


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


def fraction(x) -> Fraction:
    """The exact value of an mpf (not rounded again) as a Fraction."""
    sign, man, exp, _ = (x if isinstance(x, mp.mpf) else mp.mpf(x))._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp
