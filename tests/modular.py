"""Test-only modular oracles: Dedekind eta, the eta-quotient parametrization
k = w(tau) + 1/w(tau) and its numeric inversion, the fitted q-expansion of w,
the form-series coefficients enumerated in numpy, and the newform
coefficients regained from the form series by twisting.

No program path needs them: `verify` reads the CM point from the tau table
(`eisenstein.exact_tau_value`) and the L-value from the form series.  They run in
mpmath at a caller-chosen precision, and take the tabulated CM points from
the mpmath oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from k3mahler.surfaces import NEWFORM_AP, SURFACES
from k3mahler.lfunctions import FORM_SERIES, QuadFormSeries
from mp_oracle import exact_tau_value


class NewtonNonConvergence(RuntimeError):
    pass


def eta(tau, prec: int = 128, n_terms: Optional[int] = None):
    """Dedekind eta via the truncated q-product, correct to ~2^-prec.

    The truncation length is chosen so |q|^N clears the target precision
    plus guard bits; n_terms overrides it (used by the convergence tests).
    """
    with mp.workprec(prec + 24):
        t = mp.mpc(tau)
        if mp.im(t) <= 0:
            raise ValueError("eta requires Im(tau) > 0")
        q = mp.exp(2j * mp.pi * t)
        if n_terms is None:
            n_terms = int((prec + 24) * math.log(2)
                          / (2 * math.pi * float(mp.im(t)))) + 4
        prod = mp.mpc(1)
        qn = mp.mpc(1)
        for _ in range(1, n_terms + 1):
            qn *= q
            prod *= (1 - qn)
        out = mp.exp(1j * mp.pi * t / 12) * prod
    with mp.workprec(prec):
        return +out


def w_of_tau(tau, prec: int = 128):
    """The sixth power of the eta quotient eta(t)eta(6t)/(eta(2t)eta(3t))."""
    with mp.workprec(prec + 24):
        t = mp.mpc(tau)
        num = eta(t, prec + 24) * eta(6 * t, prec + 24)
        den = eta(2 * t, prec + 24) * eta(3 * t, prec + 24)
        out = (num / den) ** 6
    with mp.workprec(prec):
        return +out


def k_of_tau(tau, prec: int = 128):
    """k = w + 1/w under the modular parametrization."""
    with mp.workprec(prec + 24):
        w = w_of_tau(tau, prec + 24)
        out = w + 1 / w
    with mp.workprec(prec):
        return +out


@dataclass(frozen=True)
class CMPoint:
    tau: mp.mpc
    source: str  # "table" | "numeric-inversion"


def tau_of_k(k, prec: int = 128, max_iter: int = 80) -> CMPoint:
    """CM point for tabulated k, else Newton inversion of w(tau) = w(k).

    The numeric branch requires k > 4 so that w = (k - sqrt(k^2 - 4))/2 lies in
    (0, 1) and tau can be taken purely imaginary, seeded by the leading-order
    inversion w ~ q^(1/2).
    """
    if isinstance(k, int) or (isinstance(k, float) and k.is_integer()):
        ki = int(k)
        try:
            return CMPoint(exact_tau_value(ki, prec), "table")
        except ValueError:
            pass
    k = float(k)
    if k <= 4:
        raise ValueError("numeric inversion implemented for k > 4 only "
                         "(tabulated k handled exactly)")
    with mp.workprec(prec + 32):
        kk = mp.mpf(k)
        w = (kk - mp.sqrt(kk * kk - 4)) / 2
        t = mp.log(1 / w) / mp.pi  # from w ~ exp(pi i tau), tau = i t
        target = mp.mpf(2) ** (-(prec + 8))
        for _ in range(max_iter):
            f = mp.re(w_of_tau(1j * t, prec + 32)) - w
            if abs(f) < target:
                break
            h = t * mp.mpf(2) ** (-(prec + 32) // 2)
            fp = (mp.re(w_of_tau(1j * (t + h), prec + 32))
                  - mp.re(w_of_tau(1j * (t - h), prec + 32))) / (2 * h)
            if fp == 0:
                raise NewtonNonConvergence("zero derivative in Newton step")
            t = t - f / fp
        else:
            raise NewtonNonConvergence(
                f"no convergence to 2^-({prec}+8) in {max_iter} steps")
        out = 1j * t
    with mp.workprec(prec):
        return CMPoint(+out, "numeric-inversion")


def fit_w_expansion(n_coeffs: int = 6, prec: int = 220) -> list:
    """Leading coefficients of w in the variable q^(1/2), fitted from values.

    Evaluates w at purely imaginary tau = i*t for n_coeffs values of t and
    solves the Vandermonde system in q = exp(2 pi i tau); with large t the
    truncation leakage is far below the fit's working precision.
    """
    with mp.workprec(prec):
        ts = [mp.mpf(3) / 2 + mp.mpf(j) / 4 for j in range(n_coeffs)]
        rows, rhs = [], []
        for t in ts:
            tau = 1j * t
            q = mp.exp(-2 * mp.pi * t)
            qhalf = mp.exp(-mp.pi * t)
            w = mp.re(w_of_tau(tau, prec))
            rows.append([q ** i for i in range(n_coeffs)])
            rhs.append(w / qhalf)
        sol = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
        return [+sol[i] for i in range(n_coeffs)]


def form_coefficients_numpy(series: QuadFormSeries, N: int) -> list[int]:
    """lfunctions.form_coefficients with each row of the enumeration (one k)
    vectorized in numpy: the oracle for the pure-Python enumeration, and a
    fast source of the 10^5-10^6 coefficients of the direct-sum L-value."""
    if N < 2:
        raise ValueError("N >= 2 required")
    acc = np.zeros(N + 1, dtype=np.int64)
    for term in series.terms:
        a, b, c = term.form
        p, q, r = term.numerator
        disc4 = 4 * a * c - b * b
        kmax = math.isqrt(4 * a * N // disc4) + 1
        for k in range(-kmax, kmax + 1):
            rad = N - disc4 * k * k / (4.0 * a)
            if rad < 0:
                continue
            half = math.sqrt(rad / a)
            mid = -b * k / (2.0 * a)
            m = np.arange(math.floor(mid - half) - 1, math.ceil(mid + half) + 2,
                          dtype=np.int64)
            n = a * m * m + (b * k) * m + c * k * k
            sel = (n >= 1) & (n <= N)
            m, n = m[sel], n[sel]
            np.add.at(acc, n, term.sign * (p * m * m + (q * k) * m + r * k * k))
    scaled = acc * series.prefactor.numerator
    if np.any(scaled % series.prefactor.denominator):
        raise ArithmeticError("form coefficients are not integral")
    return (scaled // series.prefactor.denominator).tolist()


def newform_coefficients(level: int, N: int) -> list[int]:
    """a_n of the level-15/24/120 newform for n <= N (entry 0 unused).

    Away from 3 the coefficients are the (-3/.)-twist of the corresponding
    form-series coefficients (the identity twist when the surface record has
    no ap_twist); powers of 3 enter through the linear Euler factor
    a_{3^v} = a_3^v, which inflates the tail bound of the form series by
    sum_v 3^-v = 3/2.  Nothing beyond the embedded tables and the form sums
    is baked in.
    """
    surf = next(s for s in SURFACES.values() if s.level == level)
    phi = form_coefficients_numpy(FORM_SERIES[surf.disc], N)
    if surf.ap_twist is None:
        return phi
    values = np.asarray(phi)    # a list, which fancy indexing needs as an array
    if surf.ap_twist != -3:
        raise ValueError(f"only the (-3/.) twist is implemented, not {surf.ap_twist}")
    a3 = NEWFORM_AP[level][3]
    n = np.arange(N + 1)
    chi = np.zeros(N + 1, dtype=np.int64)
    chi[n % 3 == 1] = 1
    chi[n % 3 == 2] = -1
    out = chi * values
    power = a3
    block = 3
    while block <= N:
        idx = np.arange(block, N + 1, block)
        coprime = idx[(idx // block) % 3 != 0]
        out[coprime] = power * chi[coprime // block] * values[coprime // block]
        power *= a3
        block *= 3
    return out.tolist()
