"""Shared (session-scoped) fixtures so the expensive evaluations run once,
the plain Dirichlet sum they use as the L-value oracle with its tail bound,
and the Monte Carlo estimate of m(P_k) that serves as a statistical oracle."""

import itertools
import math
from fractions import Fraction

import pytest

from k3mahler import dirichlet, lfunctions, mahler, mwsections as mw, pointcount
from k3mahler.bigreal import BigReal
from k3mahler.exactalg import Poly
from k3mahler.surfaces import SURFACES
from grouplaw import DCORE, ec_add, torsion_multiples, twist_section, y18_twist_curve
from ratfunc import RatFunc
from modular import form_coefficients_numpy


def tail_scale(series) -> float:
    """C with |sum_{n>N} A_n/n^3| <= 2C/N: each term of the form series
    contributes its numerator bound times the exterior-ellipse integral
    pi/sqrt(det Q)."""
    total = 0.0
    for t in series.terms:
        a, b, c = t.form
        total += t.numerator_bound * math.pi / math.sqrt(a * c - b * b / 4.0)
    return float(series.prefactor) * total


def lvalue_from_coeffs(coeffs, tail_scale, s=3, N=None) -> BigReal:
    """Partial Dirichlet sum sum_{n<=N} A_n / n^s of a coefficient list
    (entry 0 unused), with the proven tail bound 2 tail_scale / N."""
    if s != 3:
        raise ValueError("only s = 3 is supported (weight-2 numerators)")
    if N is None:
        N = len(coeffs) - 1
    if N >= len(coeffs):
        raise ValueError(f"insufficient coefficients: have {len(coeffs) - 1}, need {N}")
    values = coeffs[1:N + 1]
    # each nonzero term to 3 ulps: two roundings and the one of n^-3.0
    terms = [a * n ** -3.0 for n, a in itertools.compress(enumerate(values, 1), values)]
    value = math.fsum(terms)
    tail = 2.0 * tail_scale / N
    rounding = 1e-15 * math.fsum(map(abs, terms)) + 1e-16
    return BigReal.with_bound(value, tail + rounding)


def mahler_mc(k: float, samples: int, seed: int,
              integrand: str = "jensen") -> tuple[float, float]:
    """Monte Carlo estimate of m(P_k): (estimate, standard error).

    integrand="jensen" samples the 2-torus after the exact z-integration;
    integrand="torus3" samples log|P_k| on the raw 3-torus.  Deterministic for
    a fixed seed.
    """
    import numpy as np

    if samples < 10 ** 3:
        raise ValueError("use at least 10^3 samples")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 1_000_000)
        if integrand == "jensen":
            t = rng.uniform(0.0, 2.0 * np.pi, size=(2, n))
            c = 2.0 * np.cos(t[0]) + 2.0 * np.cos(t[1]) - k
            vals = np.arccosh(np.maximum(np.abs(c) / 2.0, 1.0))
        elif integrand == "torus3":
            t = rng.uniform(0.0, 2.0 * np.pi, size=(3, n))
            c = 2.0 * (np.cos(t[0]) + np.cos(t[1]) + np.cos(t[2])) - k
            with np.errstate(divide="ignore"):
                vals = np.log(np.abs(c))
        else:
            raise ValueError(f"unknown integrand {integrand!r}")
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        remaining -= n
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def hecke_lvalue(series, s=3, N=2_000_000) -> BigReal:
    """L(phi, s) for the explicit form series by direct summation of N terms,
    with a proven tail bound: the oracle for lfunctions.smoothed_lvalue."""
    if N < 10 ** 3:
        raise ValueError("N >= 10^3 required")
    return lvalue_from_coeffs(form_coefficients_numpy(series, N), tail_scale(series), s=s)


@pytest.fixture(scope="session")
def quad():
    """Memoized Jensen-quadrature values keyed by k, each checked to be
    within tol."""
    cache = {}

    def get(k, tol=1e-8):
        if float(k) not in cache:
            cache[float(k)] = mahler.mahler_quadrature(k)
        assert cache[float(k)].error_bound <= tol, (k, tol)
        return cache[float(k)]

    return get


@pytest.fixture(scope="session")
def hecke():
    cache = {}

    def get(disc, N=2_000_000):
        if (disc, N) not in cache:
            cache[(disc, N)] = hecke_lvalue(lfunctions.FORM_SERIES[disc], s=3, N=N)
        return cache[(disc, N)]

    return get


@pytest.fixture(scope="session")
def lvalue_256():
    """L(phi, 3) for each disc of the form series at 256 bits, the shared
    reference of the tests that hold a coarser L-value to its bound."""
    return {disc: lfunctions.smoothed_lvalue(series, 256)
            for disc, series in lfunctions.FORM_SERIES.items()}


@pytest.fixture(scope="session")
def ap_scan_3000():
    """A_p at every good prime to 3000 for k = 3, 6 and 18, one scan per k,
    shared by the A_p oracle tests."""
    return {k: pointcount.ap_scan(k, 3000) for k in (3, 6, 18)}


@pytest.fixture(scope="session")
def d3_value():
    return dirichlet.d3(prec=128)


@pytest.fixture(scope="session")
def k18():
    """The k=18 exact-section bundle: curve, the record's section and its
    pole places, the printed twist and its section, b-form, halving sum, and
    the printed halving data: x and y of Q (y up to sign), q+ and q- (q- up
    to a factor 4), and the b-form's a and b.  r and Q are RatFuncs
    in lowest terms; ps and Pb are the package's (num, den) pairs."""
    E = mw.family_curve(18)
    ps, places, r = mw.record_section(SURFACES[18])
    tp = Poly([-21, 1]) * Poly([3, 1])
    yprime = (Poly([(0, 1)]) * DCORE * Poly([1350, -171, -12, 1])
              * Poly([-216, 369, -42, 1]) * Poly([-486, -486, 351, -36, 1]))
    hd = {"r": RatFunc(*r),
          "xprime": RatFunc(-(DCORE ** 2), 3888 * tp ** 2),
          "yprime": RatFunc(yprime, 419904 * tp ** 3),
          "qplus": RatFunc(-(tp ** 2) * Poly([9, -18, 1]), 972),
          "qminus": RatFunc(-243 * Poly([1, -18, 1]) ** 3, tp ** 2),
          "bform_a": Poly([-3, -108, 330, -36, 1]) * Fraction(1, 4),
          "bform_b": Poly([0, 18, -1])}
    Eb = mw.FunctionFieldCurve.from_coeffs(0, hd["bform_a"], 0, hd["bform_b"], 0)
    # Q = Pb + T2 by the chord-tangent law, which checks Pb and T2 on Eb
    Pb = mw.to_completed_square(ps, E)
    Q = ec_add(Pb, mw.to_completed_square(torsion_multiples(18)[2], E), Eb)
    assert mw.verify_on_curve(Q, Eb)
    return {"E": E, "ps": ps, "places": places, "halving": hd, "Eb": Eb, "Pb": Pb, "Q": Q,
            "twist_curve": y18_twist_curve(), "pm3": twist_section()}


@pytest.fixture(scope="session")
def pm3_nontorsion(k18):
    """The specialization/reduction witness that [n]p_-3 != O for n <= 6."""
    return mw.verify_nontorsion(k18["pm3"], k18["twist_curve"], 6)
