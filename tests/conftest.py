"""Shared (session-scoped) fixtures so the expensive evaluations run once,
and the plain Dirichlet sum they use as the L-value oracle."""

import itertools
import math

import pytest

from k3mahler import fixtures as fx
from k3mahler import lfunctions, mahler, mwsections as mw
from k3mahler.bigreal import BigReal
from modular import form_coefficients_numpy


def lvalue_from_coeffs(coeffs, s=3, N=None) -> BigReal:
    """Partial Dirichlet sum sum_{n<=N} A_n / n^s of a DirichletCoeffs, with
    a proven tail bound."""
    if s != 3:
        raise ValueError("only s = 3 is supported (weight-2 numerators)")
    if N is None:
        N = coeffs.N
    if N > coeffs.N:
        raise ValueError(f"insufficient coefficients: have {coeffs.N}, need {N}")
    values = coeffs.values[1:N + 1]
    # each nonzero term to 3 ulps: two roundings and the one of n^-3.0
    terms = [a * n ** -3.0 for n, a in itertools.compress(enumerate(values, 1), values)]
    value = math.fsum(terms)
    tail = 2.0 * coeffs.tail_scale / N
    rounding = 1e-15 * math.fsum(map(abs, terms)) + 1e-16
    return BigReal.with_bound(value, tail + rounding)


def hecke_lvalue(series, s=3, N=2_000_000) -> BigReal:
    """L(phi, s) for the explicit form series by direct summation of N terms,
    with a proven tail bound: the oracle for lfunctions.smoothed_lvalue."""
    if N < 10 ** 3:
        raise ValueError("N >= 10^3 required")
    return lvalue_from_coeffs(form_coefficients_numpy(series, N), s=s)


@pytest.fixture(scope="session")
def quad():
    """Memoized Jensen-quadrature values keyed by (k, tol)."""
    cache = {}

    def get(k, tol=1e-8):
        key = (float(k), tol)
        if key not in cache:
            cache[key] = mahler.mahler_quadrature(k, tol=tol)
        return cache[key]

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
def d3_value():
    return lfunctions.d3(prec=128)


@pytest.fixture(scope="session")
def k18():
    """The k=18 exact-section bundle: curve, sections, b-form, halving sum."""
    E = fx.y18_curve()
    ps = fx.infinite_section_k18()
    hd = fx.halving_data()
    Eb = mw.FunctionFieldCurve.from_coeffs(0, hd["bform_a"], 0, hd["bform_b"], 0)
    # each of Pb, T2 and Q is checked on Eb once: Pb and T2 by ec_add
    Pb = mw.to_completed_square(ps, E)
    Q = mw.ec_add(Pb, mw.to_completed_square(fx.torsion_multiples_k18()[2], E), Eb)
    assert mw.verify_on_curve(Q, Eb)
    return {"E": E, "ps": ps, "halving": hd, "Eb": Eb, "Pb": Pb, "Q": Q,
            "twist_curve": fx.y18_twist_curve(), "pm3": fx.twist_section()}


@pytest.fixture(scope="session")
def pm3_nontorsion(k18):
    """The specialization/reduction witness that [n]p_-3 != O for n <= 6."""
    return mw.verify_nontorsion(k18["pm3"], k18["twist_curve"])
