"""`verify`: both sides of one identity and the subchecks behind it.  The
left-hand side is the quadrature of `mahler`, the right-hand side is summed
here (``identity_rhs``), and each layer makes its own stage of subchecks:
`verify` selects and orders the stages, times them and writes the report."""

from __future__ import annotations

import math
import time
from fractions import Fraction

from . import mahler
from .bigreal import BigReal, pi_reals
from .cli import _emit
from .surfaces import SURFACES


def _subchecks(surf, prec: int, pmax: int, exact, d3_term):
    """Yield (stage, its subchecks from its layer) in report order; EK and
    Epstein run at prec against the right-hand side `exact` and its d3 term."""
    if surf.disc is None:
        return
    from . import eisenstein, lattices, lfunctions
    yield "lattice", lattices.subchecks(surf)
    yield "ek", eisenstein.subchecks(surf.k, prec, exact)
    yield "ap", lfunctions.ap_subchecks(surf, pmax)
    if d3_term is not None:
        from . import dirichlet
        yield "epstein", dirichlet.subchecks(prec, d3_term)
    if surf.section is None:
        return
    from . import mwsections
    yield "section_import", []
    yield from mwsections.subchecks(surf)


def identity_rhs(surf, prec: int) -> tuple[BigReal, str, BigReal | None]:
    """(value, method, d3 term or None) of the right-hand side
    (r sqrt(n) / pi^3) L(phi_disc, 3) + d3_coeff * d3 of a `Surface` record,
    prefactor = (r, n), at prec bits; a term with no disc or d3_coeff 0 is
    left out.  The prefactor is a BigReal product at prec + 10 bits, its
    roundings in its bound; the value carries the smoothed sum's `terms`."""
    parts, terms, d3_term, M = [], [], None, None
    if surf.disc is not None:
        from . import lfunctions
        r, n = surf.prefactor
        wp, inv_pi = prec + 10, pi_reals(prec + 10)[1]
        pref = (inv_pi * inv_pi * inv_pi * BigReal.fixed(math.isqrt(n << 2 * wp), wp, 1)
                * Fraction(*r)).round_to(prec)
        lv = lfunctions.smoothed_lvalue(lfunctions.FORM_SERIES[surf.disc], prec)
        parts.append(pref * lv)
        terms.append(f"({float(pref):.10g}) * L(phi_{surf.disc}, 3)")
        M = lv.terms
    if c := Fraction(*surf.d3_coeff):
        from . import dirichlet
        d3_term = BigReal.exactly(c, prec) * dirichlet.d3(prec)
        parts.append(d3_term)
        terms.append(f"({c}) d3" if terms else "(3*sqrt(3)/4pi) L(chi_-3, 2)")
    value = sum(parts)
    value.terms = M
    return value, " + ".join(terms), d3_term


def cmd_verify(args) -> int:
    k, surf, tol = args.k, SURFACES[args.k], args.tol
    timings: dict = {}
    t_start = t = time.monotonic()

    def lap(stage: str) -> None:
        """Record the wall seconds since the last lap as timings[stage + "_s"]."""
        nonlocal t
        t, t0 = time.monotonic(), t
        timings[f"{stage}_s"] = round(t - t0, 4)

    quad = mahler.mahler_quadrature(k)
    lap("lhs")
    exact, method, d3_term = identity_rhs(surf, args.prec)
    lap("rhs")
    subchecks = []
    for stage, checks in _subchecks(surf, args.prec, args.pmax, exact, d3_term):
        lap(stage)
        subchecks.extend(checks)

    rhs, rhs_err = exact.as_float()
    # Fractions, compared with tol exactly: both bounds count against tol (agreement
    # inside a wider bound proves nothing); the report's diff is the gap rounded up
    gap, bounds = quad.abs_diff(exact), quad.error_bound + exact.error_bound
    identity_ok = quad.consistent_with(exact) and gap + bounds <= tol
    diff = float(gap) if float(gap) >= gap else math.nextafter(float(gap), math.inf)
    report = {"identity": f"m(P_{k})", "tolerance": tol, "k": k, "prec": args.prec,
              "lhs": {"value": float(quad.value), "method": "agm-period-quadrature",
                      "error_bound": float(quad.error_bound), "bound_kind": quad.bound_kind},
              "rhs": {"value": rhs, "method": method, "error_bound": rhs_err,
                      "bound_kind": exact.bound_kind, "prec": args.prec, "terms": exact.terms},
              "subchecks": subchecks, "abs_diff": diff, "timings": timings,
              "pass": bool(identity_ok and all(c["pass"] for c in subchecks))}
    # timings is the only field that varies between runs of the same request:
    # the seconds of each stage that ran, and of the whole request
    timings["total_s"] = round(time.monotonic() - t_start, 3)

    lines = [f"identity m(P_{k}): lhs={float(quad.value):.10f} rhs={rhs:.10f} "
             f"|diff|={diff:.3e} tol={tol:g} -> {'PASS' if identity_ok else 'FAIL'}",
             *(f"  [{'pass' if c['pass'] else 'FAIL'}] {c['name']}" for c in subchecks),
             f"overall: {'PASS' if report['pass'] else 'FAIL'} ({timings['total_s']}s)"]
    _emit(args, report, "\n".join(lines))
    return 0 if report["pass"] else 1
