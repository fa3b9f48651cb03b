"""`verify`: both sides of one identity and every sub-check behind it, in one
timed pass over the stages the `Surface` record selects.

The left-hand side is the quadrature of `mahler`; the right-hand side is
summed here (``identity_rhs``) from the L-value of `lfunctions` and the d3
term of `dirichlet`, each imported only by the identities that have it, as
are the lattice sums of `eisenstein` and the layers of the sub-checks.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from . import mahler
from .bigreal import BigReal, pi_reals
from .cli import _emit
from .surfaces import NEWFORM_AP, SURFACES


def _subcheck(name: str, ok: bool, provenance: str, **extra) -> dict:
    return {"name": name, "pass": bool(ok), "provenance": provenance, **extra}


def _subchecks(surf, prec: int, pmax: int, exact, d3_term):
    """Yield (stage, its subchecks) in report order, for the stages the record
    selects: none without an L-value (no disc); lattice, ek and ap with one;
    epstein where the right-hand side has a d3 term beside it; and the
    section stages where the record has its infinite section, halving only
    where it has a halving root.  The EK and Epstein checks run at prec and
    face the right-hand side `exact` and its d3 term."""
    if surf.disc is None:
        return
    from . import eisenstein, lattices, lfunctions
    summary = lattices.transcendental_summary(surf)
    rec = summary["tau"]
    checks = [
        _subcheck("tau-quadratic-relation", rec.residual() == (0, 0),
                  "exact quadratic-irrational arithmetic",
                  relation=f"-6*{rec.p}*tau^2+12*{rec.q}*tau+{rec.r}=0"),
        _subcheck("orthocomplement-determinant",
                  summary["orthocomplement"].det == surf.level,
                  "integer kernel + restricted Gram form",
                  det=summary["orthocomplement"].det),
        _subcheck("shioda-rank", summary["rank"] == surf.rank,
                  "rank from Picard number 20 and fiber components",
                  rank=summary["rank"]),
    ]
    trivial, height = summary["trivial_det"], surf.height and Fraction(*surf.height)
    if surf.rank == 0 or height is not None:
        h = height or 1  # the Mordell-Weil lattice of rank 0 has det 1
        ns = lattices.ns_determinant(surf.rank, trivial, h, surf.torsion)
        checks.append(_subcheck("ns-determinant-chain", abs(ns) == surf.level,
                                f"|det NS| = {trivial} * det(MWL) / {surf.torsion}^2, "
                                f"det(MWL) = {h}",
                                value=str(ns)))
    yield "lattice", checks

    bs = eisenstein.bertin_series_for_k(surf.k, prec)
    yield "ek", [_subcheck(
        "eisenstein-kronecker-series", bs.consistent_with(exact),
        "weighted lattice sums at the CM point",
        value=float(bs.value), diff=float(bs.abs_diff(exact)),
        error_bound=float(bs.error_bound + exact.error_bound), prec=bs.prec, terms=bs.terms)]

    from . import pointcount
    table = NEWFORM_AP[surf.level]
    co = lfunctions.form_coefficients(lfunctions.FORM_SERIES[surf.disc], max(pmax, 2))
    aps = pointcount.ap_scan(surf.k, pmax)
    mism = {}
    for p, ap in aps.items():
        refs = [co[p]]
        if p in table:  # the embedded table is a second reference where it has p
            refs.append(table[p] if surf.ap_twist is None
                        else lfunctions.twist_coeff(table[p], surf.ap_twist, p))
        if any(r != ap for r in refs):
            mism[p] = (ap, *refs)
    # a scan that reached no prime has checked nothing
    yield "ap", [_subcheck(f"A_p-vs-newform-level-{surf.level}", bool(aps) and not mism,
                           "torus point counts of the surface vs form-series "
                           "coefficients and the embedded twisted table",
                           primes=sorted(aps), mismatches=mism,
                           values={str(p): aps[p] for p in sorted(aps)})]

    if d3_term is not None:
        from . import dirichlet
        eps = dirichlet.epstein_combo(prec)
        yield "epstein", [_subcheck(
            "dirichlet-term-epstein", eps.consistent_with(d3_term),
            "Chowla-Selberg rows of the weight-0 Epstein combination vs (14/5) d3",
            value=float(eps.value), diff=float(eps.abs_diff(d3_term)),
            error_bound=float(eps.error_bound + d3_term.error_bound),
            prec=eps.prec, terms=eps.terms)]
    if surf.section is None:
        return

    from . import mwsections as mw
    yield "section_import", []
    E = mw.family_curve(surf.k)
    ps, places, r = mw.record_section(surf)
    on_curve = mw.verify_on_curve(ps, E)
    yield "on_curve", [_subcheck("infinite-section-on-curve", on_curve,
                                 "exact Weierstrass identity")]
    if not on_curve:  # every later stage reads the section as a point of E
        return

    wit = mw.verify_nontorsion(ps, E, surf.torsion)
    yield "nontorsion", [_subcheck(
        "section-nontorsion", wit is not None,
        "specialization at sigma=t, reduction mod p",
        witness=wit and wit._asdict())]

    if r is not None:
        square, wits = mw.halving_witnesses(ps, r, E)
        yield "halving", [_subcheck(
            "halving-obstruction", square and None not in wits.values(),
            "x(Q) = r^2 exactly; a^2 - 4b, x(Pb), q+ and q- are "
            "non-residues at sigma=t mod p, p = 1 mod 3",
            witness={name: w and w._asdict() for name, w in wits.items()})]

    po = mw.zero_intersection(ps, places)
    # Shioda's h = 2 chi + 2 (P.O) - sum j(m - j)/m, solved for (P.O)
    local = sum(mw.contribution(f.m, f.j) for f in surf.fibers)
    yield "zero_intersection", [_subcheck(
        "zero-section-intersection", po == (height - 2 * mw.K3_CHI + local) / 2,
        "pole-degree count", value=po)]

    try:
        h, readings, error = *mw.section_height(surf, ps, po), {}
    except mw.VerificationError as exc:   # the record contradicts the curve
        h, readings, error = None, [], {"error": str(exc)}
    comps = {r.place: r.component for r in readings}
    terms = [f"{r.component * (r.m - r.component)}/{r.m}" for r in readings if r.component]
    yield "height", [
        _subcheck("neron-components", comps == {f.place: f.j for f in surf.fibers},
                  "Silverman's multiplicative rule at the record's fibers, "
                  "v(c4) = 0 and v(disc) = m checked",
                  components=comps, **error,
                  witness={r.place: dict(zip(("m", "v_psi2", "v_dfdx", "M"), r[1:]))
                           for r in readings}),
        _subcheck("height", h == height,
                  " - ".join([f"2*{mw.K3_CHI} + 2*{po}", *terms]), value=str(h)),
        _subcheck("height-vs-lattice-det", h is not None and 12 * h == surf.level,
                  "12 * h(P) = |det T|", value=str(h and 12 * h)),
    ]


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
