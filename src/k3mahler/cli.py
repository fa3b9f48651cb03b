"""Command-line interface: end-to-end identity verification and per-module
subcommands (mahler | lvalue | ap | lattice | height | coeffs | verify).

Every subcommand can emit a JSON document with the stable schema
{"input": ..., "value": ..., "error_bound": ..., "provenance": ...}; `verify`
emits a structured report with one entry per sub-check.  Exit codes: 0 pass,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

# the other layers are imported by the subcommands that run them
from . import surfaces
from .surfaces import SURFACES

VERIFY_KS = tuple(SURFACES)
# the k whose identity has an L-value term
L_KS = [k for k, surf in SURFACES.items() if surf.disc is not None]


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _subcheck(name: str, ok: bool, provenance: str, **extra) -> dict:
    return {"name": name, "pass": bool(ok), "provenance": provenance, **extra}


def _subchecks(surf: surfaces.Surface, prec: int, pmax: int, exact, d3_term):
    """Yield (stage, its subchecks) in report order, for the stages the record
    selects: none without an L-value (no disc); lattice, ek and ap with one;
    epstein where the right-hand side has a d3 term beside it; and the
    section stages where the record has its infinite section, halving only
    where it has a halving root.  The EK and Epstein checks run at prec and
    face the right-hand side `exact` and its d3 term."""
    if surf.disc is None:
        return
    from . import lattices, lfunctions, mahler
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
    trivial = summary["trivial_det"]
    if surf.rank == 0 or surf.height is not None:
        h = surf.height or 1  # the Mordell-Weil lattice of rank 0 has det 1
        ns = lattices.ns_determinant(surf.rank, trivial, h, surf.torsion)
        checks.append(_subcheck("ns-determinant-chain", abs(ns) == surf.level,
                                f"|det NS| = {trivial} * det(MWL) / {surf.torsion}^2, "
                                f"det(MWL) = {h}",
                                value=str(ns)))
    yield "lattice", checks

    bs = mahler.bertin_series_for_k(surf.k, prec)
    yield "ek", [_subcheck(
        "eisenstein-kronecker-series", bs.consistent_with(exact),
        "weighted lattice sums at the CM point",
        value=float(bs.value), diff=float(bs.abs_diff(exact)),
        error_bound=float(bs.error_bound + exact.error_bound), prec=bs.prec, terms=bs.terms)]

    from . import pointcount
    table = surfaces.NEWFORM_AP[surf.level]
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
        eps = mahler.epstein_combo(prec)
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
        witness=wit and dict(zip(("sigma", "p", "sqrt_m3_mod_p", "order"), wit)))]

    if r is not None:
        square, wits = mw.halving_witnesses(ps, r, E)
        yield "halving", [_subcheck(
            "halving-obstruction", square and None not in wits.values(),
            "x(Q) = r^2 exactly; a^2 - 4b, x(Pb), q+ and q- are "
            "non-residues at sigma=t mod p, p = 1 mod 3",
            witness={name: w and {"sigma": w.t, "p": w.p, "sqrt_m3_mod_p": w.w}
                     for name, w in wits.items()})]

    po = mw.zero_intersection(ps, places)
    # Shioda's h = 2 chi + 2 (P.O) - sum j(m - j)/m, solved for (P.O)
    local = sum(mw.contribution(f.m, f.j) for f in surf.fibers)
    yield "zero_intersection", [_subcheck(
        "zero-section-intersection", po == (surf.height - 2 * mw.K3_CHI + local) / 2,
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
        _subcheck("height", h == surf.height,
                  " - ".join([f"2*{mw.K3_CHI} + 2*{po}", *terms]), value=str(h)),
        _subcheck("height-vs-lattice-det", h is not None and 12 * h == surf.level,
                  "12 * h(P) = |det T|", value=str(h and 12 * h)),
    ]


def cmd_verify(args) -> int:
    from . import lfunctions, mahler
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
    exact, method, d3_term = lfunctions.identity_rhs(surf, args.prec)
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


# ---------------------------------------------------------------------------
# single-module subcommands
# ---------------------------------------------------------------------------

def cmd_mahler(args) -> int:
    from . import mahler
    # an integral k prints as an int only where float64 holds it exactly
    k = int(args.k) if args.k.is_integer() and abs(args.k) < 2 ** 53 else args.k
    if args.method == "quadrature":
        if args.prec is not None:  # the quadrature runs in float64
            raise UsageError("--prec applies to --method bertin only")
        v = mahler.mahler_quadrature(k)
        value, err = float(v.value), float(v.error_bound)
        payload = {"input": {"k": k, "method": "quadrature", "tol": args.tol},
                   "value": value, "error_bound": err,
                   "provenance": "tanh-sinh quadrature of the AGM period"}
        human = f"m(P_{k}) = {value:.12f} (+- {err:.2e}, quadrature)"
    else:
        try:
            surfaces.tau_table(k)
        except ValueError as exc:
            raise UsageError(f"bertin method: {exc}") from None
        prec = 128 if args.prec is None else args.prec
        value, err = (v := mahler.bertin_series_for_k(k, prec=prec)).as_float()
        payload = {"input": {"k": k, "method": "bertin", "prec": prec},
                   "value": value, "error_bound": err,
                   "provenance": "Eisenstein-Kronecker lattice sums"}
        human = f"m(P_{k}) = {value:.10f} (+- {err:.2e}, series)"
    if not v.error_bound <= args.tol:    # the one place a method's bound meets --tol
        raise RuntimeError(f"requested abs tol {args.tol:g}, achieved {err:g}")
    _emit(args, payload, human)
    return 0


def cmd_lvalue(args) -> int:
    from . import lfunctions
    disc = SURFACES[args.k].disc
    value, err = lfunctions.smoothed_lvalue(lfunctions.FORM_SERIES[disc],
                                            args.prec).as_float()
    payload = {"input": {"k": args.k, "disc": disc, "s": 3, "prec": args.prec},
               "value": value, "error_bound": err,
               "provenance": f"smoothed sum of the binary-quadratic-form series, disc {disc}"}
    _emit(args, payload, f"L(phi_{disc}, 3) = {value:.12f} (+- {err:.2e})")
    return 0


def cmd_ap(args) -> int:
    from . import pointcount
    aps = pointcount.ap_scan(args.k, args.pmax)
    payload = {"input": {"k": args.k, "pmax": args.pmax},
               "value": {str(p): v for p, v in sorted(aps.items())},
               "error_bound": 0,
               "provenance": "torus point count of x + 1/x + y + 1/y + z + 1/z = k over F_p"}
    _emit(args, payload, "  ".join(f"A_{p}={v}" for p, v in sorted(aps.items())))
    return 0


def cmd_lattice(args) -> int:
    from . import lattices
    summary = lattices.transcendental_summary(SURFACES[args.k])
    comp = summary["orthocomplement"]
    payload = {"input": {"k": args.k},
               "value": {"det": comp.det, "rank": summary["rank"],
                         "trivial_det": summary["trivial_det"],
                         "basis": [list(b) for b in comp.basis],
                         "gram": [list(r) for r in comp.sublattice.gram]},
               "error_bound": 0, "provenance": "exact integer lattice arithmetic"}
    _emit(args, payload,
          f"k={args.k}: |det T| = {comp.det}, rank = {summary['rank']}, "
          f"basis = {comp.sublattice.labels}")
    return 0


def cmd_height(args) -> int:
    from . import mwsections as mw
    surf = next(s for s in SURFACES.values() if s.section is not None)
    ps, places, _ = mw.record_section(surf)
    po = mw.zero_intersection(ps, places)
    h, fibers = mw.section_height(surf, ps, po)
    payload = {"input": {"k": surf.k,
                         "section": f"infinite section over Q(sqrt({surf.section_disc}))"},
               "value": {"height": str(h),
                         "components": {f.place: f.component for f in fibers},
                         "zero_intersection": po},
               "error_bound": 0,
               "provenance": "Shioda's formula, Silverman's local heights"}
    _emit(args, payload, f"h(p_sigma) = {h} "
                         f"(components {[(f.place, f.component) for f in fibers]})")
    return 0


def cmd_coeffs(args) -> int:
    from . import lfunctions
    disc = SURFACES[args.k].disc
    co = lfunctions.form_coefficients(lfunctions.FORM_SERIES[disc], args.nmax)
    payload = {"input": {"k": args.k, "disc": disc, "nmax": args.nmax},
               "value": {str(n): co[n] for n in range(1, args.nmax + 1)},
               "error_bound": 0,
               "provenance": "lattice-point enumeration of the form series"}
    _emit(args, payload,
          " ".join(f"A_{n}={co[n]}" for n in range(1, args.nmax + 1)))
    return 0


# ---------------------------------------------------------------------------

def _at_least(lo: int):
    """argparse type: an int >= lo."""
    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n
    return parse


def _finite(text: str) -> float:
    """argparse type: a finite float (no nan or inf)."""
    x = float(text)
    if not abs(x) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _positive(text: str) -> float:
    """argparse type: a finite float > 0."""
    x = _finite(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return x


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="k3mahler",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, k_choices=L_KS):
        p.add_argument("--k", type=int, required=True, choices=k_choices)
        p.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="full identity verification for one k")
    common(v, k_choices=VERIFY_KS)
    v.add_argument("--prec", type=_at_least(53), default=128, help="bits")
    v.add_argument("--pmax", type=_at_least(0), default=31)
    # one tolerance for every k: >= 500 times the largest gap + bounds (1.9e-15, k = 18)
    v.add_argument("--tol", type=_positive, default=1e-12)
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("mahler", help="Mahler measure by one method")
    m.add_argument("--k", type=_finite, required=True)
    m.add_argument("--prec", type=_at_least(53), help="bits, bertin only (default 128)")
    m.add_argument("--json", action="store_true")
    m.add_argument("--method", choices=["quadrature", "bertin"], default="quadrature")
    m.add_argument("--tol", type=_positive, default=1e-5)
    m.set_defaults(func=cmd_mahler)

    lv = sub.add_parser("lvalue", help="Hecke L-value from the form series")
    common(lv)
    lv.add_argument("--prec", type=_at_least(53), default=128, help="bits")
    lv.set_defaults(func=cmd_lvalue)

    app = sub.add_parser("ap", help="transcendental coefficients A_p")
    common(app)
    app.add_argument("--pmax", type=_at_least(0), default=31)
    app.set_defaults(func=cmd_ap)

    lat = sub.add_parser("lattice", help="transcendental-lattice invariants")
    common(lat)
    lat.set_defaults(func=cmd_lattice)

    h = sub.add_parser("height", help="canonical height of the k=18 section")
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=cmd_height)

    c = sub.add_parser("coeffs", help="form-series Dirichlet coefficients")
    common(c)
    c.add_argument("--nmax", type=_at_least(2), default=40)
    c.set_defaults(func=cmd_coeffs)
    return ap


class UsageError(Exception):
    """A request the parser accepts but no route can serve; exits 2."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
