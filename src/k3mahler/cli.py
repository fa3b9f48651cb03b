"""Command-line interface: end-to-end identity verification and per-module
subcommands (mahler | lvalue | ap | lattice | height | coeffs | verify).

Every subcommand can emit a JSON document with the stable schema
{"input": ..., "value": ..., "error_bound": ..., "provenance": ...}; `verify`
emits a structured report with one entry per sub-check.  Exit codes: 0 pass,
1 verification failure or stdout closed by its reader, 2 usage error.
"""

from __future__ import annotations

import atexit
import gc
import json
import math
import sys
import time
from types import SimpleNamespace

# the other layers are imported by the subcommands that run them
from . import surfaces
from .surfaces import SURFACES

VERIFY_KS = tuple(SURFACES)
# the k whose identity has an L-value term
L_KS = [k for k, surf in SURFACES.items() if surf.disc is not None]


def _emit(args, payload: dict, human: str) -> int:
    """Print the payload as JSON under --json, else the human line; exit 0."""
    print(json.dumps(payload, sort_keys=True, indent=2) if args.json else human)
    return 0


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
    return _emit(args, payload, human)


def cmd_lvalue(args) -> int:
    from . import lfunctions
    disc = SURFACES[args.k].disc
    value, err = lfunctions.smoothed_lvalue(lfunctions.FORM_SERIES[disc],
                                            args.prec).as_float()
    payload = {"input": {"k": args.k, "disc": disc, "s": 3, "prec": args.prec},
               "value": value, "error_bound": err,
               "provenance": f"smoothed sum of the binary-quadratic-form series, disc {disc}"}
    return _emit(args, payload, f"L(phi_{disc}, 3) = {value:.12f} (+- {err:.2e})")


def cmd_ap(args) -> int:
    from . import pointcount
    aps = pointcount.ap_scan(args.k, args.pmax)
    payload = {"input": {"k": args.k, "pmax": args.pmax},
               "value": {str(p): v for p, v in sorted(aps.items())},
               "error_bound": 0,
               "provenance": "torus point count of x + 1/x + y + 1/y + z + 1/z = k over F_p"}
    return _emit(args, payload, "  ".join(f"A_{p}={v}" for p, v in sorted(aps.items())))


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
    return _emit(args, payload, f"k={args.k}: |det T| = {comp.det}, rank = {summary['rank']}, "
                                f"basis = {comp.sublattice.labels}")


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
    return _emit(args, payload, f"h(p_sigma) = {h} "
                                f"(components {[(f.place, f.component) for f in fibers]})")


def cmd_coeffs(args) -> int:
    from . import lfunctions
    disc = SURFACES[args.k].disc
    co = lfunctions.form_coefficients(lfunctions.FORM_SERIES[disc], args.nmax)
    payload = {"input": {"k": args.k, "disc": disc, "nmax": args.nmax},
               "value": {str(n): co[n] for n in range(1, args.nmax + 1)},
               "error_bound": 0,
               "provenance": "lattice-point enumeration of the form series"}
    return _emit(args, payload, " ".join(f"A_{n}={co[n]}" for n in range(1, args.nmax + 1)))


# ---------------------------------------------------------------------------

class UsageError(Exception):
    """An argv the option table rejects, or a request no route can serve; exits 2."""


def _checked(convert, ok, must: str):
    """The type function convert(text), refusing a value that fails ok."""
    def parse(text: str):
        if not ok(x := convert(text)):
            raise ValueError(f"must be {must}, got {text}")
        return x
    parse.__doc__ = f"must be {must}"
    return parse


def _at_least(lo: int):
    return _checked(int, lambda n: n >= lo, f">= {lo}")


def _one_of(*choices):
    return _checked(type(choices[0]), choices.__contains__,
                    f"one of {', '.join(map(str, choices))}")


_finite = _checked(float, math.isfinite, "finite")
_positive = _checked(float, lambda x: 0 < x < math.inf, "> 0 and finite")
# command -> (handler, help, {option: (type, default)}); a flag has no type
# and a required option the default ...
_K = {"--k": (_one_of(*L_KS), ...), "--json": (None, False)}
_PREC, _PMAX = {"--prec": (_at_least(53), 128)}, {"--pmax": (_at_least(0), 31)}
COMMANDS = {
    # one tolerance for every k: >= 500 times the largest gap + bounds (1.9e-15, k = 18)
    "verify": (cmd_verify, "full identity verification for one k", {
        **_K, "--k": (_one_of(*VERIFY_KS), ...), **_PREC, **_PMAX, "--tol": (_positive, 1e-12)}),
    # --prec is bertin's only, and its default 128 is cmd_mahler's
    "mahler": (cmd_mahler, "Mahler measure by one method", {
        "--k": (_finite, ...), "--prec": (_at_least(53), None), "--json": (None, False),
        "--method": (_one_of("quadrature", "bertin"), "quadrature"), "--tol": (_positive, 1e-5)}),
    "lvalue": (cmd_lvalue, "Hecke L-value from the form series", {**_K, **_PREC}),
    "ap": (cmd_ap, "transcendental coefficients A_p", {**_K, **_PMAX}),
    "lattice": (cmd_lattice, "transcendental-lattice invariants", _K),
    "height": (cmd_height, "canonical height of the k=18 section", {"--json": (None, False)}),
    "coeffs": (cmd_coeffs, "form-series Dirichlet coefficients",
               {**_K, "--nmax": (_at_least(2), 40)}),
}
_USAGE = f"usage: k3mahler {{{','.join(COMMANDS)}}} [-h] [--option value ...]"


def _parse(argv: list) -> SimpleNamespace:
    """The handler's args for argv: the command, then its options from the
    table as `--opt value` or `--opt=value`, named exactly, the last
    occurrence winning.  A value may start with any character."""
    cmd, *rest = argv or [None]
    if cmd in ("-h", "--help"):
        return SimpleNamespace(command=None, func=_print_help)
    if cmd not in COMMANDS:
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}; got {cmd or 'none'}")
    func, _, options = COMMANDS[cmd]
    given, words = {}, iter(rest)
    for word in words:
        if word in ("-h", "--help"):
            return SimpleNamespace(command=cmd, func=_print_help)
        name, eq, text = word.partition("=")
        if name not in options or (eq and options[name][0] is None):
            raise UsageError(f"unrecognized argument: {word}")
        if (parse := options[name][0]) and not eq and (text := next(words, None)) is None:
            raise UsageError(f"argument {name}: expected a value")
        try:
            given[name] = parse(text) if parse else True
        except ValueError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
    if missing := [name for name, (_, d) in options.items() if d is ... and name not in given]:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=cmd, func=func,
                           **{name[2:]: given.get(name, d) for name, (_, d) in options.items()})


def _print_help(args) -> int:
    """Print the options of args.command, or the commands, from the table."""
    about, rows = __doc__, {cmd: text for cmd, (_, text, _) in COMMANDS.items()}
    if args.command:
        _, about, options = COMMANDS[args.command]
        rows = {name: "required, " * (d is ...) + (parse.__doc__ if parse else "a flag")
                + (f" (default {d})" if parse and d not in (..., None) else "")
                for name, (parse, d) in options.items()}
    print(_USAGE, "", about.strip(), "", "  -h, --help  show this help and exit",
          *(f"  {key:<10}  {text}" for key, text in rows.items()), sep="\n")
    return 0


# whether main has registered gc.freeze with atexit in this process
_freeze_at_exit = False


def main(argv=None) -> int:
    # Once per process: freeze every object at exit, so that finalization's
    # full collection skips what the ending process holds (no finalizer of
    # ours is in a cycle).  Registered here, not at import, so a library
    # import leaves its host's exit alone, and in-process callers keep
    # collecting while main runs.
    global _freeze_at_exit
    if not _freeze_at_exit:
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is left to flush at exit goes to
        # devnull, and the request ends quietly, with no SIGPIPE handler
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(_USAGE, f"k3mahler: error: {exc}", sep="\n", file=sys.stderr)
        raise SystemExit(2) from None
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
