"""The six single-module subcommands: mahler | lvalue | ap | lattice | height |
coeffs, each importing only the layer it runs; `verify` is its own module.
"""

from __future__ import annotations

from .cli import UsageError, _emit
from .surfaces import SURFACES, tau_table


def cmd_mahler(args) -> int:
    # an integral k prints as an int only where float64 holds it exactly
    k = int(args.k) if args.k.is_integer() and abs(args.k) < 2 ** 53 else args.k
    if args.method == "quadrature":
        if args.prec is not None:  # the quadrature runs in float64
            raise UsageError("--prec applies to --method bertin only")
        from . import mahler
        v = mahler.mahler_quadrature(k)
        value, err = float(v.value), float(v.error_bound)
        payload = {"input": {"k": k, "method": "quadrature", "tol": args.tol},
                   "value": value, "error_bound": err,
                   "provenance": "tanh-sinh quadrature of the AGM period"}
        human = f"m(P_{k}) = {value:.12f} (+- {err:.2e}, quadrature)"
    else:
        try:
            tau_table(k)
        except ValueError as exc:
            raise UsageError(f"bertin method: {exc}") from None
        from . import eisenstein
        prec = 128 if args.prec is None else args.prec
        value, err = (v := eisenstein.bertin_series_for_k(k, prec=prec)).as_float()
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
                         "gram": [list(r) for r in comp.gram]},
               "error_bound": 0, "provenance": "exact integer lattice arithmetic"}
    return _emit(args, payload, f"k={args.k}: |det T| = {comp.det}, rank = {summary['rank']}, "
                                f"basis = {comp.labels}")


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


