"""The argparse parser the option table of `k3mahler.cli` replaced, kept as
the tests' oracle for it.

``build_parser`` and its three type functions are the package's former
ones, unchanged.  `tests/test_cli.py` parses each argv list of the CLI's
traffic with both parsers, and names the only intended differences.
"""

from __future__ import annotations

import argparse

from k3mahler import cli
from k3mahler.cli import L_KS, VERIFY_KS
from k3mahler.commands import cmd_ap, cmd_coeffs, cmd_height, cmd_lattice, cmd_lvalue, cmd_mahler
from k3mahler.verify import cmd_verify


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
                                 description=cli.__doc__.splitlines()[0])
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

