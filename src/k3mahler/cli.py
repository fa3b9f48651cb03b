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
from types import SimpleNamespace

from .surfaces import SURFACES

VERIFY_KS = tuple(SURFACES)
# the k whose identity has an L-value term
L_KS = [k for k, surf in SURFACES.items() if surf.disc is not None]


def _emit(args, payload: dict, human: str) -> int:
    """Print the payload as JSON under --json, else the human line; exit 0."""
    print(json.dumps(payload, sort_keys=True, indent=2) if args.json else human)
    return 0


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
# command -> (help, {option: (type, default)}); a flag has no type and a
# required option the default ...; `_parse` imports only the handler it
# returns, `verify.cmd_verify` or `commands.cmd_<command>`
_K = {"--k": (_one_of(*L_KS), ...), "--json": (None, False)}
_PREC, _PMAX = {"--prec": (_at_least(53), 128)}, {"--pmax": (_at_least(0), 31)}
COMMANDS = {
    # one tolerance for every k: >= 500 times the largest gap + bounds (1.9e-15, k = 18)
    "verify": ("full identity verification for one k", {
        **_K, "--k": (_one_of(*VERIFY_KS), ...), **_PREC, **_PMAX, "--tol": (_positive, 1e-12)}),
    # --prec is bertin's only, and its default 128 is commands.cmd_mahler's
    "mahler": ("Mahler measure by one method", {
        "--k": (_finite, ...), "--prec": (_at_least(53), None), "--json": (None, False),
        "--method": (_one_of("quadrature", "bertin"), "quadrature"), "--tol": (_positive, 1e-5)}),
    "lvalue": ("Hecke L-value from the form series", {**_K, **_PREC}),
    "ap": ("transcendental coefficients A_p", {**_K, **_PMAX}),
    "lattice": ("transcendental-lattice invariants", _K),
    "height": ("canonical height of the k=18 section", {"--json": (None, False)}),
    "coeffs": ("form-series Dirichlet coefficients",
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
    options = COMMANDS[cmd][1]
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
    if cmd == "verify":
        from .verify import cmd_verify as func
    else:
        from . import commands
        func = getattr(commands, f"cmd_{cmd}")
    return SimpleNamespace(command=cmd, func=func,
                           **{name[2:]: given.get(name, d) for name, (_, d) in options.items()})


def _print_help(args) -> int:
    """Print the options of args.command, or the commands, from the table."""
    about, rows = __doc__, {cmd: text for cmd, (text, _) in COMMANDS.items()}
    if args.command:
        about, options = COMMANDS[args.command]
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
    # the package's copy of this module, whose UsageError the handlers raise
    from k3mahler.cli import main
    sys.exit(main())
