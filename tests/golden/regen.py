"""Rewrite the golden reports in this directory.

    PYTHONPATH=src python tests/golden/regen.py

Each request in REQUESTS (`verify`) and EXAMPLES (the README's examples)
runs in-process through `cli.main`.  A `--json` report goes to <name>.json,
with `timings`, the one field that varies between runs of the same request,
cut down to its list of keys; a text line goes to <name>.txt as printed.
`tests/test_golden.py` reruns the requests against these files; a change that
alters a report regenerates them and names the changed fields, which this
script prints per file as `path: old -> new` (a text file's paths index its
lines), or "unchanged".
"""

import contextlib
import io
import json
from pathlib import Path

from k3mahler.cli import main

HERE = Path(__file__).resolve().parent
# file name -> argv: verify at each k, at the default --prec and at 200 bits
REQUESTS = {f"verify-k{k}{suffix}": ["verify", "--k", k, *extra, "--json"]
            for k in ("0", "3", "6", "18")
            for suffix, extra in (("", []), ("-prec200", ["--prec", "200"]))}
# file name -> argv: the README's examples; the lattice text lines carry the
# basis labels, which the JSON does not
EXAMPLES = {
    **{f"lattice-k{k}{suffix}": ["lattice", "--k", k, *extra]
       for k in ("3", "6", "18") for suffix, extra in (("", ["--json"]), ("-text", []))},
    "ap-k6-pmax31": ["ap", "--k", "6", "--pmax", "31", "--json"],
    "height": ["height", "--json"],
    "coeffs-k6-nmax40": ["coeffs", "--k", "6", "--nmax", "40", "--json"],
    "lvalue-k3": ["lvalue", "--k", "3", "--json"],
    "mahler-k18-bertin": ["mahler", "--k", "18", "--method", "bertin", "--json"],
    "mahler-k6": ["mahler", "--k", "6", "--json"],
}


def path(name: str, argv: list) -> Path:
    """The golden file of a request: <name>.json under --json, else <name>.txt."""
    return HERE / f"{name}.{'json' if '--json' in argv else 'txt'}"


def report(argv: list) -> tuple:
    """(exit code, output) of argv, run in-process: under --json the report
    with timings as its keys, else the printed text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if "--json" not in argv:
        return code, out.getvalue()
    doc = json.loads(out.getvalue())
    if "timings" in doc:
        doc["timings"] = list(doc["timings"])
    return code, doc


class Missing:
    """The side of a `changes` pair that has no such key or list item."""

    def __repr__(self):
        return "(absent)"


MISSING = Missing()


def changes(old, new, at: str = "$"):
    """(path, old, new) of each JSON field where new differs from old; a key or
    list item on one side only is paired with MISSING."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            yield from changes(old.get(key, MISSING), new.get(key, MISSING), f"{at}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from changes(old[i] if i < len(old) else MISSING,
                               new[i] if i < len(new) else MISSING, f"{at}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield at, old, new


def parse(text: str, name: str):
    """A golden file's content as `changes` compares it: JSON, or a list of lines."""
    return json.loads(text) if name.endswith(".json") else text.splitlines()


def regen() -> None:
    """Write every golden report, printing what changed in each; a request that
    does not exit 0 writes none."""
    argvs = {**REQUESTS, **EXAMPLES}
    outs = {name: report(argv) for name, argv in argvs.items()}
    if failed := [name for name, (code, _) in outs.items() if code]:
        raise SystemExit(f"not passing, nothing written: {', '.join(failed)}")
    for name, (_, doc) in outs.items():
        text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, indent=2) + "\n"
        file = path(name, argvs[name])
        old = parse(file.read_text(), file.name) if file.exists() else MISSING
        diffs = list(changes(old, parse(text, file.name)))
        file.write_text(text)
        print(f"{file.name}: {'unchanged' if not diffs else f'{len(diffs)} changed'}")
        for at, was, now in diffs:
            print(f"  {at}: {was!r} -> {now!r}")


if __name__ == "__main__":
    regen()
