"""Rewrite the golden `verify` reports in this directory.

    PYTHONPATH=src python tests/golden/regen.py

Each request in REQUESTS runs in-process through `cli.main`, and its
`--json` report goes to <name>.json with `timings`, the one field that varies
between runs of the same request, cut down to its list of keys.
`tests/test_golden.py` reruns the requests against these files; a change that
alters a report regenerates them and names the changed fields.
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


def report(argv: list) -> dict:
    """The --json report of argv, run in-process, with timings as its keys."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    doc = json.loads(out.getvalue())
    doc["timings"] = list(doc["timings"])
    return doc


def regen() -> None:
    """Write every golden report; a request that does not pass writes none."""
    docs = {name: report(argv) for name, argv in REQUESTS.items()}
    if failed := [name for name, doc in docs.items() if not doc["pass"]]:
        raise SystemExit(f"not passing, nothing written: {', '.join(failed)}")
    for name, doc in docs.items():
        (HERE / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {name}.json")


if __name__ == "__main__":
    regen()
