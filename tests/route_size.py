"""How much of the package each fresh request compiles.

    PYTHONPATH=src python tests/route_size.py

For each request below, run in a fresh interpreter, print the `k3mahler`
modules it loaded, their AST nodes and their source bytes, and the totals.
Without `__pycache__` (as under PYTHONDONTWRITEBYTECODE=1) a request
compiles every module it loads, so these totals track its compile time.
Exits 1 if a request exceeds its ceiling in AST nodes.
"""

import ast
import json
import subprocess
import sys

PROBE = """
import contextlib, io, json, sys
from k3mahler.cli import main
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, code
print(json.dumps({m: sys.modules[m].__file__ for m in sorted(sys.modules)
                  if m.startswith("k3mahler")}))
"""
# request -> ceiling on the AST nodes of the modules it loads
REQUESTS = {
    "import": ([], 3300),
    **{f"ap --k {k} --pmax 1500": (["ap", "--k", k, "--pmax", "1500", "--json"], 4200)
       for k in ("3", "6", "18")},
    "verify --k 0": (["verify", "--k", "0", "--json"], 6250),
    "verify --k 3": (["verify", "--k", "3", "--json"], 11700),
    "verify --k 6": (["verify", "--k", "6", "--json"], 11700),
    "verify --k 18": (["verify", "--k", "18", "--json"], 19700),
}


def size(path: str) -> tuple[int, int]:
    """(AST nodes, source bytes) of a source file."""
    with open(path, "rb") as fh:
        text = fh.read()
    return sum(1 for _ in ast.walk(ast.parse(text))), len(text)


def main() -> int:
    over = []
    for name, (argv, ceiling) in REQUESTS.items():
        proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-500:]}")
            return 1
        sizes = {m: size(path) for m, path in json.loads(proc.stdout).items()}
        nodes, nbytes = (sum(s[i] for s in sizes.values()) for i in (0, 1))
        print(f"{name}: {nodes} AST nodes (ceiling {ceiling}), {nbytes} bytes, "
              f"{len(sizes)} modules")
        for m, (n, b) in sizes.items():
            print(f"  {m:<22} {n:6d} {b:7d}")
        if nodes > ceiling:
            over.append(name)
    if over:
        print("over the ceiling:", ", ".join(over))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
