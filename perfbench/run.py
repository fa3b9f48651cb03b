"""k3mahler benchmark: closed-loop, one-at-a-time CLI requests, each in a fresh
interpreter, checked against the benchmark's own oracles.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
./src.  One client sends one request at a time and the next only when the
previous one has ended.  Each request runs `k3mahler <argv>` in a new
interpreter, with a fresh empty A_p cache directory, a fresh working
directory as cwd and as HOME, and BLAS/OpenMP pinned to one thread.  The seed
only permutes the order of the requests within each round.

With --trace 0 each request alternates with the same request to the frozen
copy of the program in perfbench/baseline, and the last stdout line carries
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of
perfbench/traced.py, from traced requests alternated with untraced ones of
the same kind.  Earlier lines give the environment and every metric by name,
per request kind.
See perfbench/README.md for the metric definitions.
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import mpmath.libmp

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The program as it was when the benchmark was defined, frozen.  Untraced runs
# alternate each request with the same request to this copy; the shared host's
# speed drifts by a quarter or more within minutes, and the ratio of the two
# does not.
BASELINE = Path(__file__).resolve().parent / "baseline"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
TRACED = Path(__file__).resolve().parent / "traced.py"
# what the `k3mahler` console script runs
CLI_MAIN = "import sys; from k3mahler.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_ONLY = "import k3mahler.cli"

AP_PMAX = 1500
SETUP_REPS = 5
REQUEST_TIMEOUT_S = 90.0

# request kind -> argv; the kind name is also the metric-name suffix
KINDS = {
    "verify_s.k0": ["verify", "--k", "0", "--json"],
    "verify_s.k3": ["verify", "--k", "3", "--json"],
    "verify_s.k6": ["verify", "--k", "6", "--json"],
    "verify_s.k18": ["verify", "--k", "18", "--json"],
    "ap_s.k3": ["ap", "--k", "3", "--pmax", str(AP_PMAX), "--json"],
    "ap_s.k6": ["ap", "--k", "6", "--pmax", str(AP_PMAX), "--json"],
    "ap_s.k18": ["ap", "--k", "18", "--pmax", str(AP_PMAX), "--json"],
}
WORKLOADS = {
    "identities": ["verify_s.k0", "verify_s.k3", "verify_s.k6"],
    "k18-replay": ["verify_s.k18"],
    "ap-scan": ["ap_s.k3", "ap_s.k6", "ap_s.k18"],
}

LAYERS = ("import", "cli", "mahler", "lfunctions", "pointcount", "lattices",
          "mwsections", "exactalg", "fixtures")
# per-layer metric -> function whose outermost inclusive time it reports
FUNC_TIMES = {
    "mahler.ek_series_s": "mahler.bertin_series_for_k",
    "lfunctions.form_coefficients_s": "lfunctions.form_coefficients",
    "lfunctions.lvalue_sum_s": "lfunctions.lvalue_from_coeffs",
    "lfunctions.d3_s": "lfunctions.d3",
    "pointcount.ap_scan_s": "pointcount.ap_scan",
    "lattices.summary_s": "lattices.transcendental_summary",
    "mwsections.nontorsion_s": "mwsections.verify_nontorsion",
    "mwsections.height_s": "mwsections.y18_height",
    "mwsections.on_curve_s": "mwsections.verify_on_curve",
    "mwsections.halving_s": "mwsections.can_halve",
    "exactalg.poly_gcd_s": "exactalg.poly_gcd",
}
FUNC_CALLS = {
    "pointcount.A_p.calls": "pointcount.A_p",
    "pointcount.fiber_scan.calls": "pointcount.weierstrass_fiber_ap_values",
    "mwsections.ec_add.calls": "mwsections.ec_add",
    "exactalg.poly_gcd.calls": "exactalg.poly_gcd",
}
COUNTS = ("lfunctions.form_coefficients.n", "pointcount.bytes_computed",
          "exactalg.poly_gcd.nontrivial")
ERRORS = ("mahler.lhs_err", "lfunctions.rhs_err")
QUAD_KS = (0, 3, 6, 18)
SECONDS, COUNT, BYTES, RATIO = "s", "count", "B", "1"
PER_LAYER_UNITS = {
    "interp.start_s": SECONDS, "interp.exit_s": SECONDS, "import.s": SECONDS,
    **{f"{layer}.self_s": SECONDS for layer in LAYERS[1:]},
    **{f"mahler.quadrature_s.k{k}": SECONDS for k in QUAD_KS},
    "mahler.ek_series_s": SECONDS, "mahler.lhs_err": RATIO,
    "lfunctions.form_coefficients_s": SECONDS, "lfunctions.form_coefficients.n": COUNT,
    "lfunctions.lvalue_sum_s": SECONDS, "lfunctions.d3_s": SECONDS,
    "lfunctions.rhs_err": RATIO,
    "pointcount.ap_scan_s": SECONDS, "pointcount.A_p.calls": COUNT,
    "pointcount.fiber_scan.calls": COUNT, "pointcount.bytes_computed": BYTES,
    "lattices.summary_s": SECONDS,
    "mwsections.nontorsion_s": SECONDS, "mwsections.height_s": SECONDS,
    "mwsections.on_curve_s": SECONDS, "mwsections.halving_s": SECONDS,
    "mwsections.ec_add.calls": COUNT,
    "exactalg.poly_gcd.calls": COUNT, "exactalg.poly_gcd_s": SECONDS,
    "exactalg.poly_gcd.nontrivial_ratio": RATIO,
    "fixtures.load_s": SECONDS,
    "trace.wall_s": SECONDS, "trace.overhead_s": SECONDS, "trace.accounted_share": RATIO,
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    """Machine and package versions; figures from different set-ups are not
    comparable (the mpmath backend alone changes mp speed several-fold)."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    env = {"nproc": os.cpu_count(), "cpu_model": model,
           "python": platform.python_version(),
           "mpmath_backend": mpmath.libmp.BACKEND}
    for pkg in ("numpy", "scipy", "mpmath"):
        env[pkg] = metadata.version(pkg)
    return env


@dataclass
class Request:
    """One finished fresh-interpreter run."""
    rc: int
    t_spawn: float       # CLOCK_MONOTONIC at spawn and at reap
    t_end: float
    rss_mb: float        # ru_maxrss of the child
    stdout: str
    stderr: str
    stats: Optional[dict]   # traced.py statistics, for a traced run

    @property
    def wall(self) -> float:
        return self.t_end - self.t_spawn


def spawn(argv: list, traced: bool = False, code: str = CLI_MAIN, src: Path = SRC) -> Request:
    """Run `python3 -c code argv`, or traced.py on argv, with k3mahler from
    `src`, in a fresh working directory with an empty A_p cache, and wait for
    it."""
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        cache = work / "cache"
        cache.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), HOME=str(work),
                   K3MAHLER_CACHE_DIR=str(cache), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        stats_path = work / "stats.json"
        head = [str(TRACED), str(stats_path)] if traced else ["-c", code]
        with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
            t_spawn = monotonic()
            proc = subprocess.Popen([sys.executable, *head, *argv], cwd=work, env=env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            t_end = monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Request(proc.returncode, t_spawn, t_end,
                       usage.ru_maxrss / 1024.0,
                       (work / "stdout").read_text(), (work / "stderr").read_text(),
                       json.loads(stats_path.read_text()) if stats_path.is_file() else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(kind: str, req: Request, refs: dict) -> tuple:
    """(failures, accuracy) of one request against the oracles."""
    if req.rc != 0:
        return [f"{kind}: exit {req.rc}: {req.stderr.strip()[-300:]}"], {}
    try:
        doc = json.loads(req.stdout, parse_float=oracles.parse_number)
        k = int(KINDS[kind][2])
        if kind.startswith("verify"):
            return oracles.check_verify(k, doc, refs["mahler"], refs["ap"])
        return oracles.check_ap(k, AP_PMAX, doc, refs["ap"])
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"{kind}: unreadable output: {exc!r}"], {}


def layer_metrics(kind: str, req: Request, acc: dict) -> dict:
    """Per-layer figures of one traced request."""
    st = req.stats
    selfs = st["layer_self"]
    m = {"interp.start_s": st["t_enter"] - req.t_spawn,
         "interp.exit_s": req.t_end - st["t_exit"]}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m["import.s"] = m.pop("import.self_s")
    k = int(KINDS[kind][2])
    for qk in QUAD_KS:
        m[f"mahler.quadrature_s.k{qk}"] = (st["func_incl"].get("mahler.mahler_quadrature", 0.0)
                                          if qk == k else 0.0)
    for name, func in FUNC_TIMES.items():
        m[name] = st["func_incl"].get(func, 0.0)
    for name, func in FUNC_CALLS.items():
        m[name] = st["calls"].get(func, 0)
    for name in COUNTS:
        m[name] = st["counts"].get(name, 0)
    m["fixtures.load_s"] = st["layer_incl"].get("fixtures", 0.0)
    m["mahler.lhs_err"] = acc.get("lhs_err", 0.0)
    m["lfunctions.rhs_err"] = acc.get("rhs_err", 0.0)
    m["trace.accounted_s"] = (m["interp.start_s"] + m["interp.exit_s"]
                              + sum(selfs.get(layer, 0.0) for layer in LAYERS))
    m["trace.wall_s"] = req.wall
    return m


def median_tail(values: list) -> str:
    """Median with its sample count, and the highest percentile that has at
    least ten samples beyond it when there are enough samples for one."""
    xs = sorted(values)
    text = f"median {statistics.median(values):.4f} n={len(xs)}"
    if len(xs) >= 20:
        q = 1.0 - 10.0 / len(xs)
        text += f" p{int(100 * q)} {xs[math.ceil(q * len(xs)) - 1]:.4f}"
    return text + " samples " + " ".join(f"{x:.3f}" for x in values)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    kinds = WORKLOADS[workload]
    print("env", json.dumps(environment(), sort_keys=True))
    sys.path.insert(0, str(SRC))
    refs = {"mahler": oracles.mahler_references(), "ap": oracles.ap_references(AP_PMAX)}

    setup = [spawn([], code=IMPORT_ONLY) for _ in range(1 if trace else SETUP_REPS)]
    if any(r.rc != 0 for r in setup):
        raise SystemExit(f"cannot import k3mahler.cli from {SRC}: {setup[0].stderr[-500:]}")
    setup_s = [r.wall for r in setup]

    rng = random.Random(seed)
    plain = {kind: [] for kind in kinds}      # kind -> [(Request, accuracy)]
    traced = {kind: [] for kind in kinds}
    base = {kind: [] for kind in kinds}       # kind -> [wall of the baseline]
    attempted = failed = 0
    deadline = monotonic() + seconds
    rnd = 0

    # False: untraced; True: traced; None: the baseline
    modes = (False, True) if trace else (False, None)
    runs = {False: plain, True: traced, None: base}

    def owed(kind: str, mode: Optional[bool]) -> bool:
        """Whether a request is still due once time is up: each kind needs
        one of every mode, and as many baseline requests as program ones."""
        done = len(runs[mode][kind])
        if trace:
            return done == 0
        return done < max(len((base if mode is False else plain)[kind]), 1)

    while monotonic() < deadline or any(owed(k, m) for k in kinds for m in modes):
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            for mode in (modes[::-1] if rnd % 2 else modes):
                if monotonic() >= deadline and not owed(kind, mode):
                    continue
                if mode is None:
                    req = spawn(KINDS[kind], src=BASELINE)
                    if req.rc != 0:
                        raise SystemExit(f"the baseline failed: {req.stderr[-500:]}")
                    base[kind].append(req.wall)
                    continue
                req = spawn(KINDS[kind], traced=mode)
                attempted += 1
                fails, acc = check(kind, req, refs)
                if mode and req.stats is None:
                    fails.append(f"{kind}: traced run wrote no statistics")
                if fails:
                    failed += 1
                    acc = dict(acc, digits=0.0, certified_digits=0.0, ref_digits=0.0)
                    for msg in fails:
                        print("FAIL", msg)
                (traced if mode else plain)[kind].append((req, acc))
        rnd += 1

    med = {kind: statistics.median(r.wall for r, _ in plain[kind]) for kind in kinds}
    for kind in kinds:
        print(f"{kind} [s] {median_tail([r.wall for r, _ in plain[kind]])}")
        acc = plain[kind][0][1]
        for name in ("digits", "certified_digits", "ref_digits"):
            if name in acc:
                print(f"{name}.{kind.split('.')[1]} [digits] {acc[name]:.4f}")
    print(f"fail_rate [1] {failed / attempted:.4f} ({failed}/{attempted})")

    if trace:
        metrics = trace_metrics(kinds, plain, traced)
        write_spans(workload, seed, traced)
    else:
        accs = [acc for kind in kinds for _, acc in plain[kind]]
        primes = {kind: max(acc.get("primes", 0) for _, acc in plain[kind]) for kind in kinds}
        ap_kinds = [kind for kind in kinds if primes[kind]] or kinds
        med_base = {kind: statistics.median(base[kind]) for kind in kinds}
        for kind in kinds:
            print(f"baseline {kind} [s] {median_tail(base[kind])}")
        print(f"round_s [s] {sum(med.values())}")
        print(f"ap_primes_per_s [1/s] "
              f"{sum(primes[kind] for kind in ap_kinds) / sum(med[kind] for kind in ap_kinds)}")
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "round_rel": (sum(med.values()) / sum(med_base.values()), "1"),
            "digits": (min(a["digits"] for a in accs), "digits"),
            "certified_digits": (min(a["certified_digits"] for a in accs), "digits"),
            "ref_digits": (min(a["ref_digits"] for a in accs if "ref_digits" in a), "digits"),
            "peak_rss_mb": (max(r.rss_mb for kind in kinds for r, _ in plain[kind]), "MB"),
        }
        print(f"setup_s [s] {median_tail(setup_s)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} [{unit}] {value}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def trace_metrics(kinds: list, plain: dict, traced: dict) -> dict:
    """Per-layer metrics for one round of the workload: the sum over request
    kinds of each kind's median over its traced requests (the maximum, for
    error bounds)."""
    per_kind = {kind: [layer_metrics(kind, r, acc) for r, acc in traced[kind] if r.stats]
                for kind in kinds}
    if not all(per_kind.values()):
        raise SystemExit("a request kind has no traced statistics")
    names = list(per_kind[kinds[0]][0])
    total = {}
    for name in names:
        # counts repeat exactly; median_low keeps them integers
        median = statistics.median_low if PER_LAYER_UNITS.get(name) in (COUNT, BYTES) \
            else statistics.median
        meds = [median(m[name] for m in per_kind[kind]) for kind in kinds]
        total[name] = max(meds) if name in ERRORS else sum(meds)
    gcd_calls = total["exactalg.poly_gcd.calls"]
    total["exactalg.poly_gcd.nontrivial_ratio"] = (
        total.pop("exactalg.poly_gcd.nontrivial") / gcd_calls if gcd_calls else 0.0)
    total["trace.overhead_s"] = total["trace.wall_s"] - sum(
        statistics.median(r.wall for r, _ in plain[kind]) for kind in kinds)
    total["trace.accounted_share"] = total.pop("trace.accounted_s") / total["trace.wall_s"]
    return {name: (total[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def write_spans(workload: str, seed: int, traced: dict) -> None:
    """Layer-boundary spans of every traced request, one JSON line each."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        request_id = 0
        for kind, reqs in traced.items():
            for req, _ in reqs:
                if req.stats is None:
                    continue
                for span_id, (name, parent, t0, t1) in enumerate(req.stats["spans"]):
                    fh.write(json.dumps({"request": request_id, "kind": kind,
                                         "span": span_id, "parent": parent,
                                         "name": name, "t0": t0, "t1": t1}) + "\n")
                request_id += 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "k3mahler" / "cli.py").is_file():
        print(f"error: no k3mahler sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
