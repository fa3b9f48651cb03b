"""Run one k3mahler CLI request with a timing span around every public
module-level function of each layer.

    python3 perfbench/traced.py STATS.json verify --k 18 --json

Each k3mahler layer module is instrumented as it is imported: its public
functions (and lru-cached ones) are replaced by timing wrappers in the module
namespace and wherever another k3mahler module imported them by name.  Calls
that go through module globals, inside a module or across modules, are
therefore timed.  Methods of classes (Poly, RatFunc, ...) are not wrapped;
their time counts towards the layer whose function called them.

Module execution is itself a span of the "import" layer, so lazy imports
inside the CLI are charged to import, as an untraced run pays them.

STATS.json receives, for this one request: the monotonic clock at entry and
exit of this script, self time per layer, inclusive time and call count per
function (outermost activations only for time), counters recorded from
arguments and results, and the spans that cross a layer boundary.
"""

import json
import sys
import time


def now() -> float:
    """CLOCK_MONOTONIC, the clock run.py stamps spawn and reap with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


T_ENTER = now()

import functools  # noqa: E402
import importlib.abc  # noqa: E402
import inspect  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

PACKAGE = "k3mahler"
LAYERS = ("cli", "mahler", "lfunctions", "pointcount", "lattices",
          "mwsections", "exactalg", "fixtures")

# p x p int64 temporaries built by one weierstrass_fiber_ap_values(k, p) call
# in the O(p^2) kernel: the two products, their two sums, the reduction mod p,
# the Legendre gather and 1 + chi.  A computed figure, not a measurement.
FIBER_SCAN_PXP_ARRAYS = 7


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _note_form_coefficients(counts, args, kwargs, result):
    counts["lfunctions.form_coefficients.n"] += int(_arg(args, kwargs, 1, "N"))


def _note_fiber_scan(counts, args, kwargs, result):
    p = int(_arg(args, kwargs, 1, "p"))
    counts["pointcount.bytes_computed"] += FIBER_SCAN_PXP_ARRAYS * 8 * p * p


def _note_poly_gcd(counts, args, kwargs, result):
    if result.degree() > 0:
        counts["exactalg.poly_gcd.nontrivial"] += 1


NOTES = {
    "lfunctions.form_coefficients": _note_form_coefficients,
    "pointcount.weierstrass_fiber_ap_values": _note_fiber_scan,
    "exactalg.poly_gcd": _note_poly_gcd,
}


class Tracer:
    """Span stack with per-layer self time and per-function inclusive time."""

    def __init__(self):
        self.stack = []               # [name, layer, start, child_time, span_id]
        self.layer_self = defaultdict(float)
        self.layer_incl = defaultdict(float)
        self.func_incl = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []               # [name, parent_span_id, t0, t1]
        self._active_func = Counter()   # activations on the stack, per function
        self._active_layer = Counter()  # and per layer

    def enter(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        span_id = None
        if parent is None or parent[1] != layer:
            span_id = len(self.spans)
            self.spans.append([name, self._span_of(), 0.0, 0.0])
        self._active_func[name] += 1
        self._active_layer[layer] += 1
        self.calls[name] += 1
        frame = [name, layer, now(), 0.0, span_id]
        self.stack.append(frame)
        if span_id is not None:
            self.spans[span_id][2] = frame[2]
        return frame

    def exit(self, frame):
        end = now()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        name, layer, start, child, span_id = frame
        duration = end - start
        self.layer_self[layer] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        self._active_func[name] -= 1
        self._active_layer[layer] -= 1
        if self._active_func[name] == 0:
            self.func_incl[name] += duration
        if self._active_layer[layer] == 0:
            self.layer_incl[layer] += duration
        if span_id is not None:
            self.spans[span_id][3] = end

    def _span_of(self):
        for frame in reversed(self.stack):
            if frame[4] is not None:
                return frame[4]
        return None


def _wrap(fn, name, layer, tracer):
    note = NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if note is not None:
            note(tracer.counts, args, kwargs, result)
        return result

    return traced


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)   # lru_cache keeps __wrapped__
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            yield attr, obj


class Instrumenter(importlib.abc.MetaPathFinder):
    """Meta-path hook that times the import of each layer module and wraps
    its public functions once it has executed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.wrapped = {}             # id(original) -> wrapper

    def find_spec(self, fullname, path, target=None):
        prefix, _, layer = fullname.partition(".")
        if prefix != PACKAGE or layer not in LAYERS:
            return None
        for finder in sys.meta_path:
            if finder is self:
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            frame = self.tracer.enter("import." + layer, "import")
            try:
                exec_module(module)
            finally:
                self.tracer.exit(frame)
            self.instrument(module, layer)

        spec.loader.exec_module = timed_exec
        return spec

    def instrument(self, module, layer):
        for attr, fn in list(_public_functions(module)):
            wrapper = _wrap(fn, f"{layer}.{attr}", layer, self.tracer)
            self.wrapped[id(fn)] = (fn, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = self.wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sys.meta_path.insert(0, Instrumenter(tracer))
    frame = tracer.enter("import", "import")
    try:
        from k3mahler import cli
    finally:
        tracer.exit(frame)
    rc = 1
    try:
        rc = cli.main(argv)
    finally:
        stats = {
            "t_enter": T_ENTER,
            "layer_self": tracer.layer_self,
            "layer_incl": tracer.layer_incl,
            "func_incl": tracer.func_incl,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "spans": tracer.spans,
            "t_exit": now(),
        }
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
