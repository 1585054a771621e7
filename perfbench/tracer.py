"""Spans and counts around calls into tubecalc, recorded from outside.

``Tracer.install`` rebinds every public function of the layer modules (and
the public methods of ``Tube``) to a timing wrapper, in every tubecalc
module namespace that refers to it, so calls between modules are seen too.
The package files are not touched, and nothing is installed unless a
traced run asks for it.

Every wrapped call passes the same boundary: it pushes a frame, and on
return adds its duration to its parent's child time.  A call's self time is
its duration minus its children's, and a layer's self time is the sum over
its functions.  Calls into ``arcs`` and ``homs`` run millions of times, so
they are folded into per-function totals instead of being kept as span
records; every other call is kept as a span (name, start, end, parent span,
op id) and written out at the end.  Helpers that only their own layer
calls, millions of times (the per-arc predicates of ``type_a``, the
crossing counts behind ``homs.ext_dim``), are left unwrapped: their time
stays in their caller's self time, in the same layer, which keeps the
tracing overhead moderate.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("arcs", "homs", "torsion", "type_a", "oracle", "serialize", "render", "cli")
UNWRAPPED = {
    "homs.neg_crossings", "homs.pos_crossings",
    "type_a.crossing", "type_a.ext_dim", "type_a.hom_nonzero", "type_a.tau", "type_a.tau_inv",
    "type_a.check_arc", "type_a.ses_middle",
}
FOLDED_LAYERS = ("arcs", "homs")
PERP_FUNCTIONS = {"torsion.right_perp", "torsion.left_perp"}


def _system_cells(a, b) -> int:
    """Cells of the linear system hom_dim_oracle solves, from the dimension
    vectors alone: (rows over all arrows) x (unknowns over all vertices)."""
    shape = a.shape
    unknowns = sum(b.dims[v] * a.dims[v] for v in range(shape.num_vertices))
    rows = sum(b.dims[w] * a.dims[v] for (v, w) in shape.arrows)
    return rows * unknowns


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}  # qualified name -> [calls, inclusive seconds, self seconds]
        self.counts = Counter()  # derived counts taken at the same boundaries
        self.spans = []  # [name, start, end, parent span, op id]
        self.layer_of = {}
        self._stack = []  # frames: [child seconds, span index]
        self._op_id = None
        self._perp_depth = 0
        self._originals = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import tubecalc
        from tubecalc.arcs import Tube

        modules = {name: importlib.import_module(f"tubecalc.{name}") for name in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__ and f"{layer}.{attr}" not in UNWRAPPED:
                    targets[fn] = (mod, attr, f"{layer}.{attr}", layer)
        for attr, fn in vars(Tube).items():
            if not attr.startswith("_") and inspect.isfunction(fn):
                targets[fn] = (Tube, attr, f"arcs.Tube.{attr}", "arcs")
        wrappers = {}
        for fn, (_, attr, qual, layer) in targets.items():
            wrappers[fn] = self._wrap(fn, qual, folded=layer in FOLDED_LAYERS)
            self.layer_of[qual] = layer
        namespaces = [tubecalc, *modules.values(), Tube]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._originals.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._originals):
            setattr(ns, attr, value)
        self._originals.clear()

    def _wrap(self, fn, qual: str, folded: bool):
        tracer = self
        stat = self.stats.setdefault(qual, [0, 0.0, 0.0])
        is_perp = qual in PERP_FUNCTIONS
        is_normalize = qual == "arcs.Tube.normalize"
        is_oracle_hom = qual == "oracle.hom_dim_oracle"
        is_render = qual == "render.render_svg"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = -1
            if not folded:
                span = len(tracer.spans)
                tracer.spans.append([qual, 0.0, 0.0, stack[-1][1], tracer._op_id])
            if is_perp:
                tracer._perp_depth += 1
            elif is_normalize and tracer._perp_depth:
                tracer.counts["torsion.perp_arcs_examined"] += 1
            elif is_oracle_hom:
                tracer.counts["oracle.system_cells"] += _system_cells(*args[:2])
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_render:
                    tracer.counts["render.svg_bytes"] += len(result.encode("utf-8"))
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if is_perp:
                    tracer._perp_depth -= 1
                dur = end - start
                stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if span >= 0:
                    record = tracer.spans[span]
                    record[1], record[2] = start, end

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- ops ---------------------------------------------------------------------

    @contextmanager
    def op(self, kind: str, op_id: str):
        """One benchmark op: the root span every call inside it hangs from."""
        span = len(self.spans)
        self.spans.append([f"op.{kind}", 0.0, 0.0, -1, op_id])
        self._op_id = op_id
        self._stack.append([0.0, span])
        self.active = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[span][1:3] = [start, end]
            self.counts[f"ops.{kind}"] += 1
            self._op_id = None

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def profile(self) -> "Profile":
        """The totals so far, as a copy that later calls leave unchanged."""
        return Profile({q: list(st) for q, st in self.stats.items()}, Counter(self.counts), self.layer_of)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


class Profile:
    """Per-function totals and counts of a traced pass, or of one part of it:
    ``later - earlier`` is what happened between two ``Tracer.profile`` calls."""

    def __init__(self, stats: dict, counts: Counter, layer_of: dict):
        self.stats, self.counts, self.layer_of = stats, counts, layer_of

    def __sub__(self, earlier: "Profile") -> "Profile":
        stats = {q: [a - b for a, b in zip(st, earlier.stats[q])] for q, st in self.stats.items()}
        counts = Counter({k: v - earlier.counts[k] for k, v in self.counts.items()})
        return Profile(stats, counts, self.layer_of)

    def calls(self, qual: str) -> int:
        return self.stats[qual][0]

    def incl_s(self, qual: str) -> float:
        return self.stats[qual][1]

    def layer_self_s(self, layer: str) -> float:
        return sum(st[2] for q, st in self.stats.items() if self.layer_of[q] == layer)


class NullTracer:
    """Stands in for a Tracer in untraced runs; adds no wrapper and no cost."""

    @contextmanager
    def op(self, kind: str, op_id: str):
        yield

    def count(self, name: str, value: int) -> None:
        pass
