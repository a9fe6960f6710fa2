"""Per-layer spans and counters, recorded from outside the package.

install() wraps the public functions of cesaronorm's layers and rebinds
every module-level name that refers to them: the package imports names
directly (spaces uses `golden_section_max`, cli uses `verify_theorem`),
so wrapping only the defining module would miss those calls.  The
`eval_at` methods of the classes in cesaronorm.functions are wrapped on
their classes.

Each wrapped call opens a span (layer, start, end, parent span, operation
index).  Spans are kept in flat arrays and written out once, at the end of
the run.  A call into the same layer from inside that layer (Poly.eval_at
calling PowerSeries.eval_at) stays inside the outer span.  Counters are
exact and repeat from run to run: calls, panels and nodes of the
quadrature, profile evaluations, golden-section probes, points evaluated,
angular grid sizes and samples drawn.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Layer names, in the order the per-layer metrics are reported.
LAYERS = (
    "numerics.integrate_finite",
    "numerics.sup_over_radius",
    "numerics.golden_section_max",
    "functions.evaluate",
    "functions.eval_at",
    "cesaro.cesaro_transform",
    "cesaro.forms",
    "spaces.space_norm",
    "theorems.verify_theorem",
    "theorems.sup_search",
    "theorems.slice",
    "empirical.sample_unit_ball",
    "empirical.operator_norm_lower_bound",
    "cli.main",
)

# layer -> (module, function names) wrapped under that layer name
_FUNCTIONS = {
    "numerics.integrate_finite": ("numerics", ("integrate_finite",)),
    "numerics.sup_over_radius": ("numerics", ("sup_over_radius",)),
    "numerics.golden_section_max": ("numerics", ("golden_section_max",)),
    "functions.evaluate": ("functions", ("evaluate",)),
    "cesaro.cesaro_transform": ("cesaro", ("cesaro_transform",)),
    "cesaro.forms": ("cesaro", ("cesaro_integral", "cesaro_semigroup", "cesaro_derivative")),
    "spaces.space_norm": ("spaces", ("space_norm",)),
    "theorems.verify_theorem": ("theorems", ("verify_theorem",)),
    "theorems.sup_search": ("theorems", ("korenblum_sup", "log_to_plain_norm", "log_to_log_norm")),
    "theorems.slice": (
        "theorems",
        ("korenblum_slice_integral", "log_to_plain_slice", "log_to_log_slice"),
    ),
    "empirical.sample_unit_ball": ("empirical", ("sample_unit_ball",)),
    "empirical.operator_norm_lower_bound": ("empirical", ("operator_norm_lower_bound",)),
    "cli.main": ("cli", ("main",)),
}

OP_SPAN = "bench.op"


class Tracer:
    """Span store and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.current_op = -1
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts.clear()

    def id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.op_id.append(self.current_op)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, nid: int) -> bool:
        return bool(self.stack) and self.name_id[self.stack[-1]] == nid

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, minus the time covered by child spans."""
        if not len(self.start):
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        per_name = np.bincount(
            np.frombuffer(self.name_id, dtype=np.int32),
            weights=dur - child,
            minlength=len(self.names),
        )
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path: str):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _wrap(tracer: Tracer, layer: str, fn, before=None, after=None):
    nid = tracer.id_of(layer)
    counts = tracer.counts
    calls = layer + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.inside(nid):
            return fn(*args, **kwargs)
        counts[calls] += 1
        if before is not None:
            args = before(args)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _hooks(tracer: Tracer, layer: str):
    """(before, after) counting hooks for the layers that count more than calls."""
    counts = tracer.counts

    if layer == "numerics.integrate_finite":

        def before(args):
            g = args[0]

            def counted(x):
                counts[layer + ".nodes"] += int(np.size(x))
                return g(x)

            return (counted,) + tuple(args[1:])

        def after(args, result):
            counts[layer + ".panels"] += int(result.subdivisions)

        return before, after

    if layer in ("numerics.sup_over_radius", "numerics.golden_section_max"):
        key = layer + (".profile_evals" if layer.endswith("radius") else ".probes")
        improving = layer == "numerics.golden_section_max"

        def before(args):
            h = args[0]
            best = [-np.inf]

            def counted(x):
                v = h(x)
                counts[key] += 1
                if improving and v > best[0]:
                    best[0] = v
                    counts[layer + ".improving"] += 1
                return v

            return (counted,) + tuple(args[1:])

        return before, None

    if layer in ("functions.evaluate", "functions.eval_at"):

        def before(args):
            counts[layer + ".points"] += int(np.size(args[1]))  # evaluate(f, z), eval_at(self, z)
            return args

        return before, None

    if layer == "spaces.space_norm":

        def after(args, result):
            counts[layer + ".angular_points"] += int(result.angular_points)

        return None, after

    if layer == "empirical.sample_unit_ball":

        def after(args, result):
            counts[layer + ".samples"] += len(result)

        return None, after

    return None, None


def install(tracer: Tracer) -> None:
    """Wrap every layer function and rebind all its module-level names."""
    for mod_name, _ in _FUNCTIONS.values():
        importlib.import_module("cesaronorm." + mod_name)
    from cesaronorm import functions

    modules = [m for name, m in sys.modules.items() if name == "cesaronorm" or name.startswith("cesaronorm.")]
    replace = {}
    for layer, (mod_name, names) in _FUNCTIONS.items():
        module = sys.modules["cesaronorm." + mod_name]
        before, after = _hooks(tracer, layer)
        for name in names:
            original = getattr(module, name)
            replace[id(original)] = (original, _wrap(tracer, layer, original, before, after))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    before, _ = _hooks(tracer, "functions.eval_at")
    for cls in vars(functions).values():
        if isinstance(cls, type) and cls.__module__ == functions.__name__ and "eval_at" in vars(cls):
            setattr(cls, "eval_at", _wrap(tracer, "functions.eval_at", vars(cls)["eval_at"], before))


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); times scaled to nominal seconds."""
    self_s = tracer.self_times()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    extra = {
        "numerics.integrate_finite": ("panels", "nodes"),
        "numerics.sup_over_radius": ("profile_evals",),
        "numerics.golden_section_max": ("probes",),
        "functions.evaluate": ("points",),
        "functions.eval_at": ("points",),
        "spaces.space_norm": ("angular_points",),
    }
    for layer in LAYERS:
        if layer == "empirical.sample_unit_ball":
            out[layer + ".samples"] = (counts[layer + ".samples"], "count")
        else:
            out[layer + ".calls"] = (counts[layer + ".calls"], "count")
        for key in extra.get(layer, ()):
            out[f"{layer}.{key}"] = (counts[f"{layer}.{key}"], "count")
        if layer == "numerics.golden_section_max":
            probes = counts[layer + ".probes"]
            ratio = counts[layer + ".improving"] / probes if probes else 0.0
            out[layer + ".improving_ratio"] = (ratio, "ratio")
        out[layer + ".self_s"] = (self_s.get(layer, 0.0) * scale, "s")
    return out
