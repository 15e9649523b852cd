"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install()`` replaces every public function of the ``stepcross``
modules, at every module-level binding that holds it by identity (module
globals and the values of module-level dicts, so ``besov.lp_norm``,
``approx.lp_norm`` and ``stepcross.lp_norm`` all record), and the public
instance methods plus the algebra dunders of the package's classes, on the
class.  ``uninstall()`` puts every original back.  Nothing under ``src/``
changes.

Spans stay in memory as tuples and are written out once, at the end of a
run.  A span records its name, start, end, parent span, the item it ran
for, an optional label, an optional work measure taken from its arguments
or result, and the name of the exception it raised, if any.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import NamedTuple

PACKAGE = "stepcross"
# The algebra dunders that do real work; other dunders are bookkeeping.
TRACED_DUNDERS = {"__init__": "init", "__add__": "add", "__sub__": "sub",
                  "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg"}

# Bytes computed per grid point by evaluate_grid: the two float64 bincounts
# (one complex-sized array together), the complex spectrum and the complex
# ifftn output, 16 B each.
GRID_BYTES_PER_POINT = 16 * 3


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    item: int
    label: str | None
    work: object
    error: str | None


def _rows(args, kwargs, out):
    ks = args[1] if len(args) > 1 else kwargs["ks"]
    return len(ks)


# Work measures, keyed by span name: (args, kwargs, result) -> value.
WORK = {
    "trigpoly.init": _rows,
    "trigpoly.evaluate_grid": lambda a, k, out: out.size,
    "indexsets.materialize": lambda a, k, out: out.shape[0],
    "indexsets.chi": lambda a, k, out: len(out),
    "kernels.band_apply": lambda a, k, out: out.is_zero,
    "approx.project_q": lambda a, k, out: (out.n_terms, a[0].n_terms),
}
# Labels, keyed by span name: (args, kwargs) -> str.
LABEL = {
    "verify.run_section": lambda a, k: a[0] if a else k["name"],
}


def package_modules() -> list:
    """The imported stepcross modules, package first."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _public_functions(module) -> dict:
    """Functions defined in ``module`` whose names are public."""
    return {name: obj for name, obj in vars(module).items()
            if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
            and hasattr(obj, "__code__")}


def _classes(module) -> list:
    return [obj for name, obj in vars(module).items()
            if isinstance(obj, type) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def _class_targets(cls) -> dict:
    """Methods written in the class body (not generated, as a dataclass
    ``__init__`` is) that get traced, by attribute name."""
    source = sys.modules[cls.__module__].__file__
    out = {}
    for name, obj in vars(cls).items():
        if getattr(getattr(obj, "__code__", None), "co_filename", None) != source:
            continue
        if name in TRACED_DUNDERS or not name.startswith("_"):
            out[name] = obj
    return out


def _method_span_name(cls, attr: str) -> str:
    return f"{_short(cls.__module__)}.{TRACED_DUNDERS.get(attr, attr)}"


def bindings(modules=None):
    """Every module-level place that holds a traceable callable.

    Yields ``(container, key, value, kind)`` where ``kind`` is ``"attr"`` for
    a module or class attribute and ``"item"`` for a dict entry.
    """
    modules = package_modules() if modules is None else modules
    for module in modules:
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            if callable(value) and not isinstance(value, type):
                yield module, key, value, "attr"
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if callable(dvalue) and not isinstance(dvalue, type):
                        yield value, dkey, dvalue, "item"
        for cls in _classes(module):
            for attr, fn in _class_targets(cls).items():
                yield cls, attr, fn, "attr"


def traced_originals(modules=None) -> dict:
    """Map from each function to trace (by id) to ``(function, span name)``."""
    modules = package_modules() if modules is None else modules
    out = {}
    for module in modules:
        for name, fn in _public_functions(module).items():
            out[id(fn)] = (fn, f"{_short(module.__name__)}.{name}")
        for cls in _classes(module):
            for attr, fn in _class_targets(cls).items():
                out.setdefault(id(fn), (fn, _method_span_name(cls, attr)))
    return out


class Tracer:
    """Collects spans from wrapped stepcross callables."""

    def __init__(self):
        self.spans: list = []
        self.item = -1
        self._stack: list[int] = []
        self._patched: list = []
        self._wrappers: dict = {}
        self.origin = time.perf_counter()

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        work_of = WORK.get(name)
        label_of = LABEL.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            label = label_of(args, kwargs) if label_of else None
            error = None
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                work = work_of(args, kwargs, out) if work_of and error is None else None
                spans[idx] = Span(name, start, end, parent, self.item, label, work, error)

        return traced

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = traced_originals()
        for container, key, value, kind in list(bindings()):
            hit = targets.get(id(value))
            if hit is None or hit[0] is not value:
                continue
            wrapper = self._wrappers.get(id(value))
            if wrapper is None:
                wrapper = self._wrappers[id(value)] = self.wrap(value, hit[1])
            self._patched.append((container, key, value, kind))
            if kind == "item":
                container[key] = wrapper
            else:
                setattr(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, value, kind in reversed(self._patched):
            if kind == "item":
                container[key] = value
            else:
                setattr(container, key, value)
        self._patched.clear()
        self._wrappers.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                work = list(s.work) if isinstance(s.work, tuple) else s.work
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - self.origin,
                    "end": s.end - self.origin, "parent": s.parent, "item": s.item,
                    "label": s.label, "work": work, "error": s.error}) + "\n")


# -- analysis ---------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        clipped = [(lo, hi) for lo, hi in clipped if hi > lo]
        out.append((s.end - s.start) - _covered(clipped))
    return out


def _nearest(spans, names) -> list[int]:
    """Per span: index of the nearest enclosing span (itself included) whose
    name is in ``names``, or -1.  Parents precede children in ``spans``."""
    out = []
    for i, s in enumerate(spans):
        if s.name in names:
            out.append(i)
        else:
            out.append(out[s.parent] if s.parent >= 0 else -1)
    return out


SECTION_NAMES = ("identities", "cross-size", "shell-size", "tail-domination",
                 "nikolskii", "besov-equivalence", "mean-square-rates",
                 "averaged-witness", "uniform-witness")

CALLS = ("trigpoly.init", "trigpoly.evaluate_grid", "trigpoly.lp_norm", "trigpoly.add",
         "kernels.band_apply", "kernels.k_packet", "majorant.omega_dyadic",
         "indexsets.chi", "indexsets.materialize", "approx.project_q")
SELF = CALLS + ("trigpoly.random_in_spectrum", "besov.dyadic_blocks",
                "besov.besov_norm_blocks", "besov.besov_norm_vp",
                "besov.normalize_to_ball", "indexsets.theta", "indexsets.theta_prime",
                "indexsets.q_size", "indexsets.tail_sum", "approx.approx_error",
                "approx.rate_experiment", "extremal.g5_packet_normalized",
                "extremal.g7_stack_normalized", "cli.main")


def _unit(name: str) -> str:
    kind = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "wall_s": "s", "bytes_computed": "B",
            "grids_per_call": "grids/call", "terms_per_norm": "calls/norm",
            "zero_frac": "ratio", "kept_frac": "ratio",
            "traced_items_per_s": "1/s"}.get(kind, "count")


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    return list(layer_metrics([], 1)) + ["harness.traced_items_per_s"]


# name -> (unit, better) for every per-layer metric
LAYER_HIGHER = {"approx.project_q.kept_frac", "harness.traced_items_per_s"}


def layer_metric_table() -> dict:
    return {name: (_unit(name), "higher" if name in LAYER_HIGHER else "lower")
            for name in layer_metric_names()}


def layer_metrics(spans, passes: int) -> dict:
    """The per-layer metrics of a traced run, per completed pass.

    Counts and times are totals divided by ``passes``; ``*_frac``,
    ``grids_per_call`` and ``terms_per_norm`` are ratios over the run.
    """
    passes = max(1, passes)
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    errors: dict[tuple, int] = {}
    zero = kept = offered = 0
    section_wall = {name: 0.0 for name in SECTION_NAMES}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        if s.error:
            errors[(s.name, s.error)] = errors.get((s.name, s.error), 0) + 1
        if s.label in section_wall and s.name == "verify.run_section":
            section_wall[s.label] += s.end - s.start
        if s.work is None:
            continue
        if s.name == "kernels.band_apply":
            zero += bool(s.work)
        elif s.name == "approx.project_q":
            kept += s.work[0]
            offered += s.work[1]
        else:
            work[s.name] = work.get(s.name, 0) + s.work

    # grids per lp_norm call that sampled at all (Parseval calls sample nothing)
    lp_of = _nearest(spans, {"trigpoly.lp_norm"})
    grids: dict[int, int] = {}
    for s, anc in zip(spans, lp_of):
        if s.name == "trigpoly.evaluate_grid" and anc >= 0:
            grids[anc] = grids.get(anc, 0) + 1
    # lp_norm calls per block-form or band-form norm
    norm_of = _nearest(spans, {"besov.besov_norm_blocks", "besov.besov_norm_vp"})
    norm_terms = sum(1 for s, anc in zip(spans, norm_of)
                     if s.name == "trigpoly.lp_norm" and anc >= 0)
    norms = calls.get("besov.besov_norm_blocks", 0) + calls.get("besov.besov_norm_vp", 0)

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) / passes
    for name in SELF:
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    out["trigpoly.init.rows"] = work.get("trigpoly.init", 0) / passes
    points = work.get("trigpoly.evaluate_grid", 0)
    out["trigpoly.evaluate_grid.points"] = points / passes
    out["trigpoly.evaluate_grid.bytes_computed"] = GRID_BYTES_PER_POINT * points / passes
    out["trigpoly.lp_norm.grids_per_call"] = (sum(grids.values()) / len(grids)) if grids else 0.0
    out["trigpoly.lp_norm.accuracy_errors"] = errors.get(
        ("trigpoly.lp_norm", "QuadratureAccuracyError"), 0) / passes
    band_calls = calls.get("kernels.band_apply", 0)
    out["kernels.band_apply.zero_frac"] = zero / band_calls if band_calls else 0.0
    out["besov.terms_per_norm"] = norm_terms / norms if norms else 0.0
    out["indexsets.chi.boxes"] = work.get("indexsets.chi", 0) / passes
    out["indexsets.tail_sum.refused"] = errors.get(
        ("indexsets.tail_sum", "CapacityError"), 0) / passes
    out["indexsets.materialize.points"] = work.get("indexsets.materialize", 0) / passes
    out["approx.project_q.kept_frac"] = kept / offered if offered else 0.0
    for name in SECTION_NAMES:
        out[f"verify.{name}.wall_s"] = section_wall[name] / passes
    return dict(sorted(out.items()))
