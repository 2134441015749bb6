"""Span tracing around confga's public functions, installed from outside.

`instrument` wraps every public function of the layer modules and rebinds
each name in every confga module that imported it (so `confga.cli.classify`
and `confga.versor.classify` both see the wrapper). The product operators
`*`, `^`, `|` and the left/right multiplication matrices are patched on
their classes. Spans (name, start, end, parent, tag) stay in flat arrays
until the run ends; `summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("algebra", "conformal", "versor", "neuron", "expr", "scene", "cli")
CLASSIFY_KINDS = ("point", "point_pair", "circle", "sphere_opns", "sphere_ipns", "flat_point", "line", "plane")
FAILED = "failed"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.bytes: dict[str, int] = {}

    def _intern(self, table: dict, items: list, key: str) -> int:
        if key not in table:
            table[key] = len(items)
            items.append(key)
        return table[key]

    def wrap(self, name: str, fn, tagger=None, sizer=None):
        """A wrapper recording one span per call of fn."""
        nid = self._intern(self._name_ids, self.names, name)
        clock = time.perf_counter
        failed = self._intern(self._tag_ids, self.tags, FAILED)

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.tag.append(-1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.stack.pop()
                self.tag[idx] = failed
                raise
            self.end[idx] = clock()
            self.stack.pop()
            if tagger is not None:
                self.tag[idx] = self._intern(self._tag_ids, self.tags, tagger(result))
            if sizer is not None:
                self.bytes[name] = self.bytes.get(name, 0) + sizer(args, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), tags=np.array(self.tags), **self.arrays())


def _classify_tag(obj) -> str:
    return f"sphere_{obj.params['form']}" if obj.kind == "sphere" else obj.kind


def _rebind(original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "confga" or mod_name.startswith("confga.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def instrument(tracer: Tracer):
    """Wrap confga's public functions in place; returns the traced `ga` entry point."""
    modules = {layer: importlib.import_module(f"confga.{layer}") for layer in LAYERS}
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            tagger = sizer = None
            if (layer, attr) == ("conformal", "classify"):
                tagger = _classify_tag
            elif (layer, attr) == ("scene", "read_scene"):
                sizer = lambda args, result: os.path.getsize(args[0])  # noqa: E731
            elif (layer, attr) == ("scene", "scene_to_json"):
                sizer = lambda args, result: len(result)  # noqa: E731
            _rebind(fn, tracer.wrap(f"{layer}.{attr}", fn, tagger, sizer))

    Multivector = modules["algebra"].Multivector
    Algebra = modules["algebra"].Algebra
    for op, name in (("__mul__", "algebra.gp"), ("__xor__", "algebra.outer"), ("__or__", "algebra.lcont")):
        original = getattr(Multivector, op)
        traced = tracer.wrap(name, original)

        def dispatch(self, other, _original=original, _traced=traced):
            # scalar scaling goes through __mul__ too; only products are spans
            if isinstance(other, Multivector):
                return _traced(self, other)
            return _original(self, other)

        setattr(Multivector, op, dispatch)
    for meth in ("left_matrix", "right_matrix"):
        setattr(Algebra, meth, tracer.wrap("algebra.matrix", getattr(Algebra, meth)))
    return tracer.wrap("cli.main", modules["cli"].main)


# -- per-layer metrics -----------------------------------------------------------

PER_LAYER_UNITS = {
    "algebra.gp.calls": "count",
    "algebra.gp.us": "us",
    "algebra.outer.calls": "count",
    "algebra.outer.us": "us",
    "algebra.lcont.calls": "count",
    "algebra.lcont.us": "us",
    "algebra.matrix.calls": "count",
    "algebra.matrix.us": "us",
    "algebra.self_s": "s",
    "conformal.classify.calls": "count",
    "conformal.classify.failed": "count",
    **{f"conformal.classify.us.{k}": "us" for k in CLASSIFY_KINDS},
    "conformal.embed_point.us": "us",
    "conformal.extract_point.us": "us",
    "conformal.self_s": "s",
    "versor.make_versor.us": "us",
    "versor.apply.calls": "count",
    "versor.apply.us": "us",
    "versor.self_s": "s",
    "neuron.generate_dataset.ms": "ms",
    "neuron.gradient.calls": "count",
    "neuron.gradient.us": "us",
    "neuron.step_rest.us": "us",
    "neuron.self_s": "s",
    "expr.parse.us": "us",
    "expr.evaluate.us": "us",
    "expr.render.us": "us",
    "expr.self_s": "s",
    "scene.read.s": "s",
    "scene.read.bytes": "bytes",
    "scene.write.s": "s",
    "scene.write.bytes": "bytes",
    "scene.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def summarize(tracer: Tracer, passes: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics; counts, sums and self times are per pass, `.us`
    and `.ms` are per-call medians (0 when the workload never calls it)."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    names = np.array(tracer.names + [""])[a["name"]]
    tags = np.array(tracer.tags + [""])[a["tag"]]  # untagged spans (-1) read as ""
    layers = np.array([n.split(".")[0] for n in tracer.names] + [""])[a["name"]]

    def durations(*wanted) -> np.ndarray:
        return dur[np.isin(names, wanted)]

    def median(values: np.ndarray, scale: float) -> float:
        return float(np.median(values) * scale) if len(values) else 0.0

    per = 1.0 / max(passes, 1)
    out: dict[str, float] = {}
    for short, full in (("gp", "algebra.gp"), ("outer", "algebra.outer"), ("lcont", "algebra.lcont"),
                        ("matrix", "algebra.matrix")):
        d = durations(full)
        out[f"algebra.{short}.calls"] = len(d) * per
        out[f"algebra.{short}.us"] = median(d, 1e6)
    classify = names == "conformal.classify"
    out["conformal.classify.calls"] = float(np.sum(classify)) * per
    out["conformal.classify.failed"] = float(np.sum(classify & (tags == FAILED))) * per
    for kind in CLASSIFY_KINDS:
        out[f"conformal.classify.us.{kind}"] = median(dur[classify & (tags == kind)], 1e6)
    out["conformal.embed_point.us"] = median(durations("conformal.embed_point"), 1e6)
    out["conformal.extract_point.us"] = median(durations("conformal.extract_point"), 1e6)
    out["versor.make_versor.us"] = median(durations("versor.make_versor"), 1e6)
    d = durations("versor.apply")
    out["versor.apply.calls"] = len(d) * per
    out["versor.apply.us"] = median(d, 1e6)
    out["neuron.generate_dataset.ms"] = median(durations("neuron.generate_dataset"), 1e3)
    grad = durations("neuron.gradient")
    out["neuron.gradient.calls"] = len(grad) * per
    out["neuron.gradient.us"] = median(grad, 1e6)
    rest = float(np.sum(durations("neuron.train"))) - float(np.sum(grad))
    out["neuron.step_rest.us"] = rest / len(grad) * 1e6 if len(grad) else 0.0
    out["expr.parse.us"] = median(durations("expr.parse"), 1e6)
    out["expr.evaluate.us"] = median(durations("expr.evaluate"), 1e6)
    out["expr.render.us"] = median(durations("expr.render"), 1e6)
    out["scene.read.s"] = float(np.sum(durations("scene.read_scene"))) * per
    out["scene.read.bytes"] = tracer.bytes.get("scene.read_scene", 0) * per
    out["scene.write.s"] = float(np.sum(durations("scene.scene_to_json", "scene.write_scene"))) * per
    out["scene.write.bytes"] = tracer.bytes.get("scene.scene_to_json", 0) * per
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(np.sum(self_time[layers == layer])) * per
    out["trace.overhead_ratio"] = overhead_ratio
    return {k: out[k] for k in PER_LAYER_UNITS}
