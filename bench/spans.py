"""Span tracing of modsocle from outside the package.

`install` wraps the public functions, methods and cached properties of the
layer modules in a freshly imported modsocle, and rebinds every module
namespace that imported them, so that intra-package calls are traced too.
Spans live in memory as lists `[name, start, end, parent, job, attrs]` and
are aggregated into per-layer and per-stage metrics at the end of a run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("fplin", "groups", "algebra", "verify", "constructors", "catalog", "cli")

# Element-level accessors run millions of times inside the layers' loops; a
# span would cost more than the call, so their time stays in the caller.
UNTRACED = frozenset({
    "groups.FiniteGroup.mul", "groups.FiniteGroup.inv", "groups.FiniteGroup.conj",
    "groups.FiniteGroup.commutator", "groups.FiniteGroup.power",
    "groups.FiniteGroup.element_order", "groups.FiniteGroup.elements",
    "groups.Subgroup.contains", "groups.Subgroup.is_p_group",
    "groups.Subgroup.is_pprime_group", "groups.Subgroup.index",
})

# Subgroup construction runs `_validate`; it is traced to count subgroups.
TRACED_PRIVATE = frozenset({"groups.Subgroup.__init__"})

STAGES = {
    "groups.make_group": ("groups.make_group",),
    "groups.conjugacy_classes": ("groups.FiniteGroup.conjugacy_classes",),
    "groups.characteristic": tuple(f"groups.{n}" for n in (
        "derived_subgroup", "center", "sylow_subgroup", "p_core", "pprime_core",
        "p_residual", "hall_complement", "frattini_subgroup", "two_element_class_subgroup")),
    "groups.all_subgroups": ("groups.all_subgroups",),
    "groups.quotient": ("groups.quotient",),
    "algebra.class_structure_constants": ("algebra.GroupAlgebra.class_structure_constants",),
    "algebra.jacobson_center": ("algebra.GroupAlgebra.jacobson_center",),
    "algebra.socle_center": ("algebra.GroupAlgebra.socle_center",),
    "algebra.route1_is_ideal": ("algebra.GroupAlgebra.is_ideal",),
    "algebra.route2_containment": ("algebra.GroupAlgebra.subgroup_sum_ideal",
                                   "fplin.FpSubspace.is_subspace_of"),
    "fplin.rref": ("fplin.rref",),
}

# Counters and their units; elim_ops is computed from shapes, not measured.
COUNTERS = {
    "fplin.rref.rows_in": "count", "fplin.rref.rank_out": "count",
    "fplin.rref.max_cells": "cells", "fplin.rref.elim_ops": "computed_ops",
    "groups.all_subgroups.subgroups_out": "count", "groups.subgroups_created": "count",
    "algebra.soc_is_ideal.calls": "count", "algebra.soc_is_ideal.distinct_ratio": "ratio",
}


def _rref_probe(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return {"rows": int(rows), "cols": int(cols), "rank": len(result[1])}


def _soc_probe(args, kwargs, result):
    alg = args[0]
    digest = hashlib.blake2b(np.ascontiguousarray(alg.group.table).tobytes(),
                             digest_size=16).hexdigest()
    return {"key": f"{digest}:{alg.p}"}


def _all_subgroups_probe(args, kwargs, result):
    return {"subgroups": len(result)}


PROBES = {
    "fplin.rref": _rref_probe,
    "algebra.GroupAlgebra.soc_is_ideal": _soc_probe,
    "groups.all_subgroups": _all_subgroups_probe,
}


class Tracer:
    """In-memory span recorder; `job` labels the spans opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = "setup"

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, job, attrs in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "job": job, "attrs": attrs}) + "\n")


def _wrap_class(tracer: Tracer, cls: type, prefix: str) -> None:
    for attr, value in list(vars(cls).items()):
        name = f"{prefix}.{cls.__name__}.{attr}"
        if (attr.startswith("_") and name not in TRACED_PRIVATE) or name in UNTRACED:
            continue
        if isinstance(value, functools.cached_property):
            prop = functools.cached_property(tracer.wrap(name, value.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(name, value))


def install(tracer: Tracer) -> None:
    """Wrap the layer modules of the imported modsocle for `tracer`."""
    wrapped: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = sys.modules[f"modsocle.{layer}"]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                _wrap_class(tracer, value, layer)
            elif inspect.isfunction(value) or hasattr(value, "cache_info"):
                wrapped[id(value)] = (value, tracer.wrap(f"{layer}.{attr}", value))
    for name, module in list(sys.modules.items()):
        if name != "modsocle" and not name.startswith("modsocle."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer and per-stage calls and self time, plus the kernel counters."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for span, t in zip(spans, own):
        calls[span[0]] = calls.get(span[0], 0) + 1
        seconds[span[0]] = seconds.get(span[0], 0.0) + t
    out: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(calls[n] for n in names)
        out[f"{layer}.self_s"] = sum(seconds[n] for n in names)
    for stage, names in STAGES.items():
        out[f"{stage}.calls"] = sum(calls.get(n, 0) for n in names)
        out[f"{stage}.self_s"] = sum(seconds.get(n, 0.0) for n in names)
    rref = [s[5] for s in spans if s[0] == "fplin.rref" and s[5] is not None]
    out["fplin.rref.rows_in"] = sum(a["rows"] for a in rref)
    out["fplin.rref.rank_out"] = sum(a["rank"] for a in rref)
    out["fplin.rref.max_cells"] = max((a["rows"] * a["cols"] for a in rref), default=0)
    out["fplin.rref.elim_ops"] = sum(a["rows"] * a["cols"] * a["rank"] for a in rref)
    out["groups.all_subgroups.subgroups_out"] = sum(
        s[5]["subgroups"] for s in spans if s[0] == "groups.all_subgroups" and s[5])
    out["groups.subgroups_created"] = calls.get("groups.Subgroup.__init__", 0)
    soc = [s[5]["key"] for s in spans
           if s[0] == "algebra.GroupAlgebra.soc_is_ideal" and s[5] is not None]
    out["algebra.soc_is_ideal.calls"] = len(soc)
    out["algebra.soc_is_ideal.distinct_ratio"] = len(set(soc)) / len(soc) if soc else 0.0
    return out
