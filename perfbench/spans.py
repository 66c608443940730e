"""Span recorder that measures moritalab's layers from outside the package.

`SpanRecorder.install` wraps every public function of the traced modules,
plus the validating `__post_init__` of Module, ModuleMap and DeltaModule and
`ClassOracle.contains`.  Each wrapper is bound in every moritalab namespace
that holds the original, so calls made inside the package are seen too.
A call records one span: name, start, end and the span open when it began.
Spans live in flat arrays and are written out once, by `save`; `metrics`
derives call counts, self times, counters and ratios from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# Layers in the order metrics are reported; each is a moritalab module.
LAYERS = ("linalg", "algebra", "tensor", "morita", "functors", "enumeration",
          "classes", "gorenstein", "workspace", "cli")

# Methods wrapped besides the public functions: (module, class, method, span).
METHODS = (
    ("algebra", "Module", "__post_init__", "algebra.module_check"),
    ("algebra", "ModuleMap", "__post_init__", "algebra.modulemap_check"),
    ("morita", "DeltaModule", "__post_init__", "morita.deltamodule_check"),
    ("classes", "ClassOracle", "contains", "classes.contains"),
)

# Element-wise and allocation helpers called over a million times a run; left
# unwrapped, their time counts to the function that called them.
UNWRAPPED = ("linalg.reduce_mod", "linalg.eye", "linalg.zeros",
             "linalg.inv_scalar", "linalg.vec")

_ISO_TESTS = ("morita.delta_is_isomorphic", "algebra.is_isomorphic")
_CLASSIFY = ("morita.is_projective_delta", "morita.is_injective_delta",
             "morita.is_flat_delta")


def _count_cells(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return m.shape[0] * m.shape[1]


def _count_candidates(args, kwargs, result):
    p = args[2] if len(args) > 2 else kwargs["p"]
    return p ** len(args[0] if args else kwargs["basis_vecs"])


def _count_found(args, kwargs, result):
    return result is not None


def _count_length(args, kwargs, result):
    return len(result)


# Per-span values recorded for some spans, from the arguments and the result
# of a call that returned normally.
COUNTERS = {
    "linalg.rref": _count_cells,
    "algebra.hom_space": _count_length,
    "algebra.find_invertible_combination": _count_candidates,
    "morita.delta_is_isomorphic": _count_found,
    "enumeration.enumerate_modules": _count_length,
    "enumeration.enumerate_delta_modules": _count_length,
}

# Spans whose value is 1 when the call returned an object already returned
# earlier in the run (a cache hit), else 0.
REPEATS = ("tensor.tensor_over_algebra", "tensor.hom_over_algebra")


class SpanRecorder:
    """Spans of one single-threaded run, held in memory until `save`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._open = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, value = (
            self.name_id, self.parent, self.start, self.end, self.value)
        open_spans = self._open
        counter = COUNTERS.get(name)
        seen: dict[int, object] | None = {} if name in REPEATS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            start.append(0.0)
            end.append(0.0)
            value.append(0.0)
            open_spans.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                value[idx] = counter(args, kwargs, result)
            elif seen is not None:
                value[idx] = id(result) in seen
                seen[id(result)] = result
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions in every loaded moritalab namespace."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"moritalab.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and f"{layer}.{attr}" not in UNWRAPPED):
                    replace[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[f"moritalab.{layer}"], cls_name)
            setattr(cls, method, self._wrap(span, getattr(cls, method)))
        packages = [mod for key, mod in list(sys.modules.items())
                    if key == "moritalab" or key.startswith("moritalab.")]
        for module in packages:
            for attr, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def size(self) -> int:
        return len(self.start)

    def arrays(self, count: int) -> dict[str, np.ndarray]:
        """The first `count` spans, as numpy views of the recorded arrays."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[:count],
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:count],
            "start": np.frombuffer(self.start, dtype=np.float64)[:count],
            "end": np.frombuffer(self.end, dtype=np.float64)[:count],
            "value": np.frombuffer(self.value, dtype=np.float64)[:count],
        }

    def save(self, path, count: int) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(count))


def metrics(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer metrics derived from recorded spans."""
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    value = spans["value"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    self_time = duration - children
    layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in names],
                             dtype=np.int64)
    span_layer = layer_of_name[name_id]

    def select(*wanted):
        ids = [names.index(n) for n in wanted if n in names]
        return np.isin(name_id, ids)

    def calls(*wanted):
        return int(select(*wanted).sum())

    def self_s(*wanted):
        return float(self_time[select(*wanted)].sum())

    def total(*wanted):
        return float(value[select(*wanted)].sum())

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def layer_self(layer):
        return float(self_time[span_layer == LAYERS.index(layer)].sum())

    functors = [n for n in names if n.startswith("functors.")]
    iso = select(*_ISO_TESTS)
    parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
    out = {
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.cells": total("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.kron.calls": calls("linalg.kron"),
        "linalg.kron.self_s": self_s("linalg.kron"),
        "linalg.kernel_basis.calls": calls("linalg.kernel_basis"),
        "linalg.solve.calls": calls("linalg.solve"),
        "linalg.quotient_data.calls": calls("linalg.quotient_data"),
        "linalg.self_s": layer_self("linalg"),
        "algebra.hom_space.calls": calls("algebra.hom_space"),
        "algebra.hom_space.basis_total": total("algebra.hom_space"),
        "algebra.hom_space.self_s": self_s("algebra.hom_space"),
        "algebra.modulemap_check.calls": calls("algebra.modulemap_check"),
        "algebra.modulemap_check.self_s": self_s("algebra.modulemap_check"),
        "algebra.module_check.calls": calls("algebra.module_check"),
        "algebra.find_invertible_combination.calls":
            calls("algebra.find_invertible_combination"),
        "algebra.find_invertible_combination.candidates":
            total("algebra.find_invertible_combination"),
        "algebra.find_invertible_combination.self_s":
            self_s("algebra.find_invertible_combination"),
        "algebra.self_s": layer_self("algebra"),
    }
    for op in ("tensor_over_algebra", "hom_over_algebra"):
        name = f"tensor.{op}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.hit_ratio"] = ratio(total(name), calls(name))
    out["tensor.self_s"] = layer_self("tensor")
    iso_calls = calls("morita.delta_is_isomorphic")
    out.update({
        "morita.delta_is_isomorphic.calls": iso_calls,
        "morita.delta_is_isomorphic.found_ratio":
            ratio(total("morita.delta_is_isomorphic"), iso_calls),
        "morita.delta_is_isomorphic.self_s": self_s("morita.delta_is_isomorphic"),
        "morita.delta_direct_sum.calls": calls("morita.delta_direct_sum"),
        "morita.delta_direct_sum.self_s": self_s("morita.delta_direct_sum"),
        "morita.delta_hom_space.calls": calls("morita.delta_hom_space"),
        "morita.deltamodule_check.calls": calls("morita.deltamodule_check"),
        "morita.deltamodule_check.self_s": self_s("morita.deltamodule_check"),
        "morita.classify.calls": calls(*_CLASSIFY),
        "morita.classify.self_s": self_s(*_CLASSIFY),
        "morita.self_s": layer_self("morita"),
        "functors.calls": calls(*functors),
        "functors.self_s": layer_self("functors"),
        "enumeration.classes": total("enumeration.enumerate_modules",
                                     "enumeration.enumerate_delta_modules"),
        "enumeration.iso_tests": int(
            (iso & (parent_layer == LAYERS.index("enumeration"))).sum()),
        "enumeration.self_s": layer_self("enumeration"),
        "classes.verify_duality_pair.calls": calls("classes.verify_duality_pair"),
        "classes.verify_duality_pair.self_s": self_s("classes.verify_duality_pair"),
        "classes.verify_perfection.self_s": self_s("classes.verify_perfection"),
        "classes.contains.calls": calls("classes.contains"),
        "classes.self_s": layer_self("classes"),
        "gorenstein.windows_built": calls("gorenstein.complete_resolution_window"),
        "gorenstein.complete_resolution_window.self_s":
            self_s("gorenstein.complete_resolution_window"),
        "gorenstein.window_checks": calls("gorenstein.is_gorenstein_projective_window"),
        "gorenstein.self_s": layer_self("gorenstein"),
        "workspace.parse_workspace.self_s": self_s("workspace.parse_workspace"),
        "cli.run.self_s": self_s("cli.run"),
    })
    out["trace.spans"] = len(duration)
    return out
