"""Spans around calls into the layers of totalfree, recorded from outside.

The tracer replaces each listed public function, by object identity, at
every ``totalfree.*`` module binding (``certificates`` and ``cli`` import
names directly), and each listed method on its class.  A span is
(name id, start, end, parent span index); spans stay in memory and are
written out after the run.  A listed name that the package no longer has
is skipped, and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> (module, public functions, {class: public methods})
LAYERS = {
    "linalg": ("totalfree.linalg", ("dot",),
               {"Matrix": ("__init__", "rank", "rref", "kernel_basis", "det",
                           "inverse", "__matmul__", "apply", "transpose")}),
    "poly": ("totalfree.poly",
             ("divisible_by_power", "poly_det", "poly_to_str", "parse_poly"),
             {"HomPoly": ("from_terms", "__add__", "scale", "__mul__", "__pow__",
                          "substitute", "evaluate")}),
    "arrangement": ("totalfree.arrangement",
                    ("normalize_hyperplane", "arrangement", "check_multiplicity",
                     "derivation", "is_member", "essentialize", "deletion",
                     "restriction", "product", "rank2_flats", "localization",
                     "subarrangement", "parse_arrangement", "format_arrangement"),
                    {"Arrangement": ("rank", "normal_matrix"),
                     "Derivation": ("apply_to",)}),
    "matroid": ("totalfree.matroid",
                ("connected_components", "decompose", "is_irreducible",
                 "reassemble_normals"), {}),
    "rank2": ("totalfree.rank2",
              ("rank2_exponents", "rank2_basis", "saito_verify",
               "exponents_totally_free"), {}),
    "certificates": ("totalfree.certificates",
                     ("lmp2_breakdown", "lmp2", "gmp2_max_exhaustive",
                      "is_generic_circuit", "find_generic_circuit",
                      "circuit_is_nonfree_check", "nonfree_by_lmp_gmp",
                      "nonfree_multiplicity_family", "decide_totally_free",
                      "verify_certificate"), {}),
    "cli": ("totalfree.cli", ("main",), {}),
}

# Counted spans: metric -> span names (layer-qualified).
CALL_COUNTS = {
    "linalg.rank.calls": ("linalg.Matrix.rank",),
    "linalg.elim.calls": ("linalg.Matrix.rref", "linalg.Matrix.kernel_basis",
                          "linalg.Matrix.det", "linalg.Matrix.inverse"),
    "arrangement.rank2_flats.calls": ("arrangement.rank2_flats",),
    "arrangement.localization.calls": ("arrangement.localization",),
    "matroid.components.calls": ("matroid.connected_components",),
    "certificates.gmp2_exhaustive.calls": ("certificates.gmp2_max_exhaustive",),
    "rank2.exponents.calls": ("rank2.rank2_exponents",),
    "rank2.basis.calls": ("rank2.rank2_basis",),
    "rank2.saito.calls": ("rank2.saito_verify",),
}
# Self time of selected spans: metric -> span names.
SELF_TIMES = {
    "arrangement.rank2_flats.self_s": ("arrangement.rank2_flats",),
    "certificates.circuit.self_s": ("certificates.find_generic_circuit",
                                    "certificates.is_generic_circuit"),
    "certificates.k0.self_s": ("certificates.nonfree_multiplicity_family",),
    "certificates.gmp2_exhaustive.self_s": ("certificates.gmp2_max_exhaustive",),
}
# Matrix methods whose size feeds linalg.max_cells.
_SIZED = frozenset(("rank", "rref", "kernel_basis", "det", "inverse"))


class Tracer:
    """In-memory span recorder with counters observed at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.installed: set[str] = set()
        self.max_cells = 0
        self.none_results: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, sized: bool = False,
             count_none: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.installed.add(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if sized:
                cells = args[0].rows * args[0].cols
                if cells > self.max_cells:
                    self.max_cells = cells
            if count_none and result is None:
                self.none_results[name] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed name of the already imported totalfree modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "totalfree" or key.startswith("totalfree."))]
        for layer, (module_name, functions, classes) in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for fname in functions:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapped = self.wrap(original, f"{layer}.{fname}", layer,
                                    count_none=fname == "gmp2_max_exhaustive")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
            for cname, methods in classes.items():
                cls = getattr(module, cname, None)
                if cls is None:
                    continue
                for meth in methods:
                    original = cls.__dict__.get(meth)
                    if original is None:
                        continue
                    name = f"{layer}.{cname}.{meth}"
                    sized = cname == "Matrix" and meth in _SIZED
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self.wrap(original.__func__, name, layer))
                    else:
                        wrapped = self.wrap(original, name, layer, sized=sized)
                    setattr(cls, meth, wrapped)

    def finished_spans(self) -> list[tuple[int, float, float, int]]:
        if self._stack:
            raise RuntimeError("spans still open")
        return self.spans

    def write(self, path: str) -> None:
        """One line per span: index, parent, name, start and duration in seconds."""
        spans = self.finished_spans()
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tduration_s\n")
            for i, (name_id, start, end, parent) in enumerate(spans):
                fh.write(f"{i}\t{parent}\t{self.names[name_id]}\t"
                         f"{start - origin:.9f}\t{end - start:.9f}\n")

    def summary(self) -> dict:
        """Per-name call counts and self times, per-layer self times."""
        spans = self.finished_spans()
        own = self_times([(start, end, parent) for _, start, end, parent in spans])
        calls: dict[str, int] = defaultdict(int)
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        for (name_id, _, _, _), t in zip(spans, own):
            name = self.names[name_id]
            calls[name] += 1
            by_name[name] += t
            by_layer[self.layer_of[name_id]] += t
        return {"calls": dict(calls), "self_by_name": dict(by_name),
                "self_by_layer": dict(by_layer)}

    def layer_metrics(self, s: dict) -> dict[str, float]:
        """Per-layer metrics from ``summary()``; those it cannot give are left out."""
        calls, by_name, by_layer = s["calls"], s["self_by_name"], s["self_by_layer"]
        out: dict[str, float] = {}
        for metric, names in CALL_COUNTS.items():
            if any(n in self.installed for n in names):
                out[metric] = sum(calls.get(n, 0) for n in names)
        for metric, names in SELF_TIMES.items():
            if any(n in self.installed for n in names):
                out[metric] = sum(by_name.get(n, 0.0) for n in names)
        layers_present = set(self.layer_of)
        for layer in LAYERS:
            if layer in layers_present:
                out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
        if "poly" in layers_present:
            out["poly.calls"] = sum(c for n, c in calls.items() if n.startswith("poly."))
        if "linalg.Matrix.rank" in self.installed:
            out["linalg.max_cells"] = self.max_cells
        name = "certificates.gmp2_max_exhaustive"
        if name in self.installed:
            attempts = calls.get(name, 0)
            out["certificates.gmp2_exhaustive.none_ratio"] = (
                self.none_results[name] / attempts if attempts else 0.0)
        return out


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    ``spans`` holds (start, end, parent index or -1) per span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(children.get(i, ()), start, end)
            for i, (start, end, _) in enumerate(spans)]
