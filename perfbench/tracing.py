"""Span tracing of rigidkit's layers, patched in from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper in every
module namespace (and dispatch table) that holds it, and wraps the
`__init__` of the two field classes, so calls made at run time go through
the wrapper whichever module makes them.  Nothing in rigidkit changes, and
the untraced benchmark run never installs the wrappers.

Spans (name, start, end, parent, op) stay in memory until the run ends.  A
span's self time is its duration minus the part of it covered by its child
spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict


def _rows(x) -> int:
    """Number of matrices in a (..., r, c) stack."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return math.prod(shape[:-2])


_FNS = ("self_s", "calls")
_KERNEL = ("self_s", "calls", "rows")
_STACKED_KERNELS = ("isometry_defect", "rotation_align", "spd_sqrt", "spd_inv_sqrt")
_SINGLE_KERNELS = (
    "nearest_isometry",
    "nearest_isometry_into_plane",
    "so_set_distance",
    "subspace_distance",
    "oriented_complement",
    "projection_error_bound_check",
)
_PROPERTIES = (
    "norm_equivalence",
    "so_set_distance_bound",
    "projection_error_bound",
    "volume_comparison",
    "in_plane_equality",
    "normal_derivative_bound",
    "orientation_stability",
)

# Per-layer metrics of the traced run: layer -> stats.  A layer is
# "<module>.<function>"; every stat is reported per traced op.
LAYER_STATS = {
    "cli.main": ("self_s",),
    "reports.write": ("self_s", "bytes"),
    "scenarios.build_scenario": ("self_s", "calls", "cells"),
    "fields.ImmersionField": ("self_s", "calls", "cells"),
    "fields.MetricField": _FNS,
    "fields.oscillation_and_diameter": ("self_s", "calls", "nodes"),
    "fields.energies": _FNS,
    "rigidity.local_rigidity": _FNS,
    "rigidity.metric_rigidity": _FNS,
    "rigidity.choose_base_point": _FNS,
    "rigidity.euclidean_best_rotation": _FNS,
    "rigidity.translation_modulus": _FNS,
    "rigidity.tangent_plane_field": ("self_s",),
    "rigidity.multiscale_fit": ("self_s", "subcubes"),
    **{f"metric_algebra.{name}": _KERNEL for name in _STACKED_KERNELS + _SINGLE_KERNELS},
    **{f"lemma_suite.{prop}": ("self_s", "samples") for prop in _PROPERTIES},
}

# Work counts beyond `calls`: layer -> f(args, kwargs, result) -> {stat: n}.
COUNTERS = {
    "reports.write": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "scenarios.build_scenario": lambda a, k, r: {"cells": r.u.grid.cell_count},
    "fields.ImmersionField": lambda a, k, r: {"cells": a[1].cell_count},
    "fields.oscillation_and_diameter": lambda a, k, r: {
        "nodes": math.prod(hi - lo + 1 for lo, hi in a[1])
    },
    "rigidity.multiscale_fit": lambda a, k, r: {"subcubes": len(r.fits)},
    **{f"metric_algebra.{name}": lambda a, k, r: {"rows": _rows(a[0])} for name in _STACKED_KERNELS},
    **{f"metric_algebra.{name}": lambda a, k, r: {"rows": 1} for name in _SINGLE_KERNELS},
    **{f"lemma_suite.{prop}": lambda a, k, r: {"samples": r.samples} for prop in _PROPERTIES},
}

# Layers whose span wraps something other than the attribute of that name.
_REPORT_WRITERS = ("write_json_report", "write_csv", "write_gnuplot_data")
_FIELD_CLASSES = ("fields.ImmersionField", "fields.MetricField")


def stat_unit(stat: str) -> str:
    return "s/op" if stat == "self_s" else f"{stat}/op"


# ImmersionField cells built per grid cell the op's config names: the
# multiscale rebuild-waste ratio.
CELLS_PER_GRID_CELL = "fields.ImmersionField.cells_per_grid_cell"


def metric_units() -> dict:
    """Name -> unit of every per-layer metric `layer_metrics` returns."""
    units = {f"{layer}.{stat}": stat_unit(stat) for layer, stats in LAYER_STATS.items() for stat in stats}
    units[CELLS_PER_GRID_CELL] = "ratio"
    return units


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op index)
        self.counts: dict = defaultdict(float)  # (layer, stat) -> total
        self.op = -1
        self._current = -1
        self._undo: list = []

    def _wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            index = len(self.spans)
            self.spans.append(None)
            self._current = index
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current = parent
                self.spans[index] = (layer, start, end, parent, self.op)
            self.counts[(layer, "calls")] += 1
            if counter is not None:
                for stat, value in counter(args, kwargs, result).items():
                    self.counts[(layer, stat)] += value
            return result

        return traced

    def _rebind(self, namespaces, original, wrapper) -> None:
        """Point every name and dispatch-table entry holding `original` at `wrapper`."""
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, key, original))
                    setattr(ns, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._undo.append((value, dkey, original))
                            value[dkey] = wrapper

    def install(self) -> None:
        import rigidkit
        from rigidkit import cli, fields, lemma_suite, metric_algebra, reports, rigidity, scenarios

        modules = {
            "cli": cli,
            "fields": fields,
            "lemma_suite": lemma_suite,
            "metric_algebra": metric_algebra,
            "reports": reports,
            "rigidity": rigidity,
            "scenarios": scenarios,
        }
        namespaces = [rigidkit, *modules.values()]
        for layer in LAYER_STATS:
            module_name, attr = layer.split(".", 1)
            module = modules[module_name]
            if layer in _FIELD_CLASSES:
                cls = getattr(module, attr)
                self._undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(layer, cls.__init__)
                continue
            if layer == "reports.write":
                attrs = _REPORT_WRITERS
            elif module is lemma_suite:
                attrs = (f"run_{attr}",)
            else:
                attrs = (attr,)
            for name in attrs:
                original = getattr(module, name)
                self._rebind(namespaces, original, self._wrap(layer, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Dump the spans as JSON: {"fields": [...], "spans": [[...], ...]}."""
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, handle)


def self_times(spans) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach, start), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_self_seconds(spans, op_factors=None) -> dict:
    """Total self time per layer name, each span scaled by its op's factor."""
    totals = defaultdict(float)
    for (name, start, end, parent, op), own in zip(spans, self_times(spans)):
        totals[name] += own if op_factors is None else own * op_factors[op]
    return dict(totals)


def layer_metrics(tracer: Tracer, ops: int, grid_cells: int, op_factors) -> dict:
    """Per-layer metrics, per traced op, from a finished traced phase.

    `grid_cells` is the total grid cells named by the traced ops' configs;
    ImmersionField cells built over it is the rebuild-waste ratio.  Self
    times are scaled to reference speed by `op_factors[op index]`.
    """
    own = layer_self_seconds(tracer.spans, op_factors)
    metrics = {}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            total = own.get(layer, 0.0) if stat == "self_s" else tracer.counts.get((layer, stat), 0.0)
            metrics[f"{layer}.{stat}"] = {"value": total / ops, "unit": stat_unit(stat)}
    cells = tracer.counts.get(("fields.ImmersionField", "cells"), 0.0)
    metrics[CELLS_PER_GRID_CELL] = {"value": cells / grid_cells, "unit": "ratio"}
    return metrics
