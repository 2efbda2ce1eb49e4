"""Outside-in layer instrumentation for the traced run.

The traced sample wraps the public functions each layer exposes in
``trace.span(...)``, patching each name where its caller looks it up: a
module global is patched in the calling module, a method on its class.
``repro.colouring.edge_colouring`` as a package attribute is the
re-exported function, so modules are taken from ``sys.modules``. Nothing
inside ``src/`` changes.

A layer's self time is its span's duration minus the spans of other layers
nested directly inside it; the engine's own spans (``run_schedule``,
``round``, ...) do not count as layers. Time in the root ``solve`` span
that no layer span covers is ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability import metrics, trace

ROOT_SPAN = "solve"

#: (span name, module, attribute) — the attribute may be ``Class.method``.
#: ``workloads`` is the benchmark's own module: the experiment calls that a
#: user makes are looked up there.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("grid.offset_table", "repro.grid.indexer", "GridIndexer.offset_table"),
    ("grid.power_adjacency", "repro.grid.indexer", "GridIndexer.power_adjacency"),
    ("symmetry.row_mis", "repro.symmetry.ruling_sets", "compute_mis_indexed"),
    ("symmetry.anchors", "repro.speedup.normal_form", "compute_anchors"),
    ("colouring.edge", "workloads", "edge_colouring"),
    ("colouring.jk", "repro.colouring.edge_colouring", "compute_jk_independent_set"),
    ("core.verify", "repro.colouring.edge_colouring", "verify_proper_edge_colouring"),
    ("synthesis.cnf_build", "workloads", "exhaustive_edge_colouring_infeasible"),
    ("synthesis.cnf_build", "workloads", "solve_x_orientation_globally"),
    ("synthesis.tile_graph", "repro.synthesis.synthesiser", "build_tile_graph"),
    ("synthesis.encode", "repro.synthesis.synthesiser", "encode_tile_labelling_as_sat"),
    ("synthesis.sat", "repro.synthesis.synthesiser", "solve_cnf"),
    ("synthesis.sat", "repro.colouring.impossibility", "solve_cnf"),
    ("synthesis.sat", "repro.orientation.algorithms", "solve_cnf"),
    ("speedup.anchor_rule", "repro.speedup.normal_form", "apply_anchor_rule"),
    ("local_model.apply_rule", "repro.local_model.engine", "IndexedEngine.apply_rule"),
    ("local_model.apply_rule", "repro.local_model.engine", "ArrayEngine.apply_rule"),
    ("local_model.apply_rule", "repro.local_model.engine", "ParallelEngine.apply_rule"),
    ("statics.gate", "repro.local_model.engine", "checked_parallel_safe"),
    ("runtime.pool_spawn", "repro.runtime.pool", "WorkerPool.spawn"),
)

#: Per-layer self times reported, by metric name and span name.
TIMES: Tuple[Tuple[str, str], ...] = (
    ("grid.offset_table_s", "grid.offset_table"),
    ("grid.power_adjacency_s", "grid.power_adjacency"),
    ("symmetry.row_mis_s", "symmetry.row_mis"),
    ("symmetry.anchors_s", "symmetry.anchors"),
    ("colouring.jk_self_s", "colouring.jk"),
    ("colouring.edge_self_s", "colouring.edge"),
    ("synthesis.tile_graph_s", "synthesis.tile_graph"),
    ("synthesis.encode_s", "synthesis.encode"),
    ("synthesis.cnf_build_s", "synthesis.cnf_build"),
    ("synthesis.sat_s", "synthesis.sat"),
    ("speedup.anchor_rule_s", "speedup.anchor_rule"),
    ("core.verify_s", "core.verify"),
    ("local_model.apply_rule_s", "local_model.apply_rule"),
    ("statics.gate_s", "statics.gate"),
    ("runtime.pool_spawn_s", "runtime.pool_spawn"),
)

ENGINE_TIERS = ("list", "table", "batch", "sharded", "shm")

#: Exact counts reported; every one must repeat across samples of a seed.
COUNTS: Tuple[str, ...] = (
    "grid.offset_table_calls",
    "symmetry.row_mis_calls",
    "colouring.local_rounds",
    "synthesis.tiles",
    "synthesis.clauses",
    "synthesis.sat_calls",
    "synthesis.sat_conflicts",
    "synthesis.sat_decisions",
    "synthesis.sat_restarts",
    "speedup.local_rounds",
    "runtime.pool_rounds",
) + tuple(f"local_model.rounds.{tier}" for tier in ENGINE_TIERS)


def _tally(counts: Counter, span_name: str, result: Any) -> None:
    """Fold the work a layer call reports into the exact counts."""
    if span_name == "grid.offset_table":
        counts["grid.offset_table_calls"] += 1
    elif span_name == "symmetry.row_mis":
        counts["symmetry.row_mis_calls"] += 1
    elif span_name == "synthesis.tile_graph":
        counts["synthesis.tiles"] += result.tile_count
    elif span_name == "synthesis.encode":
        counts["synthesis.clauses"] += len(result.cnf.clauses)
    elif span_name == "synthesis.sat":
        counts["synthesis.sat_calls"] += 1
        counts["synthesis.sat_conflicts"] += result.conflicts
        counts["synthesis.sat_decisions"] += result.decisions
        counts["synthesis.sat_restarts"] += result.restarts


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str]:
    owner: Any = sys.modules.get(module_name) or importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Instrumentation:
    """Installs the layer spans for one traced sample and removes them."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, span_name: str, function: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(function)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            with trace.span(span_name):
                result = function(*args, **kwargs)
            _tally(counts, span_name, result)
            return result

        return spanned

    def install(self) -> None:
        for span_name, module_name, attribute in PATCHES:
            owner, name = _resolve(module_name, attribute)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            if isinstance(original, classmethod):
                replacement: Any = classmethod(self._wrap(span_name, original.__func__))
            else:
                replacement = self._wrap(span_name, original)
            setattr(owner, name, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _self_times(tracer: trace.Tracer) -> Dict[str, float]:
    """Self time per layer span name, plus the root's under ROOT_SPAN."""
    layers = {name for name, _, _ in PATCHES} | {ROOT_SPAN}
    totals: Dict[str, float] = Counter()

    def visit(span: trace.Span, owner: Optional[trace.Span]) -> None:
        if span.name in layers:
            if owner is not None:
                totals[owner.name] -= span.duration
            totals[span.name] += span.duration
            owner = span
        for child in span.children:
            visit(child, owner)

    for root in tracer.roots:
        visit(root, None)
    return dict(totals)


def layer_metrics(
    tracer: trace.Tracer, counts: Counter, rounds: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer metrics of one traced sample: raw self times and exact
    counts. ``rounds`` holds the LOCAL round counts the workload's result
    reports."""
    selves = _self_times(tracer)
    result: Dict[str, float] = {
        metric: max(selves.get(span, 0.0), 0.0) for metric, span in TIMES
    }
    result["unattributed_s"] = max(selves.get(ROOT_SPAN, 0.0), 0.0)
    registry = metrics.registry()
    merged = Counter(counts)
    for tier in ENGINE_TIERS:
        merged[f"local_model.rounds.{tier}"] = registry.counter("engine_rounds_total", tier=tier)
    merged["runtime.pool_rounds"] = registry.counter("pool_rounds_total")
    merged.update(rounds)
    for name in COUNTS:
        result[name] = merged.get(name, 0)
    return result
