"""Outside-in layer spans for the benchmark's traced runs.

Nothing here touches the program's source: :func:`instrument` swaps the
public callables listed in :data:`TARGETS` for timing wrappers -- on the
class for methods, and on every ``repro`` module that bound a function by
name -- and puts the originals back on exit.  Each call becomes a
:class:`Span` (name, start, end, parent, operation id, counts) kept in
memory by a :class:`Tracer`; :func:`layer_metrics` folds spans into the
per-layer metrics that ``BENCHMARK.json`` lists.

A target may be *absorbed*: when the innermost open span is one of its
``absorb`` names, no new span opens and the call's counts go to the open
span.  That keeps nested engine calls and the forward passes inside
evaluation from being counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """The span name's layer prefix (``router.compile`` -> ``router``)."""
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder.

    ``op`` tags every span with the current operation.  While ``enabled``
    is false (untraced work such as result checks) wrapped calls pass
    straight through.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0
        self.enabled = False

    def call(self, name: str, absorb: frozenset, count, fn, args, kwargs):
        """Call ``fn`` inside a span named ``name`` and record its counts."""
        if not self.enabled:
            return fn(*args, **kwargs)
        top = self.stack[-1] if self.stack else None
        if top is not None and top.name in absorb:
            result = fn(*args, **kwargs)
            if count is not None:
                _add(top.counts, count(args, kwargs, result))
            return result
        span = Span(len(self.spans), name, top.id if top else None, self.op)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        if count is not None:
            _add(span.counts, count(args, kwargs, result))
        return result

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "op": s.op,
                    "start": s.start,
                    "end": s.end,
                    "counts": s.counts,
                }
                handle.write(json.dumps(record) + "\n")


def _add(into: dict, counts: dict) -> None:
    """Add ``counts`` into ``into`` key by key."""
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


# --------------------------------------------------------------------------- #
# Counters: (args, kwargs, result) -> {count name: value}
# --------------------------------------------------------------------------- #
def _arg(args, kwargs, index: int, name: str):
    """Return a call's argument by position or keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _grid_counts(args, kwargs, result):
    """Count the cells and simulated queries of one ``simulate_grid`` call."""
    cells = len(result)
    return {"cells": cells, "sim_queries": cells * _arg(args, kwargs, 2, "config").num_queries}


def _latency_counts(args, kwargs, result):
    """Count the cells (rows) and simulated queries of one latency kernel call."""
    arrivals = _arg(args, kwargs, 1, "arrivals")
    rows = arrivals.size // arrivals.shape[-1] if arrivals.size else 0
    return {"cells": int(rows), "sim_queries": int(arrivals.size)}


def _service_counts(args, kwargs, result):
    """Count the per-query service samples of one draw."""
    return {"samples": int(result.size)}


def _decide_counts(args, kwargs, result):
    """Count the routing decisions of one decision pass."""
    return {"decisions": len(result[0])}


def _route_counts(args, kwargs, result):
    """Count the dwell cells one route evaluation asks for."""
    return {"dwell_requested": len(result.path_steps)}


def _one_dwell(args, kwargs, result):
    """Count one dwell-cell read."""
    return {"dwell_requested": 1}


def _percentile_counts(args, kwargs, result):
    """Count the pooled samples one weighted percentile sorts."""
    return {"pooled_samples": len(_arg(args, kwargs, 0, "values"))}


def _schedule_counts(args, kwargs, result):
    """Count one frontend schedule's queries, windows and admission outcomes."""
    return {
        "queries": result.offered_queries,
        "windows": result.num_windows,
        "admitted": result.served_queries,
        "deferred": int(result.window_deferred.sum()),
        "shed": result.shed_queries,
        "batch_mass": float((result.window_admitted * result.window_batch).sum()),
    }


def _one_step(args, kwargs, result):
    """Count one call."""
    return {"steps": 1}


def _replay_name(args) -> str:
    """Name a route evaluation on a fleet table as cluster work."""
    if type(args[0]).__name__ == "ClusterTable":
        return "cluster.replay"
    return "router.evaluate_route"


# --------------------------------------------------------------------------- #
# What is traced
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Target:
    """A public callable to wrap (``module:Qualified.name``) and its span."""

    path: str
    span: str
    count: Callable | None = None
    absorb: tuple = ()
    #: Picks the span name per call from the positional arguments.
    name_for: Callable | None = None


DATA = "repro.data.criteo:CriteoSynthetic."
CORE = "repro.core.scheduler:RecPipeScheduler."
ENGINE = "repro.serving.engine:"
ROUTER = "repro.serving.router:"
FRONTEND = "repro.serving.frontend:"
TRAINING = "repro.models.training:"
ARTIFACTS = "repro.experiments.artifacts:"
NESTED_ENGINE = ("engine.simulate",)
NESTED_DATA = ("data.build",)

TARGETS = (
    Target(DATA + "__init__", "data.build"),
    Target(DATA + "build_dataset", "data.build", absorb=NESTED_DATA),
    Target(DATA + "sample_ranking_queries", "data.build", absorb=NESTED_DATA),
    Target("repro.quality.evaluator:QualityEvaluator.evaluate", "quality.evaluate"),
    Target("repro.core.sweep:run_sweep", "core.sweep"),
    Target("repro.core.sweep:SweepOutcome.rows", "core.rows"),
    Target("repro.core.sweep:SweepOutcome.frontier_rows", "core.rows"),
    Target("repro.core.sweep:SweepOutcome.platform_rows", "core.rows"),
    Target("repro.core.sweep:SweepOutcome.summary_lines", "core.rows"),
    Target(CORE + "plan_for", "core.plan", _one_step),
    Target(CORE + "evaluate_grid", "core.evaluate_grid"),
    Target(CORE + "quality_latency_frontier", "core.frontier"),
    Target(CORE + "best_quality_under_sla", "core.frontier"),
    Target(CORE + "best_at_iso_quality", "core.frontier"),
    Target(ENGINE + "simulate_grid", "engine.simulate", _grid_counts, NESTED_ENGINE),
    Target(ENGINE + "analytic_latencies", "engine.simulate", _latency_counts, NESTED_ENGINE),
    Target(ENGINE + "event_latencies", "engine.simulate", _latency_counts, NESTED_ENGINE),
    Target("repro.serving.service_times:sampled_service", "service.sample", _service_counts),
    Target(ROUTER + "PathTable.compile", "router.compile"),
    Target(ROUTER + "PathTable.evaluate_route", "", _route_counts, name_for=_replay_name),
    Target(ROUTER + "PathTable.dwell_latencies", "router.dwell", _one_dwell),
    Target(ROUTER + "PathTable.prefill_dwell", "router.dwell"),
    Target(ROUTER + "route_static", "router.policy"),
    Target(ROUTER + "route_oracle", "router.policy"),
    Target(ROUTER + "MultiPathRouter.route", "router.policy"),
    Target(ROUTER + "MultiPathRouter.estimate_over", "router.estimate"),
    Target(ROUTER + "MultiPathRouter.decide_from_estimates", "router.decide", _decide_counts),
    Target("repro.serving.metrics:weighted_percentile", "metrics.percentile", _percentile_counts),
    Target(FRONTEND + "QueryStream.from_trace", "frontend.stream"),
    Target(FRONTEND + "StreamingFrontend.schedule", "frontend.schedule", _schedule_counts),
    Target(FRONTEND + "StreamingFrontend.serve", "frontend.serve"),
    Target("repro.cluster.sharding:tables_from_cost", "cluster.build"),
    Target("repro.cluster.sharding:shard_table_wise", "cluster.build"),
    Target("repro.cluster.fleet:build_cluster_table", "cluster.build"),
    Target("repro.models.zoo:build_model", "models.build"),
    Target(TRAINING + "Trainer.fit", "models.fit"),
    Target(TRAINING + "Trainer.evaluate_loss", "models.eval"),
    Target(TRAINING + "evaluate_error", "models.eval"),
    Target("repro.models.dlrm:DLRM.forward", "nn.forward", absorb=("models.eval",)),
    Target("repro.models.dlrm:DLRM.backward", "nn.backward"),
    Target("repro.models.base:RecommendationModel.zero_grad", "nn.zero_grad"),
    Target("repro.nn.optim:Adam.step", "nn.optim", _one_step),
    Target(ARTIFACTS + "write_experiment_artifacts", "artifacts.write"),
    Target(ARTIFACTS + "write_sweep_artifacts", "artifacts.write"),
    Target(ARTIFACTS + "write_manifest", "artifacts.write"),
)


def _resolve(path: str):
    """Return the (owner, attribute name) a ``module:Qualified.name`` path names."""
    module_name, qualname = path.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrapper(tracer: Tracer, target: Target, original):
    """Wrap ``original`` so that each call becomes a span of ``target``."""
    absorb = frozenset(target.absorb)
    fn = original.__func__ if isinstance(original, classmethod) else original

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = target.name_for(args) if target.name_for else target.span
        return tracer.call(name, absorb, target.count, fn, args, kwargs)

    return classmethod(traced) if isinstance(original, classmethod) else traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every :data:`TARGETS` callable for the duration of the block."""
    patches: list[tuple[object, str, object]] = []
    try:
        for target in TARGETS:
            owner, attr = _resolve(target.path)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, _wrapper(tracer, target, original))
                continue
            # A module-level function: rebind it wherever a repro module
            # imported it by name, so callers in other modules see the span.
            original = getattr(owner, attr)
            wrapped = _wrapper(tracer, target, original)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapped)
        # Cache tallies live on the sampler: credit each draw's deltas to
        # the open span.
        sampler, attr = _resolve("repro.serving.service_times:ServiceTimeSampler.sample_factors")
        draw = sampler.__dict__[attr]

        @functools.wraps(draw)
        def sample_factors(self, *args, **kwargs):
            hits, accesses = self.hits, self.accesses
            result = draw(self, *args, **kwargs)
            if tracer.enabled and tracer.stack:
                deltas = {"hits": self.hits - hits, "accesses": self.accesses - accesses}
                _add(tracer.stack[-1].counts, deltas)
            return result

        patches.append((sampler, attr, draw))
        setattr(sampler, attr, sample_factors)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# Spans -> per-layer metrics
# --------------------------------------------------------------------------- #
#: Spans whose engine work is dwell-cell simulation on a single-node table.
DWELL_SPANS = ("router.evaluate_route", "router.dwell")


def _self_times(spans: list[Span]) -> list[float]:
    """Return each span's duration minus the durations of its children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return [own[s.id] for s in spans]


def _first_outside(by_id: dict[int, Span], span: Span, layer: str) -> str | None:
    """Return the name of the nearest ancestor outside ``layer``, if any."""
    while span.parent in by_id:
        span = by_id[span.parent]
        if span.layer != layer:
            return span.name
    return None


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Fold spans into ``{metric name: (value, unit)}``.

    ``<layer>.s`` is a layer's self time (its spans minus their children);
    ``*_self_s`` is the self time of one span kind; any other ``*_s`` is
    the inclusive time of that span kind.  A ratio whose base is zero (the
    layer never ran on this workload) reads 0.
    """
    total: dict[str, float] = {}
    own_by_name: dict[str, float] = {}
    own_by_layer: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict] = {}
    for s, own in zip(spans, _self_times(spans)):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own_by_name[s.name] = own_by_name.get(s.name, 0.0) + own
        own_by_layer[s.layer] = own_by_layer.get(s.layer, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        _add(counts.setdefault(s.name, {}), s.counts)

    def count(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    by_id = {s.id: s for s in spans}
    simulated = sum(
        s.counts.get("cells", 0)
        for s in spans
        if s.name == "engine.simulate" and _first_outside(by_id, s, "engine") in DWELL_SPANS
    )
    requested = sum(count(name, "dwell_requested") for name in DWELL_SPANS)
    engine_s = own_by_layer.get("engine", 0.0)
    sim_queries = count("engine.simulate", "sim_queries")
    decisions = count("router.decide", "decisions")
    admitted = count("frontend.schedule", "admitted")
    batch_mass = count("frontend.schedule", "batch_mass")
    hits = count("service.sample", "hits")
    return {
        "data.s": (own_by_layer.get("data", 0.0), "s"),
        "quality.calls": (calls.get("quality.evaluate", 0), "count"),
        "quality.s": (own_by_layer.get("quality", 0.0), "s"),
        "core.plans": (count("core.plan", "steps"), "count"),
        "core.plan_s": (total.get("core.plan", 0.0), "s"),
        "core.evaluate_grid_self_s": (own_by_name.get("core.evaluate_grid", 0.0), "s"),
        "core.frontier_s": (total.get("core.frontier", 0.0), "s"),
        "engine.calls": (calls.get("engine.simulate", 0), "count"),
        "engine.cells": (count("engine.simulate", "cells"), "count"),
        "engine.sim_queries": (sim_queries, "count"),
        "engine.s": (engine_s, "s"),
        "engine.sim_queries_per_s": (ratio(sim_queries, engine_s), "1/s"),
        "service.samples": (count("service.sample", "samples"), "count"),
        "service.s": (own_by_layer.get("service", 0.0), "s"),
        "service.hit_rate": (ratio(hits, count("service.sample", "accesses")), "ratio"),
        "router.compile_s": (total.get("router.compile", 0.0), "s"),
        "router.decisions": (decisions, "count"),
        "router.us_per_decision": (ratio(total.get("router.decide", 0.0), decisions) * 1e6, "us"),
        "router.evaluate_route_self_s": (own_by_name.get("router.evaluate_route", 0.0), "s"),
        "router.dwell_cells_requested": (requested, "count"),
        "router.dwell_cells_simulated": (simulated, "count"),
        "router.dwell_reuse_ratio": (ratio(requested - simulated, requested), "ratio"),
        "metrics.percentile_calls": (calls.get("metrics.percentile", 0), "count"),
        "metrics.pooled_samples": (count("metrics.percentile", "pooled_samples"), "count"),
        "metrics.percentile_s": (total.get("metrics.percentile", 0.0), "s"),
        "frontend.stream_s": (total.get("frontend.stream", 0.0), "s"),
        "frontend.schedule_s": (total.get("frontend.schedule", 0.0), "s"),
        "frontend.serve_self_s": (own_by_name.get("frontend.serve", 0.0), "s"),
        "frontend.queries": (count("frontend.schedule", "queries"), "count"),
        "frontend.windows": (count("frontend.schedule", "windows"), "count"),
        "frontend.admitted": (admitted, "count"),
        "frontend.deferred": (count("frontend.schedule", "deferred"), "count"),
        "frontend.shed": (count("frontend.schedule", "shed"), "count"),
        "frontend.mean_batch": (ratio(batch_mass, admitted), "queries"),
        "cluster.build_s": (total.get("cluster.build", 0.0), "s"),
        "cluster.replay_s": (total.get("cluster.replay", 0.0), "s"),
        "nn.steps": (count("nn.optim", "steps"), "count"),
        "nn.forward_s": (total.get("nn.forward", 0.0), "s"),
        "nn.backward_s": (total.get("nn.backward", 0.0), "s"),
        "nn.optim_s": (total.get("nn.optim", 0.0), "s"),
        "nn.zero_grad_s": (total.get("nn.zero_grad", 0.0), "s"),
        "models.eval_s": (total.get("models.eval", 0.0), "s"),
        "artifacts.write_s": (total.get("artifacts.write", 0.0), "s"),
    }


def coverage(spans: list[Span], op_windows: list[tuple[float, float]]) -> float:
    """Return the share of the timed operations' wall time spent in top-level spans."""
    measured = sum(end - start for start, end in op_windows)
    covered = sum(s.end - s.start for s in spans if s.parent is None)
    return covered / measured if measured else 0.0
