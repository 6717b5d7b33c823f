"""Run scenario cells and register them as experiment specs.

One cell = one static/oracle/online policy comparison over the cell's
trace, served from a routing table compiled for the cell's workload,
platform set, service model and cluster mix.  Table compilation dominates
the cost of a cell, and trace/estimator axes do not affect the table, so
compiled tables are memoized per table-shaping parameter tuple
(:func:`_compiled_table`): a ``trace x estimator`` grid compiles exactly
one table no matter how many cells it expands into.

:func:`scenario_specs` turns expanded cells into
:class:`~repro.experiments.registry.ExperimentSpec` records — tagged
``scenario`` and ``scenario:<name>`` plus the scenario's own tags — and
:func:`register_scenario` installs them in a registry, which is all
``recpipe list/run --scenario`` needs.  The packaged ``builtin.json``
scenario (:func:`builtin_scenario`) ships in the default registry.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Mapping

from repro.experiments.common import ExperimentResult, compile_table
from repro.experiments.router_online import compare_policies, result_row, violation_note
from repro.scenarios.config import (
    ScenarioCell,
    ScenarioConfig,
    parse_mix,
    scenario_from_mapping,
)
from repro.serving.estimators import estimator_from_knobs
from repro.serving.router import MultiPathRouter
from repro.serving.service_times import SERVICE_MODELS
from repro.serving.trace import make_trace

if TYPE_CHECKING:  # the registry imports this module; keep the edge type-only
    from repro.experiments.registry import ExperimentRegistry, ExperimentSpec

#: Table-shaping parameter names: two cells whose values agree on all of
#: these share one compiled table (trace/estimator axes are not in it).
TABLE_PARAMS = (
    "dataset",
    "platforms",
    "qps_grid",
    "sla_ms",
    "quality_target",
    "first_stage_items",
    "later_stage_items",
    "max_stages",
    "serve_k",
    "num_queries",
    "pool",
    "service_model",
    "nodes",
    "budget_gb",
    "num_tables",
    "embedding_scale",
)

#: Cell parameters :func:`~repro.experiments.common.compile_table` takes as
#: keywords of the same name.
_COMPILE_KNOBS = (
    "pool",
    "qps_grid",
    "sla_ms",
    "quality_target",
    "first_stage_items",
    "later_stage_items",
    "max_stages",
    "serve_k",
    "num_queries",
)


@lru_cache(maxsize=8)
def _compiled_table(key: tuple, seed: int):
    """Compile (and memoize) the routing table for one table-param tuple.

    Parameters
    ----------
    key : tuple
        The cell's :data:`TABLE_PARAMS` values, in that order.
    seed : int
        Compile seed (arrival noise of the table's dwell simulations).

    Returns
    -------
    PathTable or ClusterTable
        A single-node path table, or — when the ``nodes`` mix names more
        than one node — the composed fleet table over per-platform
        single-node tables (sharded embeddings, priced gathers).
    """
    params = dict(zip(TABLE_PARAMS, key))
    platforms = tuple(str(params["platforms"]).split("+"))
    if params["nodes"] == "1":
        return _compile_platforms(params, platforms, seed)
    return _compile_fleet(params, seed)


def _compile_platforms(params: Mapping, platforms: tuple, seed: int):
    """The cell's single-node :class:`~repro.serving.router.PathTable` on ``platforms``."""
    service = SERVICE_MODELS[params["service_model"]]
    knobs = {name: params[name] for name in _COMPILE_KNOBS}
    return compile_table(params["dataset"], platforms=platforms, service=service, seed=seed, **knobs)


def _compile_fleet(params: Mapping, seed: int):
    """Compose a :class:`~repro.cluster.fleet.ClusterTable` for a node mix.

    Per-platform single-node tables are compiled over the cell's QPS grid;
    the cluster grid scales it by the node count (an N-node fleet serves
    roughly N times a node's load range).  Embedding tables derive from
    RMlarge's reference cost, sharded with the table-wise packer.

    Parameters
    ----------
    params : Mapping
        The cell's resolved parameters.
    seed : int
        Compile seed.

    Returns
    -------
    ClusterTable
        The composed fleet table.
    """
    from repro.accel.embedding_cache import EmbeddingCacheConfig
    from repro.cluster.fleet import NodeSpec, build_cluster_table
    from repro.cluster.sharding import shard_table_wise, tables_from_cost
    from repro.cluster.topology import InterconnectLink
    from repro.models.zoo import RM_LARGE

    mix = parse_mix(params["nodes"])
    platform_tables = {
        platform: _compile_platforms(params, (platform,), seed)
        for platform in dict.fromkeys(mix)
    }
    budget_bytes = int(params["budget_gb"] * 2**30)
    nodes = tuple(
        NodeSpec(name=f"n{i}-{platform}", platform=platform, memory_budget_bytes=budget_bytes)
        for i, platform in enumerate(mix)
    )
    cost = RM_LARGE.reference_cost(params["num_tables"]).scaled(params["embedding_scale"])
    tables = tables_from_cost(cost, params["num_tables"], items_per_query=256.0)
    plan = shard_table_wise(tables, [budget_bytes] * len(nodes))
    cluster_grid = tuple(float(q) * len(nodes) for q in params["qps_grid"])
    return build_cluster_table(
        nodes, platform_tables, cluster_grid, plan, InterconnectLink(), EmbeddingCacheConfig()
    )


def run_cell(cell: ScenarioCell, seed: int | None = None) -> ExperimentResult:
    """Execute one scenario cell: static vs oracle vs online on its trace.

    Parameters
    ----------
    cell : ScenarioCell
        The expanded grid point.
    seed : int, optional
        Overrides the cell's ``seed`` parameter (trace noise + table
        compile; ``recpipe run --seed`` forwards it here).

    Returns
    -------
    ExperimentResult
        One row per (policy, estimator) evaluation plus the cell's axis
        assignment on every row, and the static-vs-online violation note.
    """
    params = cell.params
    seed = params["seed"] if seed is None else seed
    table = _compiled_table(tuple(params[name] for name in TABLE_PARAMS), seed)
    trace = make_trace(
        params["trace"],
        base_qps=params["base_qps"],
        peak_qps=params["peak_qps"],
        num_steps=params["steps"],
        step_seconds=params["step_seconds"],
        noise=params["noise"],
        seed=seed,
    )
    router = MultiPathRouter(table, estimator=estimator_from_knobs(params["estimator"]))
    routings = compare_policies(table, trace, router=router)
    result = ExperimentResult(name=cell.id)
    for policy, routing in routings.items():
        estimator = params["estimator"] if policy == "online" else "-"
        row = {"scenario": cell.scenario, **cell.axes}
        row.update(result_row(trace, routing, estimator=estimator))
        result.add(**row)
    result.note(f"cell {cell.id}: {cell.label or 'base'}")
    result.note(violation_note(trace, routings))
    return result


def scenario_specs(config: ScenarioConfig) -> list["ExperimentSpec"]:
    """Expand a scenario into registrable experiment specs.

    Parameters
    ----------
    config : ScenarioConfig
        The validated scenario.

    Returns
    -------
    list of ExperimentSpec
        One spec per cell, tagged ``scenario`` / ``scenario:<name>`` plus
        the scenario's tags; ``metadata`` carries the axis assignment so
        run manifests can resolve what each cell varied.
    """
    # Imported here, not at module top: the default registry's own module
    # imports this one to register the builtin scenario.
    from repro.experiments.registry import ExperimentSpec

    specs = []
    title = config.title or f"Scenario {config.name}"
    for cell in config.expand():

        def run(seed: int = cell.params["seed"], _cell: ScenarioCell = cell) -> ExperimentResult:
            return run_cell(_cell, seed=seed)

        specs.append(
            ExperimentSpec(
                id=cell.id,
                title=f"{title} [{cell.label}]" if cell.label else title,
                paper_ref=config.paper_ref,
                run=run,
                tags=("scenario", f"scenario:{config.name}", *config.tags),
                module="repro.scenarios.runner",
                metadata={"scenario": config.name, "axes": dict(cell.axes)},
            )
        )
    return specs


def register_scenario(
    registry: "ExperimentRegistry", config: ScenarioConfig
) -> list["ExperimentSpec"]:
    """Expand ``config`` and register every cell in ``registry``.

    Parameters
    ----------
    registry : ExperimentRegistry
        The target registry (cell ids must not collide with existing
        entries).
    config : ScenarioConfig
        The scenario to install.

    Returns
    -------
    list of ExperimentSpec
        The registered specs, in expansion order.
    """
    specs = scenario_specs(config)
    for spec in specs:
        registry.register(spec)
    return specs


def builtin_scenario() -> ScenarioConfig:
    """The packaged builtin scenario (``builtin.json``).

    Returns
    -------
    ScenarioConfig
        A small ``trace x estimator`` routing grid that ships in the
        default registry, so ``recpipe list`` always shows
        scenario-expanded entries and the docs table stays exercised.
    """
    text = resources.files("repro.scenarios").joinpath("builtin.json").read_text(encoding="utf-8")
    return scenario_from_mapping(json.loads(text), source="repro/scenarios/builtin.json")
