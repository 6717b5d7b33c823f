"""Shared infrastructure for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core.pipeline import PipelineConfig, Stage, enumerate_pipelines
from repro.core.scheduler import RecPipeScheduler
from repro.data.criteo import CriteoSynthetic
from repro.data.movielens import MovieLensConfig, MovieLensSynthetic
from repro.models.zoo import (
    NMF_LARGE,
    NMF_MED,
    NMF_SMALL,
    RM_LARGE,
    RM_MED,
    RM_SMALL,
    criteo_model_specs,
    movielens_model_specs,
)
from repro.quality.evaluator import QualityEvaluator
from repro.serving.router import PathTable
from repro.serving.service_times import CachedServiceConfig
from repro.serving.simulator import SimulationConfig

#: Candidate-pool size used throughout the Criteo deep dive.
CRITEO_POOL = 4096
#: Number of ranking queries used by the quality evaluator in experiments.
NUM_QUALITY_QUERIES = 6


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus free-form notes."""

    name: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, key: str) -> list:
        return [row[key] for row in self.rows]

    def filtered(self, **criteria) -> list[dict]:
        """Rows matching every key=value criterion."""
        return [row for row in self.rows if all(row.get(k) == v for k, v in criteria.items())]

    def format_table(self) -> str:
        """Plain-text rendering of the rows (for scripts and EXPERIMENTS.md)."""
        if not self.rows:
            return f"== {self.name} ==\n(no rows)"
        keys = list(self.rows[0].keys())
        widths = {k: max(len(k), *(len(_fmt(row.get(k))) for row in self.rows)) for k in keys}
        header = " | ".join(k.ljust(widths[k]) for k in keys)
        sep = "-+-".join("-" * widths[k] for k in keys)
        lines = [f"== {self.name} ==", header, sep]
        for row in self.rows:
            lines.append(" | ".join(_fmt(row.get(k)).ljust(widths[k]) for k in keys))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


# --------------------------------------------------------------------------- #
# Canonical Criteo pipelines (the configurations the paper's deep dive uses)
# --------------------------------------------------------------------------- #
def criteo_one_stage(pool: int = CRITEO_POOL) -> PipelineConfig:
    """Single-stage baseline: RMlarge ranks the full candidate pool."""
    return PipelineConfig((Stage(RM_LARGE, pool),))


def criteo_two_stage(pool: int = CRITEO_POOL, keep: int = 512) -> PipelineConfig:
    """The paper's optimal two-stage Criteo design: RMsmall -> RMlarge."""
    return PipelineConfig((Stage(RM_SMALL, pool), Stage(RM_LARGE, keep)))


def criteo_two_stage_med(pool: int = CRITEO_POOL, keep: int = 512) -> PipelineConfig:
    """The RMmed-frontend alternative the paper compares against."""
    return PipelineConfig((Stage(RM_MED, pool), Stage(RM_LARGE, keep)))


def criteo_three_stage(pool: int = CRITEO_POOL) -> PipelineConfig:
    """Three-stage Criteo funnel: RMsmall -> RMmed -> RMlarge."""
    return PipelineConfig((Stage(RM_SMALL, pool), Stage(RM_MED, 1024), Stage(RM_LARGE, 256)))


def movielens_pipelines(pool: int = 1024) -> dict[int, PipelineConfig]:
    """One/two/three-stage NeuMF funnels for the MovieLens datasets."""
    return {
        1: PipelineConfig((Stage(NMF_LARGE, pool),)),
        2: PipelineConfig((Stage(NMF_SMALL, pool), Stage(NMF_LARGE, max(pool // 4, 64)))),
        3: PipelineConfig(
            (
                Stage(NMF_SMALL, pool),
                Stage(NMF_MED, max(pool // 4, 128)),
                Stage(NMF_LARGE, max(pool // 8, 64)),
            )
        ),
    }


# --------------------------------------------------------------------------- #
# Cached evaluators and schedulers (experiments share workloads)
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=4)
def criteo_quality_evaluator(
    pool: int = CRITEO_POOL, num_queries: int = NUM_QUALITY_QUERIES
) -> QualityEvaluator:
    dataset = CriteoSynthetic()
    queries = dataset.sample_ranking_queries(num_queries, candidates_per_query=pool)
    return QualityEvaluator(queries)


@lru_cache(maxsize=4)
def movielens_quality_evaluator(
    preset: str = "1m", pool: int = 1024, num_queries: int = NUM_QUALITY_QUERIES
) -> QualityEvaluator:
    config = MovieLensConfig.ml_1m() if preset == "1m" else MovieLensConfig.ml_20m()
    dataset = MovieLensSynthetic(config=config, name=f"movielens-{preset}")
    queries = dataset.sample_ranking_queries(num_queries, candidates_per_query=pool)
    return QualityEvaluator(queries)


def make_scheduler(
    evaluator: QualityEvaluator,
    num_queries: int = 2000,
    num_tables: int = 26,
    seed: int = 0,
    service: CachedServiceConfig | None = None,
) -> RecPipeScheduler:
    """A scheduler with a simulation budget small enough for CI-speed runs.

    ``service`` selects the per-query service-time model every simulation
    under the scheduler runs with (``None`` keeps deterministic service).
    """
    simulation = SimulationConfig.with_budget(num_queries, seed=seed, service=service)
    return RecPipeScheduler(evaluator, simulation=simulation, num_tables=num_tables)


def workload(dataset: str, pool: int):
    """``(evaluator, model_specs, num_tables)`` for ``criteo`` or ``movielens-<preset>``.

    ``pool`` is the candidates per ranking query; each caller (``recpipe
    sweep``/``route``, the scenario runner) picks its own default.
    """
    if dataset == "criteo":
        return criteo_quality_evaluator(pool), criteo_model_specs(), 26
    preset = dataset.split("-", 1)[1]
    # NeuMF funnels use two embedding tables (user, item).
    return movielens_quality_evaluator(preset, pool), movielens_model_specs(), 2


def compile_table(
    dataset: str,
    *,
    pool: int,
    platforms: Sequence[str],
    qps_grid: Sequence[float],
    sla_ms: float,
    quality_target: float | None = None,
    first_stage_items: Sequence[int],
    later_stage_items: Sequence[int],
    max_stages: int,
    serve_k: int,
    num_queries: int,
    service: CachedServiceConfig | None = None,
    seed: int,
) -> PathTable:
    """Compile the routing table of one dataset-driven serving workload.

    Enumerates the candidate funnels from the item ladders, then sweeps every
    (platform, pipeline) path over ``qps_grid`` with a scheduler seeded like
    the table (the table's dwell cells draw from their own ``seed``-derived
    streams, so the scheduler seed never changes a routed result).

    Raises
    ------
    ValueError
        When the item ladders admit no pipeline.
    """
    evaluator, specs, num_tables = workload(dataset, pool)
    pipelines = enumerate_pipelines(
        specs, first_stage_items, later_stage_items, max_stages=max_stages, serve_k=serve_k
    )
    if not pipelines:
        raise ValueError(
            "the item ladders admit no pipeline; widen --first-stage-items / "
            "--later-stage-items or lower --serve-k"
        )
    scheduler = make_scheduler(
        evaluator, num_queries=num_queries, num_tables=num_tables, seed=seed, service=service
    )
    return PathTable.compile(
        scheduler,
        pipelines,
        platforms,
        qps_grid,
        sla_ms=sla_ms,
        quality_target=quality_target,
        seed=seed,
    )
