"""Online multi-path serving router: estimator grid vs static and oracle bounds.

MP-Rec (Hsia et al., 2023) argues that the best (platform, pipeline)
execution path is load-dependent, so a serving system should re-select it
online as load shifts.  This harness compiles a
:class:`~repro.serving.router.PathTable` from the scheduler's sweep grid and
replays three load traces (diurnal cycle, flash-crowd spike, ramp) under:

* **static** — the single best path provisioned offline for the trace's
  median load (what a sweep consumer deploys today),
* **oracle** — clairvoyant per-step re-selection with free switches (the
  upper bound),
* **online × estimator** — one :class:`~repro.serving.router.MultiPathRouter`
  per load estimator (:mod:`repro.serving.estimators`): the reactive
  windowed mean (the original policy), EWMA, and Holt level+trend — all
  with hysteresis, a per-switch warm-up penalty, and the cost-aware switch
  gate.

Every row reports ``effective_quality`` — query-weighted NDCG with
SLA-violating queries discounted to zero — alongside the raw quality, so
policies are ranked by quality *delivered within SLA*.  The headline claim
mirrors MP-Rec's: on the flash-crowd trace the best predictive estimator
cuts the SLA-violation rate to (at most) the windowed-mean baseline's with
no extra switches, and every online policy sits between the oracle and
static bounds.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult, compile_table
from repro.serving.estimators import LoadEstimator, estimator_from_knobs
from repro.serving.router import (
    MultiPathRouter,
    PathTable,
    RoutingResult,
    route_oracle,
    route_static,
)
from repro.serving.service_times import CachedServiceConfig
from repro.serving.trace import LoadTrace, make_trace

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Online multi-path serving router (estimator grid vs static/oracle bounds)"
PAPER_REF = "MP-Rec-style serving-time path selection (Hsia et al., 2023)"
TAGS = ("serving-online", "serving", "router", "criteo")

#: Candidate-pool size of the routed workload.
POOL = 512
#: Hardware platforms whose (platform, pipeline) paths enter the table.
PLATFORMS = ("cpu", "gpu-cpu")
#: Swept loads backing the table's interpolated p99 curves.
QPS_GRID = (100.0, 250.0, 1000.0, 2500.0, 4000.0, 5500.0, 6000.0)
SLA_MS = 25.0
NUM_QUERIES = 800

#: Online-policy knobs (see :class:`~repro.serving.router.MultiPathRouter`).
#: The dataclass defaults are the single source of truth for the shared knobs.
WINDOW = MultiPathRouter.window
HYSTERESIS_STEPS = MultiPathRouter.hysteresis_steps
SWITCH_PENALTY_SECONDS = 5e-3
SWITCH_COST_SECONDS = 5e-3

#: The estimator grid every trace is replayed under ("windowed" is the
#: reactive baseline; the rest are predictive).
ONLINE_ESTIMATORS = ("windowed", "ewma", "holt")
#: Estimator label used where a single online policy is reported.
BASELINE_ESTIMATOR = "windowed"
EWMA_ALPHA = 0.5

#: Relative quality slack the online router may give up versus the oracle.
QUALITY_SLACK = 1e-3


def build_table(seed: int = 0, service: CachedServiceConfig | None = None) -> PathTable:
    """Compile the experiment's routing table (14 paths x 7 loads).

    The paths are the 7 one/two-stage Criteo funnels on each platform;
    ``service`` selects the table's service-time model.
    """
    return compile_table(
        "criteo",
        pool=POOL,
        platforms=PLATFORMS,
        qps_grid=QPS_GRID,
        sla_ms=SLA_MS,
        first_stage_items=(POOL,),
        later_stage_items=(128, 256),
        max_stages=2,
        serve_k=64,
        num_queries=NUM_QUERIES,
        service=service,
        seed=seed,
    )


def default_traces(seed: int = 0) -> list[LoadTrace]:
    """The three scenario traces every policy is replayed on.

    The spike plateau (5500 QPS) saturates the top-quality path (capacity
    ~4500 QPS on CPU) but not the mid-quality fallback, so static
    provisioning for the median load must violate while re-selection need
    not — the regime split the router exists for.
    """
    return [
        make_trace("diurnal", base_qps=150.0, peak_qps=5000.0, num_steps=96, noise=0.05, seed=seed),
        make_trace(
            "spike",
            base_qps=150.0,
            peak_qps=5500.0,
            num_steps=120,
            spike_start=40,
            spike_steps=20,
            noise=0.03,
            seed=seed,
        ),
        make_trace("ramp", base_qps=100.0, peak_qps=6000.0, num_steps=60, noise=0.03, seed=seed),
    ]


def build_estimator(name: str) -> LoadEstimator:
    """One load estimator with the experiment's default knobs."""
    return estimator_from_knobs(name, window=WINDOW, ewma_alpha=EWMA_ALPHA)


def build_router(table: PathTable, estimator: str = BASELINE_ESTIMATOR) -> MultiPathRouter:
    """The online policy under test, with the experiment's default knobs."""
    return MultiPathRouter(
        table,
        window=WINDOW,
        hysteresis_steps=HYSTERESIS_STEPS,
        switch_penalty_seconds=SWITCH_PENALTY_SECONDS,
        estimator=build_estimator(estimator),
        switch_cost_seconds=SWITCH_COST_SECONDS,
    )


def compare_policies(
    table: PathTable,
    trace: LoadTrace,
    router: MultiPathRouter | None = None,
    planning_qps: float | None = None,
    service_steps: Sequence[CachedServiceConfig | None] | None = None,
) -> dict[str, RoutingResult]:
    """Static, oracle and online results for one trace, in that order.

    ``router`` overrides the online policy under test (the CLI passes its
    own knobs); by default the experiment's :func:`build_router` runs.
    ``planning_qps`` overrides the static policy's provisioning load.
    ``service_steps`` evaluates every policy's schedule under the same
    per-step service configs (the cache-state scenarios); the policies
    still decide from load alone.
    """
    online = build_router(table) if router is None else router
    return {
        "static": route_static(table, trace, planning_qps, service_steps=service_steps),
        "oracle": route_oracle(table, trace, service_steps=service_steps),
        "online": online.route(trace, service_steps=service_steps),
    }


def compare_estimators(
    table: PathTable, trace: LoadTrace
) -> tuple[dict[str, RoutingResult], dict[str, RoutingResult]]:
    """The full comparison for one trace: (bounds, online-by-estimator).

    Returns
    -------
    tuple[dict, dict]
        ``({"static": ..., "oracle": ...}, {estimator_name: online result})``.
    """
    bounds = {
        "static": route_static(table, trace),
        "oracle": route_oracle(table, trace),
    }
    online = {name: build_router(table, name).route(trace) for name in ONLINE_ESTIMATORS}
    return bounds, online


def violation_note(trace: LoadTrace, routings: dict[str, RoutingResult]) -> str:
    """The one-line static-vs-online summary both the CLI and harness print."""
    static, online = routings["static"], routings["online"]
    return (
        f"{trace.name}: SLA-violation rate static {static.violation_rate:.3f} "
        f"-> online {online.violation_rate:.3f} ({online.num_switches} switches)"
    )


def result_row(trace: LoadTrace, routing: RoutingResult, estimator: str = "-") -> dict:
    """One JSON/CSV-ready row per (trace, policy, estimator) evaluation."""
    leader = max(routing.occupancy.items(), key=lambda item: item[1])
    return {
        "trace": trace.name,
        "policy": routing.policy,
        "estimator": estimator,
        "quality_ndcg": routing.quality,
        "effective_quality": routing.effective_quality,
        "p99_ms": routing.p99_seconds * 1e3,
        "sla_violation_rate": routing.violation_rate,
        "num_switches": routing.num_switches,
        "paths_used": len(routing.occupancy),
        "dominant_path": leader[0],
        "dominant_share": leader[1],
        "total_queries": routing.total_queries,
    }


def best_predictive(online: dict[str, RoutingResult]) -> str:
    """The predictive estimator with the lowest (violation rate, switches)."""
    candidates = [name for name in online if name != BASELINE_ESTIMATOR]
    return min(
        candidates, key=lambda name: (online[name].violation_rate, online[name].num_switches)
    )


def run(seed: int = 0) -> ExperimentResult:
    """Replay every trace under every policy and estimator; report the grid."""
    table = build_table(seed)
    result = ExperimentResult(name="router_online")
    summary: dict[str, tuple[dict[str, RoutingResult], dict[str, RoutingResult]]] = {}
    for trace in default_traces(seed):
        bounds, online = compare_estimators(table, trace)
        summary[trace.name] = (bounds, online)
        for routing in bounds.values():
            result.add(**result_row(trace, routing))
        for name in ONLINE_ESTIMATORS:
            result.add(**result_row(trace, online[name], estimator=name))
    result.note(
        f"{len(table.paths)} paths ({' + '.join(PLATFORMS)}) x "
        f"{len(QPS_GRID)} swept loads; sla {SLA_MS:.0f} ms; online policy: "
        f"window {WINDOW}, hysteresis {HYSTERESIS_STEPS}, "
        f"switch penalty {SWITCH_PENALTY_SECONDS * 1e3:.0f} ms, "
        f"switch cost {SWITCH_COST_SECONDS * 1e3:.0f} ms; estimators: "
        + ", ".join(ONLINE_ESTIMATORS)
    )
    for name, (bounds, online) in summary.items():
        static, oracle = bounds["static"], bounds["oracle"]
        per_estimator = "; ".join(
            f"{est} {online[est].violation_rate:.3f} ({online[est].num_switches} sw, "
            f"eff {online[est].effective_quality:.2f})"
            for est in ONLINE_ESTIMATORS
        )
        result.note(
            f"{name}: SLA-violation rate static {static.violation_rate:.3f} / "
            f"oracle {oracle.violation_rate:.3f}; online {per_estimator}; "
            f"effective quality static {static.effective_quality:.2f} "
            f"vs oracle {oracle.effective_quality:.2f}"
        )
    spike_bounds, spike_online = summary["spike"]
    baseline = spike_online[BASELINE_ESTIMATOR]
    best = spike_online[best_predictive(spike_online)]
    beats_baseline = (
        best.violation_rate <= baseline.violation_rate
        and best.num_switches <= baseline.num_switches
    )
    holds_quality = best.quality >= spike_bounds["oracle"].quality * (1.0 - QUALITY_SLACK)
    result.note(
        "spike headline: best predictive estimator "
        f"({best_predictive(spike_online)}) matches or beats the windowed-mean "
        f"baseline on SLA violations at equal or fewer switches: {beats_baseline}; "
        f"within {QUALITY_SLACK:.1%} of oracle quality: {holds_quality}"
    )
    return result


if __name__ == "__main__":
    print(run().format_table())
