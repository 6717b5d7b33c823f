"""Tests for the per-query streaming frontend (``repro.serving.frontend``).

Four pillars, mirroring the frontend's contract:

* **equivalence** — with batching disabled and the decision window equal
  to the trace's dwell step, the frontend's per-window path choices
  reproduce :meth:`MultiPathRouter.decide` bit-for-bit on every scenario
  trace and estimator (the frontend shares the router's estimator and
  state machine, so this is structural, not statistical);
* **admission properties** (hypothesis) — the shed rate is monotone
  non-decreasing in offered load, the admitted rate never exceeds the
  chosen path's feasible frontier, decisions are strictly causal, and
  everything is deterministic under a fixed seed;
* **per-query reference** — the count-based schedule's window counts equal
  a per-query ``floor_divide`` on edge-placed arrivals, and its lazy
  per-query views and ``serve`` results equal the slice-fill reference
  kept here (hypothesis, both arrival processes);
* **throughput** — routing whole query streams must be at least 5x
  faster per query than the step router is per decision (the blocking CI
  smoke; the full-size number lands in ``BENCH_router.json``).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.router_online import build_router
from repro.serving.frontend import (
    ARRIVAL_PROCESSES,
    QUERY_ADMITTED,
    QUERY_DEFERRED,
    QUERY_SHED,
    QueryStream,
    StreamingFrontend,
)
from repro.serving.metrics import weighted_percentile
from repro.serving.router import MultiPathRouter, RoutingResult, route_oracle, route_static
from repro.serving.trace import LoadTrace, diurnal_trace, spike_trace
from tests.conftest import GRID, flat_trace, make_table

FRONTEND_ESTIMATORS = ("windowed", "ewma", "holt", "auto")


def paced_frontend(table, defer_windows: float = 1.0, **kwargs) -> StreamingFrontend:
    """A frontend on deterministic paced arrivals (seed-free, exact)."""
    return StreamingFrontend(
        MultiPathRouter(table, window=1),
        arrival_process="paced",
        defer_windows=defer_windows,
        **kwargs,
    )


class TestQueryStream:
    def test_poisson_stream_is_deterministic_under_a_seed(self):
        trace = spike_trace(num_steps=30, step_seconds=10.0, base_qps=500.0, seed=1)
        a = QueryStream.from_trace(trace, seed=7)
        b = QueryStream.from_trace(trace, seed=7)
        c = QueryStream.from_trace(trace, seed=8)
        np.testing.assert_array_equal(a.arrival_seconds, b.arrival_seconds)
        assert a.num_queries != c.num_queries or not np.array_equal(
            a.arrival_seconds, c.arrival_seconds
        )

    def test_poisson_counts_track_the_offered_load(self):
        trace = flat_trace(1000.0, num_steps=200, step_seconds=1.0)
        stream = QueryStream.from_trace(trace, seed=0)
        expected = trace.qps.sum() * 1.0
        assert abs(stream.num_queries - expected) < 5 * np.sqrt(expected)

    def test_paced_stream_is_exact_and_seed_free(self):
        trace = flat_trace(997.3, num_steps=5, step_seconds=10.0)
        stream = QueryStream.from_trace(trace, process="paced")
        other = QueryStream.from_trace(trace, seed=99, process="paced")
        np.testing.assert_array_equal(stream.arrival_seconds, other.arrival_seconds)
        # Error-diffused counts: floor of the cumulative expectation.
        assert stream.num_queries == int(np.floor(trace.qps.sum() * 10.0 + 1e-9))
        counts = np.bincount(
            np.floor_divide(stream.arrival_seconds, 10.0).astype(int), minlength=5
        )
        assert counts.max() - counts.min() <= 1  # evenly diffused

    def test_arrivals_are_sorted_and_inside_the_trace(self):
        trace = spike_trace(num_steps=40, step_seconds=10.0, base_qps=800.0, seed=3)
        for process in ARRIVAL_PROCESSES:
            stream = QueryStream.from_trace(trace, seed=0, process=process)
            arrivals = stream.arrival_seconds
            assert np.all(np.diff(arrivals) >= 0)
            assert arrivals[0] >= 0.0
            assert arrivals[-1] < trace.duration_seconds

    def test_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            QueryStream("x", 10.0, np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="one-dimensional"):
            QueryStream("x", 10.0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="duration_seconds"):
            QueryStream("x", 0.0, np.array([]))
        with pytest.raises(ValueError, match="arrival process"):
            QueryStream.from_trace(flat_trace(100.0), process="burst")

    @pytest.mark.parametrize(
        "arrivals",
        [[1.0, np.nan], [np.nan, 1.0], [1.0, np.inf]],
        ids=["nan-last", "nan-first", "inf"],
    )
    def test_non_finite_arrivals_are_rejected(self, arrivals):
        with pytest.raises(ValueError, match="non-finite"):
            QueryStream("x", 10.0, np.array(arrivals))

    @pytest.mark.parametrize("step_seconds", [0.1, 1 / 3, 0.7, 7.0, 60.0])
    def test_poisson_stream_equals_a_global_sort_of_the_draws(self, step_seconds):
        trace = spike_trace(
            num_steps=40, step_seconds=step_seconds, base_qps=300.0, spike_qps=3000.0, seed=5
        )
        stream = QueryStream.from_trace(trace, seed=11)
        rng = np.random.default_rng(11)
        counts = rng.poisson(trace.queries_per_step())
        starts = np.arange(trace.num_steps) * trace.step_seconds
        draws = np.repeat(starts, counts) + trace.step_seconds * rng.random(counts.sum())
        np.testing.assert_array_equal(stream.arrival_seconds, np.sort(draws))

    def test_draws_rounded_past_the_next_step_still_sort_globally(self, monkeypatch):
        # With 0.1 s steps, fl(12 * 0.1) + 0.1 * u rounds above fl(13 * 0.1)
        # for u just below 1, so step 12's last draw lands after step 13's
        # first: per-step sorting alone would leave the stream unsorted.
        top = 1.0 - 2.0**-53
        trace = flat_trace(20.0, num_steps=20, step_seconds=0.1)
        starts = np.arange(trace.num_steps) * trace.step_seconds
        assert starts[12] + trace.step_seconds * top > starts[13]

        class PinnedDraws:
            def __init__(self, seed):
                pass

            def poisson(self, expected):
                return np.full(len(expected), 2)

            def random(self, size):
                return np.tile([top, 0.0], size // 2)

        monkeypatch.setattr(np.random, "default_rng", PinnedDraws)
        stream = QueryStream.from_trace(trace, seed=0)
        draws = np.repeat(starts, 2) + trace.step_seconds * np.tile([top, 0.0], trace.num_steps)
        np.testing.assert_array_equal(stream.arrival_seconds, np.sort(draws))

    def test_arrival_array_is_frozen(self):
        stream = QueryStream.from_trace(flat_trace(100.0, num_steps=3))
        with pytest.raises(ValueError):
            stream.arrival_seconds[0] = -1.0


class TestStepRouterEquivalence:
    """Window = dwell step + batching off => the step router, bit for bit."""

    @pytest.mark.parametrize("estimator", FRONTEND_ESTIMATORS)
    def test_path_choices_reproduce_decide(self, synthetic_table, scenario_traces, estimator):
        for trace in scenario_traces:
            reference = build_router(synthetic_table, estimator)
            frontend = StreamingFrontend(build_router(synthetic_table, estimator), batching=False)
            estimates, paths, switches = frontend.decide_windows(trace)
            ref_steps, ref_switches = reference.decide(trace)
            assert paths == ref_steps
            assert switches == ref_switches
            np.testing.assert_array_equal(estimates, reference.estimate_series(trace))

    def test_schedule_embeds_the_same_decisions(self, synthetic_table, scenario_traces):
        trace = scenario_traces[0]
        reference = build_router(synthetic_table)
        frontend = StreamingFrontend(build_router(synthetic_table), batching=False)
        plan = frontend.schedule(trace)
        ref_steps, ref_switches = reference.decide(trace)
        np.testing.assert_array_equal(plan.window_paths, ref_steps)
        np.testing.assert_array_equal(plan.window_switches, ref_switches)
        assert np.all(plan.window_batch == 1)  # batching disabled
        assert plan.window_seconds == trace.step_seconds
        assert plan.num_windows == trace.num_steps

    def test_equivalence_holds_on_compiled_tables(self, compiled_table, scenario_traces):
        for trace in scenario_traces:
            reference = build_router(compiled_table)
            frontend = StreamingFrontend(build_router(compiled_table), batching=False)
            _, paths, switches = frontend.decide_windows(trace)
            ref_steps, ref_switches = reference.decide(trace)
            assert paths == ref_steps
            assert switches == ref_switches

    def test_batched_best_path_matches_scalar(self, synthetic_table):
        loads = np.concatenate([np.asarray(GRID), np.linspace(1.0, 1.5 * GRID[-1], 997)])
        batched = synthetic_table.best_path_batch(loads)
        scalar = np.array([synthetic_table.best_path(float(q)) for q in loads])
        np.testing.assert_array_equal(batched, scalar)

    def test_batched_p99_profile_matches_scalar(self, synthetic_table, compiled_table):
        for table in (synthetic_table, compiled_table):
            grid = np.asarray(table.qps_grid)
            loads = np.concatenate([grid, np.linspace(grid[0] * 0.5, grid[-1] * 1.5, 400)])
            for index in range(len(table.paths)):
                profile = table.p99_profile(index, loads)
                scalar = np.array([table.p99_at(index, float(q)) for q in loads])
                np.testing.assert_array_equal(profile, scalar)


class TestAdmissionProperties:
    """Hypothesis properties of admit / defer / shed."""

    TABLE = make_table()

    def shed_rate_at(self, qps: int, defer_windows: float) -> float:
        frontend = paced_frontend(self.TABLE, defer_windows=defer_windows)
        return frontend.schedule(flat_trace(float(qps), num_steps=8)).shed_rate

    @given(
        rates=st.lists(st.integers(min_value=50, max_value=12_000), min_size=2, max_size=6),
        defer_windows=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_shed_rate_is_monotone_in_offered_load(self, rates, defer_windows):
        rates = sorted(set(rates))
        sheds = [self.shed_rate_at(q, defer_windows) for q in rates]
        for lower, higher in zip(sheds, sheds[1:]):
            assert higher >= lower - 1e-12

    @given(
        qps=st.floats(min_value=200.0, max_value=12_000.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_admitted_rate_never_exceeds_the_frontier(self, qps, seed):
        trace = flat_trace(qps, num_steps=6)
        frontend = StreamingFrontend(MultiPathRouter(self.TABLE, window=1), arrival_seed=seed)
        plan = frontend.schedule(trace)
        for w in range(plan.num_windows):
            cap = self.TABLE.max_feasible_qps(int(plan.window_paths[w]))
            assert plan.window_admitted[w] / plan.window_seconds <= cap

    @given(
        cut=st.integers(min_value=1, max_value=28),
        factor=st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_decisions_are_strictly_causal(self, cut, factor):
        base = spike_trace(num_steps=30, step_seconds=10.0, base_qps=900.0, seed=4)
        perturbed_qps = base.qps.copy()
        perturbed_qps[cut:] = np.maximum(perturbed_qps[cut:] * factor, 1.0)
        perturbed = LoadTrace(base.name, base.step_seconds, perturbed_qps)
        frontend = paced_frontend(self.TABLE)
        est_a, paths_a, _ = frontend.decide_windows(base)
        est_b, paths_b, _ = frontend.decide_windows(perturbed)
        # The estimate entering window t only sees windows < t, and the
        # state machine is forward-only: everything up to the cut matches.
        np.testing.assert_array_equal(est_a[: cut + 1], est_b[: cut + 1])
        assert paths_a[: cut + 1] == paths_b[: cut + 1]

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_schedule_is_deterministic_under_a_seed(self, seed):
        trace = spike_trace(
            num_steps=25, step_seconds=10.0, base_qps=2500.0, spike_qps=6000.0, seed=2
        )
        plans = [
            StreamingFrontend(MultiPathRouter(self.TABLE, window=2), arrival_seed=seed).schedule(
                trace
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(plans[0].query_state, plans[1].query_state)
        np.testing.assert_array_equal(plans[0].query_path, plans[1].query_path)
        np.testing.assert_array_equal(plans[0].window_admitted, plans[1].window_admitted)
        assert plans[0].max_queue_depth == plans[1].max_queue_depth


class TestAdmissionAccounting:
    def overload_plan(self, defer_windows: float = 1.0):
        table = make_table()
        frontend = paced_frontend(table, defer_windows=defer_windows)
        return frontend.schedule(flat_trace(8000.0, num_steps=6))

    def test_every_arrival_is_admitted_deferred_or_shed(self):
        plan = self.overload_plan()
        fresh_admitted = plan.window_admitted - plan.window_from_queue
        np.testing.assert_array_equal(
            plan.window_arrivals, fresh_admitted + plan.window_deferred + plan.window_shed
        )
        states = np.bincount(plan.query_state, minlength=3)
        assert states.sum() == plan.offered_queries
        assert states[QUERY_ADMITTED] + states[QUERY_DEFERRED] == plan.served_queries
        assert states[QUERY_SHED] == plan.shed_queries

    def test_deferred_queries_are_served_fifo_in_a_later_window(self):
        plan = self.overload_plan()
        deferred = plan.query_state == QUERY_DEFERRED
        assert np.any(deferred)
        served = plan.query_serve_window[deferred]
        assert np.all(served >= 0)
        assert np.all(np.diff(served) >= 0)  # FIFO: served in arrival order

    def test_defer_zero_disables_the_queue(self):
        plan = self.overload_plan(defer_windows=0.0)
        assert plan.deferred_served_queries == 0
        assert plan.max_queue_depth == 0
        assert plan.shed_queries > 0

    def test_backlog_left_at_stream_end_counts_as_shed(self):
        table = make_table()
        qps = np.concatenate([np.full(5, 1000.0), np.full(1, 9000.0)])
        frontend = paced_frontend(table)
        plan = frontend.schedule(LoadTrace("tail", 10.0, qps))
        # The last window overflows into the queue with no window left to
        # drain it: those queries must not count as served.
        assert plan.window_deferred[-1] > 0
        assert plan.shed_queries >= plan.window_deferred[-1]
        assert plan.served_queries + plan.shed_queries == plan.offered_queries

    def test_shed_queries_never_carry_a_path_or_window(self):
        plan = self.overload_plan(defer_windows=0.0)
        shed = plan.query_state == QUERY_SHED
        assert np.all(plan.query_path[shed] == -1)
        assert np.all(plan.query_serve_window[shed] == -1)
        served = ~shed
        assert np.all(plan.query_path[served] >= 0)

    def test_stream_past_the_trace_duration_is_rejected(self):
        table = make_table()
        frontend = StreamingFrontend(MultiPathRouter(table, window=1))
        stream = QueryStream("x", 100.0, np.array([5.0, 95.0]))
        with pytest.raises(ValueError, match="past the trace"):
            frontend.schedule(flat_trace(100.0, num_steps=3), stream)


class TestWindowBoundaries:
    """Window counts from the edge search equal the per-query ``floor_divide``."""

    @staticmethod
    def edge_placed_arrivals(window: float, num_windows: int) -> np.ndarray:
        """Arrivals exactly on every edge ``k * window`` and one ulp either side."""
        edges = np.arange(num_windows + 1) * window
        points = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        return np.repeat(np.sort(points[points >= 0]), 3)

    @pytest.mark.parametrize("step_seconds", [0.1, 1 / 3, 0.7, 7.0])
    @pytest.mark.parametrize("multiple", [1.0, 3.0, 0.5])
    def test_counts_match_floor_divide_on_edges(self, step_seconds, multiple):
        window = step_seconds * multiple
        trace = flat_trace(1000.0, num_steps=12, step_seconds=step_seconds)
        frontend = paced_frontend(make_table(), window_seconds=window)
        num_windows = frontend.decide_windows(trace)[0].size
        arrivals = self.edge_placed_arrivals(window, num_windows)
        window_of = np.floor_divide(arrivals, window).astype(np.int64)
        inside = arrivals[window_of < num_windows]
        stream = QueryStream(trace.name, trace.duration_seconds, inside)
        plan = frontend.schedule(trace, stream)
        expected = np.bincount(
            np.floor_divide(inside, window).astype(np.int64), minlength=num_windows
        )
        np.testing.assert_array_equal(plan.window_arrivals, expected)
        assert plan.offered_queries == inside.size

        past = QueryStream(trace.name, trace.duration_seconds, arrivals)
        with pytest.raises(ValueError, match="past the trace"):
            frontend.schedule(trace, past)


def reference_schedule(frontend: StreamingFrontend, trace: LoadTrace, stream: QueryStream):
    """Per-query admission by ``floor_divide`` and contiguous slice fills.

    The frontend's per-query bookkeeping before it became count-based,
    kept as the reference its lazy per-query views must reproduce.
    Returns the per-window outcome arrays and the per-query state, path
    and serve-window arrays.
    """
    window = frontend._window_width(trace)
    _, paths, _ = frontend.decide_windows(trace)
    paths = np.asarray(paths, dtype=np.intp)
    num_windows = paths.size
    window_of = np.floor_divide(stream.arrival_seconds, window).astype(np.int64)
    window_ends = np.cumsum(np.bincount(window_of, minlength=num_windows))
    table = frontend.table
    max_feasible = np.asarray([table.max_feasible_qps(i) for i in range(len(table.paths))])
    caps = np.floor(max_feasible[paths] * window).astype(np.int64)
    queue_limits = np.floor(frontend.defer_windows * caps).astype(np.int64)

    state = np.zeros(stream.num_queries, dtype=np.int8)
    query_path = np.full(stream.num_queries, -1, dtype=np.int32)
    serve_window = np.full(stream.num_queries, -1, dtype=np.int64)
    admitted = np.zeros(num_windows, dtype=np.int64)
    from_queue = np.zeros(num_windows, dtype=np.int64)
    backlog: list[list[int]] = []
    backlog_size = 0
    for w in range(num_windows):
        remaining = int(caps[w])
        while backlog and remaining > 0:
            lo, hi = backlog[0]
            take = min(hi - lo, remaining)
            query_path[lo : lo + take] = paths[w]
            serve_window[lo : lo + take] = w
            remaining -= take
            backlog_size -= take
            from_queue[w] += take
            if take == hi - lo:
                backlog.pop(0)
            else:
                backlog[0][0] = lo + take
        start = int(window_ends[w - 1]) if w else 0
        end = int(window_ends[w])
        take = min(end - start, remaining)
        state[start : start + take] = QUERY_ADMITTED
        query_path[start : start + take] = paths[w]
        serve_window[start : start + take] = w
        admitted[w] = caps[w] - (remaining - take)
        overflow_lo = start + take
        defer = min(end - overflow_lo, max(int(queue_limits[w]) - backlog_size, 0))
        if defer:
            state[overflow_lo : overflow_lo + defer] = QUERY_DEFERRED
            backlog.append([overflow_lo, overflow_lo + defer])
            backlog_size += defer
    for lo, hi in backlog:
        state[lo:hi] = QUERY_SHED
    return admitted, from_queue, state, query_path, serve_window


def reference_routing(frontend, trace, stream, plan, state, serve_window) -> RoutingResult:
    """Score ``plan`` as ``serve`` did with per-query arrays: mask-pooled waits."""
    table = frontend.table
    total = stream.num_queries
    served_windows = np.flatnonzero(plan.window_admitted > 0)
    admitted_qps = plan.window_admitted[served_windows] / plan.window_seconds
    for index in np.unique(plan.window_paths[served_windows]):
        mask = plan.window_paths[served_windows] == index
        table.prefill_dwell(int(index), admitted_qps[mask])
    violations = quality_mass = effective_mass = 0.0
    occupancy: dict[str, float] = {}
    values, weights = [], []
    for w, qps in zip(served_windows, admitted_qps):
        index = int(plan.window_paths[w])
        path = table.paths[index]
        weight = int(plan.window_admitted[w])
        prompt = weight - int(plan.window_from_queue[w])
        quality_mass += weight * path.quality
        occupancy[path.name] = occupancy.get(path.name, 0.0) + weight
        latencies = table.dwell_latencies(index, float(qps))
        if latencies is None:
            violations += weight
            values.append(np.asarray([np.inf]))
            weights.append(np.asarray([float(weight)]))
            continue
        penalty = frontend.router.switch_penalty_seconds if plan.window_switches[w] else 0.0
        observed = latencies + penalty if penalty else latencies
        violating = float(np.mean(observed > table.sla_seconds))
        violations += prompt * violating + (weight - prompt)
        effective_mass += prompt * path.quality * (1.0 - violating)
        values.append(observed)
        weights.append(np.full(observed.size, prompt / observed.size))
    deferred = state == QUERY_DEFERRED
    if np.any(deferred):
        waits = serve_window[deferred] * plan.window_seconds - stream.arrival_seconds[deferred]
        values.append(np.maximum(waits, 0.0))
        weights.append(np.ones(waits.size))
    shed = int(np.sum(state == QUERY_SHED))
    if shed:
        violations += shed
        values.append(np.asarray([np.inf]))
        weights.append(np.asarray([float(shed)]))
    return RoutingResult(
        policy="frontend",
        trace_name=trace.name,
        quality=quality_mass / total,
        effective_quality=effective_mass / total,
        p99_seconds=weighted_percentile(np.concatenate(values), np.concatenate(weights), 99.0),
        violation_rate=violations / total,
        num_switches=plan.num_switches,
        total_queries=float(total),
        path_steps=tuple(int(i) for i in plan.window_paths),
        switch_steps=tuple(bool(s) for s in plan.window_switches),
        occupancy={name: mass / total for name, mass in occupancy.items()},
    )


class TestPerQueryReference:
    """The lazy per-query views and ``serve`` match the slice-fill reference."""

    TABLE = make_table()

    @given(
        qps=st.lists(st.floats(min_value=100.0, max_value=9000.0), min_size=1, max_size=8),
        step_seconds=st.sampled_from([0.1, 1 / 3, 0.7, 1.0, 7.0]),
        multiple=st.sampled_from([None, 0.5, 1.0, 3.0]),
        defer_windows=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        process=st.sampled_from(ARRIVAL_PROCESSES),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_views_and_serve_match_the_reference(
        self, qps, step_seconds, multiple, defer_windows, process, seed
    ):
        trace = LoadTrace("random", step_seconds, np.asarray(qps))
        frontend = StreamingFrontend(
            MultiPathRouter(self.TABLE, window=2),
            window_seconds=None if multiple is None else step_seconds * multiple,
            defer_windows=defer_windows,
            arrival_process=process,
            arrival_seed=seed,
        )
        stream = QueryStream.from_trace(trace, seed=seed, process=process)
        plan = frontend.schedule(trace, stream)
        admitted, from_queue, state, path, serve_window = reference_schedule(
            frontend, trace, stream
        )
        np.testing.assert_array_equal(plan.window_admitted, admitted)
        np.testing.assert_array_equal(plan.window_from_queue, from_queue)
        for view, reference in (
            (plan.query_state, state),
            (plan.query_path, path),
            (plan.query_serve_window, serve_window),
        ):
            assert view.dtype == reference.dtype
            np.testing.assert_array_equal(view, reference)
        assert plan.shed_queries == int(np.sum(state == QUERY_SHED))
        assert plan.deferred_served_queries == int(np.sum(state == QUERY_DEFERRED))
        if stream.num_queries:
            routing = frontend.serve(trace, stream).routing
            assert routing == reference_routing(frontend, trace, stream, plan, state, serve_window)


class TestShedReasonSchema:
    """``window_shed_reason``: one labelled entry per window, always present.

    The CLI step log relies on the column existing with a closed vocabulary
    whether or not anything was shed, so downstream readers never branch on
    schema shape.
    """

    VOCABULARY = {"none", "no-capacity", "queue-full"}

    @pytest.mark.parametrize("batching", [True, False])
    @pytest.mark.parametrize("qps", [1000.0, 8000.0])
    def test_schema_is_unconditional(self, batching, qps):
        frontend = paced_frontend(make_table(), batching=batching)
        plan = frontend.schedule(flat_trace(qps, num_steps=6))
        reasons = plan.window_shed_reason
        assert reasons.shape == (plan.num_windows,)
        assert set(reasons) <= self.VOCABULARY
        np.testing.assert_array_equal(plan.window_shed > 0, reasons != "none")

    def test_feasible_load_reports_none_everywhere(self):
        plan = paced_frontend(make_table()).schedule(flat_trace(1000.0, num_steps=6))
        assert plan.shed_queries == 0
        assert set(plan.window_shed_reason) == {"none"}

    def test_overload_with_capacity_reports_queue_full(self):
        plan = paced_frontend(make_table()).schedule(flat_trace(8000.0, num_steps=6))
        shed_windows = plan.window_shed > 0
        assert np.any(shed_windows)
        assert set(plan.window_shed_reason[shed_windows]) == {"queue-full"}

    def test_zero_capacity_windows_report_no_capacity(self):
        # A decision window so short that floor(max_feasible_qps * window)
        # rounds to zero admitted slots: every arrival is shed for lack of
        # capacity, not queue space (the queue limit scales with capacity).
        frontend = paced_frontend(make_table(), window_seconds=1e-4)
        plan = frontend.schedule(flat_trace(10_000.0, num_steps=1, step_seconds=0.01))
        assert plan.served_queries == 0
        shed_windows = plan.window_shed > 0
        assert np.any(shed_windows)
        assert set(plan.window_shed_reason[shed_windows]) == {"no-capacity"}
        assert set(plan.window_shed_reason[~shed_windows]) <= {"none"}


class TestDynamicBatching:
    def test_batch_obeys_the_headroom_rule(self):
        table = make_table()
        frontend = paced_frontend(table)
        trace = flat_trace(1000.0, num_steps=4)
        plan = frontend.schedule(trace)
        headroom = table.sla_seconds - table.p99_at(0, 1000.0)
        expected = int(np.floor(headroom * 1000.0))
        assert np.all(plan.window_paths == 0)
        assert np.all(plan.window_batch == expected)
        assert 1 <= expected <= frontend.max_batch

    def test_batch_is_clamped_to_max_batch(self):
        table = make_table()
        frontend = paced_frontend(table, max_batch=8)
        plan = frontend.schedule(flat_trace(2500.0, num_steps=4))
        assert np.all(plan.window_batch <= 8)
        assert plan.window_batch.max() == 8  # headroom alone would exceed it

    def test_no_headroom_means_no_batching(self):
        table = make_table(sla_ms=1.0)  # nobody meets 1 ms
        frontend = paced_frontend(table)
        plan = frontend.schedule(flat_trace(1000.0, num_steps=4))
        assert np.all(plan.window_batch == 1)

    def test_mean_batch_size_weights_by_served_queries(self):
        table = make_table()
        frontend = paced_frontend(table)
        plan = frontend.schedule(flat_trace(1000.0, num_steps=4))
        weighted = np.sum(plan.window_admitted * plan.window_batch) / plan.window_admitted.sum()
        assert plan.mean_batch_size == pytest.approx(weighted)

    def test_knob_validation(self):
        table = make_table()
        router = MultiPathRouter(table)
        with pytest.raises(ValueError, match="max_batch"):
            StreamingFrontend(router, max_batch=0)
        with pytest.raises(ValueError, match="window_seconds"):
            StreamingFrontend(router, window_seconds=0.0)
        with pytest.raises(ValueError, match="defer_windows"):
            StreamingFrontend(router, defer_windows=-1.0)
        with pytest.raises(ValueError, match="arrival process"):
            StreamingFrontend(router, arrival_process="burst")


@pytest.fixture(scope="module")
def experiment_table():
    """The frontend experiment's own compiled table (saturates on-trace)."""
    from repro.experiments.router_online import build_table

    return build_table(seed=0)


class TestServe:
    def test_bounds_ordering_on_every_scenario_trace(self, experiment_table, scenario_traces):
        # The experiment's headline claim, on the same compiled table it
        # runs on: clairvoyance bounds the frontend, which bounds static
        # provisioning for the median load.
        for trace in scenario_traces:
            static = route_static(experiment_table, trace)
            oracle = route_oracle(experiment_table, trace)
            frontend = StreamingFrontend(build_router(experiment_table), arrival_seed=0)
            served = frontend.serve(trace)
            assert (
                oracle.violation_rate
                <= served.routing.violation_rate
                <= static.violation_rate + 1e-12
            )
            assert served.routing.policy == "frontend"
            assert served.routing.total_queries == served.schedule.offered_queries

    def test_shed_queries_count_as_violations_with_zero_quality(self):
        table = make_table()
        frontend = paced_frontend(table, defer_windows=0.0)
        trace = flat_trace(8000.0, num_steps=6)
        served = frontend.serve(trace)
        schedule = served.schedule
        assert schedule.shed_rate > 0
        # The served remainder runs on the feasible fast path, so sheds are
        # the *only* violations and the only quality discount.
        assert served.routing.violation_rate == pytest.approx(schedule.shed_rate)
        assert served.routing.p99_seconds == float("inf")  # >1% of mass is shed
        assert served.routing.quality == pytest.approx(95.0 * (1.0 - schedule.shed_rate))
        assert served.routing.effective_quality <= served.routing.quality

    def test_feasible_stream_has_no_violations(self):
        table = make_table()
        frontend = paced_frontend(table)
        served = frontend.serve(flat_trace(1000.0, num_steps=6))
        assert served.schedule.shed_queries == 0
        assert served.routing.violation_rate == 0.0
        assert served.routing.quality == pytest.approx(98.0)
        assert served.routing.effective_quality == pytest.approx(98.0)
        assert served.routing.p99_seconds < table.sla_seconds

    def test_empty_stream_is_rejected(self):
        table = make_table()
        frontend = StreamingFrontend(MultiPathRouter(table, window=1))
        stream = QueryStream("empty", 30.0, np.array([]))
        with pytest.raises(ValueError, match="empty"):
            frontend.serve(flat_trace(100.0, num_steps=3), stream)

    def test_occupancy_sums_to_the_served_fraction(self):
        table = make_table()
        frontend = paced_frontend(table)
        served = frontend.serve(flat_trace(8000.0, num_steps=6))
        served_fraction = served.schedule.served_queries / served.schedule.offered_queries
        assert sum(served.routing.occupancy.values()) == pytest.approx(served_fraction)


class TestThroughputSmoke:
    """The blocking CI smoke: per-query routing >= 5x per-step decisions."""

    def test_frontend_routes_queries_5x_faster_than_step_decisions(self):
        table = make_table()
        trace = diurnal_trace(
            num_steps=600, step_seconds=1.0, base_qps=500.0, peak_qps=2500.0, noise=0.05, seed=0
        )
        stream = QueryStream.from_trace(trace, seed=0)
        assert stream.num_queries > 500_000

        router = MultiPathRouter(table, window=3)
        best_decide = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            steps, _ = router.decide(trace)
            best_decide = min(best_decide, time.perf_counter() - start)
        decisions_per_second = len(steps) / best_decide

        frontend = StreamingFrontend(MultiPathRouter(table, window=3))
        best_schedule = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            plan = frontend.schedule(trace, stream)
            best_schedule = min(best_schedule, time.perf_counter() - start)
        routed_per_second = stream.num_queries / best_schedule

        assert plan.offered_queries == stream.num_queries
        print(
            f"\nfrontend {routed_per_second:,.0f} routed queries/s vs "
            f"step router {decisions_per_second:,.0f} decisions/s "
            f"({routed_per_second / decisions_per_second:.0f}x)"
        )
        assert routed_per_second >= 5 * decisions_per_second
