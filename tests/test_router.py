"""Tests for online multi-path serving (``repro.serving.router``)."""

import numpy as np
import pytest

from repro.core.scheduler import RecPipeScheduler
from repro.core.sweep import SweepConfig, run_sweep
from repro.models.zoo import RM_LARGE, RM_SMALL, criteo_model_specs
from repro.serving.router import (
    MultiPathRouter,
    PathTable,
    route_oracle,
    route_static,
)
from repro.serving.service_times import CachedServiceConfig
from repro.serving.simulator import SimulationConfig
from repro.serving.trace import LoadTrace, spike_trace

# The synthetic two-path table lives in tests/conftest.py; re-exported here
# so `from tests.test_router import make_table` keeps working.
from tests.conftest import (  # noqa: F401  (re-export)
    FAST_ROW,
    GRID,
    HQ_ROW,
    flat_trace,
    make_path,
    make_table,
)


class TestPathTableValidation:
    def test_needs_paths_and_increasing_grid(self):
        hq = make_path("cpu", RM_LARGE, 10.0, 32, 98.0)
        with pytest.raises(ValueError, match="at least one path"):
            PathTable(paths=[], qps_grid=GRID, p99_grid=np.zeros((0, 5)), sla_seconds=0.025)
        with pytest.raises(ValueError, match="strictly increasing"):
            PathTable(
                paths=[hq],
                qps_grid=(100.0, 100.0),
                p99_grid=np.zeros((1, 2)),
                sla_seconds=0.025,
            )

    def test_p99_grid_shape_checked(self):
        hq = make_path("cpu", RM_LARGE, 10.0, 32, 98.0)
        with pytest.raises(ValueError, match="p99_grid"):
            PathTable(paths=[hq], qps_grid=GRID, p99_grid=np.zeros((2, 5)), sla_seconds=0.025)

    def test_unreachable_quality_target_rejected(self):
        with pytest.raises(ValueError, match="quality_target"):
            make_table(quality_target=99.5)


class TestInterpolation:
    def test_off_grid_interpolates_linearly(self):
        table = make_table()
        expected = float(np.interp(1500.0, GRID, np.asarray(HQ_ROW)))
        assert table.p99_at(0, 1500.0) == pytest.approx(expected)
        assert HQ_ROW[1] < table.p99_at(0, 1500.0) < HQ_ROW[2]

    def test_below_grid_clamps_to_first_point(self):
        table = make_table()
        assert table.p99_at(0, 10.0) == pytest.approx(HQ_ROW[0])

    def test_beyond_grid_is_conservatively_infinite(self):
        table = make_table()
        assert table.p99_at(1, 10000.0) == float("inf")

    def test_segment_into_saturated_point_is_infinite(self):
        table = make_table()
        assert table.p99_at(0, 4000.0) == float("inf")

    def test_non_positive_qps_rejected(self):
        with pytest.raises(ValueError):
            make_table().p99_at(0, 0.0)


class TestFeasibleFrontier:
    """`p99_at` is finite-or-inf (never NaN) and non-decreasing in load."""

    INF = float("inf")
    # Saturates mid-grid with *two* adjacent inf cells: loads between
    # grid[3]=3000 and grid[4]=5000 used to interpolate inf - inf = NaN.
    DOUBLE_SAT_ROW = (0.010, 0.011, 0.012, INF, INF)

    def saturated_table(self, rows, qualities=None) -> PathTable:
        qualities = qualities or [98.0 - i for i in range(len(rows))]
        paths = [
            make_path("cpu", RM_LARGE, service_ms=10.0, servers=8 * (i + 1), quality=q)
            for i, q in enumerate(qualities)
        ]
        return PathTable(
            paths=paths,
            qps_grid=GRID,
            p99_grid=np.array(rows),
            sla_seconds=0.025,
        )

    def test_nan_regression_between_two_saturated_points(self):
        table = self.saturated_table([self.DOUBLE_SAT_ROW])
        # 4000 falls strictly between the two saturated grid points.
        value = table.p99_at(0, 4000.0)
        assert value == self.INF
        assert not np.isnan(value)

    def test_fully_saturated_shedding_is_order_independent(self):
        # With NaN p99s, `best_path`'s shedding min() depended on path
        # order.  Now every lookup is inf and the capacity tie-break wins,
        # whichever way the paths are listed.
        rows = [self.DOUBLE_SAT_ROW, self.DOUBLE_SAT_ROW]
        forward = self.saturated_table(rows, qualities=[98.0, 97.0])
        backward = self.saturated_table(list(reversed(rows)), qualities=[97.0, 98.0])
        load = 4000.0  # inside the saturated region for both paths
        chosen_fwd = forward.paths[forward.best_path(load)]
        chosen_bwd = backward.paths[backward.best_path(load)]
        # The higher-capacity path drains fastest and must win both times.
        assert chosen_fwd.capacity_qps == chosen_bwd.capacity_qps
        assert chosen_fwd.capacity_qps == max(p.capacity_qps for p in forward.paths)

    def test_path_saturated_from_the_first_cell(self):
        table = self.saturated_table([(self.INF,) * len(GRID)])
        assert table.p99_at(0, 50.0) == self.INF
        assert table.p99_at(0, 10_000.0) == self.INF
        assert table.max_feasible_qps(0) == 0.0

    def test_finite_cells_after_saturation_are_distrusted(self):
        # A physical p99 curve never recovers from saturation as load
        # rises; a finite cell after an inf one is treated as saturated.
        table = self.saturated_table([(0.010, self.INF, 0.012, 0.013, 0.014)])
        assert table.p99_at(0, float(GRID[0])) == pytest.approx(0.010)
        for qps in (float(GRID[2]), float(GRID[3]), float(GRID[4])):
            assert table.p99_at(0, qps) == self.INF
        assert table.max_feasible_qps(0) == GRID[0]

    def test_noisy_dips_are_monotonized(self):
        # Simulation noise can make a measured p99 dip as load rises; the
        # frontier forces the routing view non-decreasing.
        table = self.saturated_table([(0.010, 0.009, 0.012, 0.011, self.INF)])
        assert table.p99_at(0, float(GRID[1])) == pytest.approx(0.010)
        assert table.p99_at(0, float(GRID[3])) == pytest.approx(0.012)

    def test_nan_grid_cells_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            self.saturated_table([(0.010, float("nan"), 0.012, 0.013, 0.014)])

    def test_max_feasible_qps(self):
        table = make_table()
        assert table.max_feasible_qps(0) == 3000.0  # HQ_ROW saturates at 5000
        assert table.max_feasible_qps(1) == GRID[-1]  # FAST_ROW never does

    @pytest.mark.parametrize(
        "row",
        [
            HQ_ROW,
            FAST_ROW,
            DOUBLE_SAT_ROW,
            (INF, INF, INF, INF, INF),
            (0.010, INF, 0.012, INF, 0.014),
            (0.010, 0.009, 0.012, 0.011, INF),
        ],
    )
    def test_property_finite_or_inf_and_non_decreasing(self, row):
        table = self.saturated_table([row])
        loads = np.linspace(1.0, 2.0 * GRID[-1], 400)
        values = np.array([table.p99_at(0, float(q)) for q in loads])
        assert not np.isnan(values).any()
        # Pairwise comparison (not np.diff): inf >= inf is True while
        # inf - inf is the very NaN this suite guards against.
        assert np.all(values[1:] >= values[:-1])

    def test_property_holds_for_compiled_tables(self, compiled_table):
        grid = np.asarray(compiled_table.qps_grid)
        loads = np.concatenate(
            [
                np.linspace(grid[0] * 0.1, grid[-1], 200),  # below + interior
                np.linspace(grid[-1], grid[-1] * 3.0, 50),  # beyond the grid
            ]
        )
        for index in range(len(compiled_table.paths)):
            values = np.array([compiled_table.p99_at(index, float(q)) for q in loads])
            assert not np.isnan(values).any()
            assert np.all(values[1:] >= values[:-1])
            assert np.all((values > 0) | np.isinf(values))


class TestGridKnotRegression:
    """`p99_at` exactly at grid knots and at `max_feasible_qps` boundaries.

    Interpolation must not perturb the compiled measurements: a lookup at
    a grid knot returns the grid cell bit-for-bit, and the feasibility
    boundary is closed on the left — finite at `max_feasible_qps`, inf for
    any load strictly beyond it.
    """

    def test_finite_knots_reproduce_grid_cells_exactly(self):
        table = make_table()
        for qps, expected in zip(GRID, FAST_ROW):
            assert table.p99_at(1, float(qps)) == expected
        for qps, expected in zip(GRID[:-1], HQ_ROW[:-1]):  # finite prefix
            assert table.p99_at(0, float(qps)) == expected

    def test_saturated_knot_is_infinite(self):
        table = make_table()
        assert table.p99_at(0, float(GRID[-1])) == float("inf")

    def test_boundary_is_closed_at_max_feasible_qps(self):
        table = make_table()
        cap = table.max_feasible_qps(0)
        assert cap == GRID[3]
        assert table.p99_at(0, cap) == HQ_ROW[3]
        assert table.p99_at(0, float(np.nextafter(cap, np.inf))) == float("inf")

    def test_never_saturating_path_is_feasible_through_the_last_knot(self):
        table = make_table()
        cap = table.max_feasible_qps(1)
        assert cap == GRID[-1]
        assert table.p99_at(1, cap) == FAST_ROW[-1]
        # Beyond the measured grid the table stays conservative.
        assert table.p99_at(1, float(np.nextafter(cap, np.inf))) == float("inf")

    def test_compiled_knots_and_boundaries(self, compiled_table):
        grid = np.asarray(compiled_table.qps_grid)
        for index in range(len(compiled_table.paths)):
            cap = compiled_table.max_feasible_qps(index)
            if cap == 0.0:  # saturated from the first cell
                assert compiled_table.p99_at(index, float(grid[0])) == float("inf")
                continue
            # Knots on the feasible frontier reproduce the monotonized grid.
            frontier = np.maximum.accumulate(compiled_table.p99_grid[index])
            for qps, expected in zip(grid, frontier):
                if qps > cap:
                    break
                assert compiled_table.p99_at(index, float(qps)) == expected
            assert np.isfinite(compiled_table.p99_at(index, cap))
            assert compiled_table.p99_at(index, float(np.nextafter(cap, np.inf))) == float("inf")


class TestBestPath:
    def test_prefers_quality_when_sla_met(self):
        table = make_table()
        assert table.best_path(1000.0) == 0  # hq meets the SLA and wins on quality

    def test_switches_to_fast_path_when_hq_saturates(self):
        table = make_table()
        assert table.best_path(4000.0) == 1

    def test_quality_tie_breaks_toward_lower_p99(self):
        hq = make_path("cpu", RM_LARGE, 10.0, 32, 98.0)
        twin = make_path("accel", RM_LARGE, 2.0, 32, 98.0)
        table = PathTable(
            paths=[hq, twin],
            qps_grid=GRID,
            p99_grid=np.array([HQ_ROW, FAST_ROW]),
            sla_seconds=0.025,
        )
        assert table.best_path(1000.0) == 1

    def test_quality_target_restricts_eligibility(self):
        table = make_table(quality_target=96.0)
        # Only the hq path is eligible; even where it misses the SLA the
        # table degrades within the eligible set instead of dropping quality.
        assert table.best_path(1000.0) == 0
        assert table.best_path(4000.0) == 0

    def test_sheds_latency_when_nothing_meets_sla(self):
        table = make_table(sla_ms=1.0)  # nobody meets 1 ms
        assert table.best_path(1000.0) == 1  # lowest interpolated p99 wins


class TestEvaluateRoute:
    def test_static_on_feasible_path_has_zero_violations(self):
        table = make_table()
        trace = flat_trace(1000.0)
        result = route_static(table, trace)
        assert result.policy == "static"
        assert result.violation_rate == 0.0
        assert result.quality == pytest.approx(98.0)
        assert result.num_switches == 0
        assert result.p99_seconds < table.sla_seconds
        assert result.occupancy == {table.paths[0].name: pytest.approx(1.0)}

    def test_saturated_steps_violate_entirely(self):
        table = make_table()
        trace = flat_trace(4000.0)
        steps = [0] * trace.num_steps  # pin the saturated hq path
        result = table.evaluate_route(trace, steps, [False] * trace.num_steps, policy="static")
        assert result.violation_rate == pytest.approx(1.0)
        assert result.p99_seconds == float("inf")

    def test_length_mismatch_rejected(self):
        table = make_table()
        trace = flat_trace(1000.0, num_steps=5)
        with pytest.raises(ValueError, match="every trace step"):
            table.evaluate_route(trace, [0, 0], [False] * 5, policy="x")

    def test_switch_penalty_can_push_queries_over_the_sla(self):
        table = make_table()
        trace = flat_trace(1000.0, num_steps=4)
        steps = [0, 0, 1, 1]
        switches = [False, False, True, False]
        cheap = table.evaluate_route(trace, steps, switches, policy="online")
        costly = table.evaluate_route(
            trace, steps, switches, policy="online", switch_penalty_seconds=0.05
        )
        assert cheap.violation_rate == 0.0
        assert costly.violation_rate == pytest.approx(0.25)  # the switch step violates
        assert costly.num_switches == cheap.num_switches == 1

    def test_occupancy_weights_by_queries(self):
        table = make_table()
        trace = LoadTrace("two", 10.0, np.array([1000.0, 3000.0]))
        result = table.evaluate_route(trace, [0, 1], [False, True], policy="online")
        assert result.occupancy[table.paths[0].name] == pytest.approx(0.25)
        assert result.occupancy[table.paths[1].name] == pytest.approx(0.75)


class TestEffectiveQuality:
    def test_fully_within_sla_delivers_all_promised_quality(self):
        table = make_table()
        result = route_static(table, flat_trace(1000.0))
        assert result.violation_rate == 0.0
        assert result.effective_quality == pytest.approx(result.quality)

    def test_saturated_route_delivers_zero_quality(self):
        table = make_table()
        trace = flat_trace(4000.0)
        steps = [0] * trace.num_steps  # pin the saturated hq path
        result = table.evaluate_route(trace, steps, [False] * trace.num_steps, policy="static")
        assert result.quality == pytest.approx(98.0)  # promised...
        assert result.effective_quality == 0.0  # ...but not delivered

    def test_violating_queries_are_discounted_not_averaged(self):
        table = make_table()
        trace = flat_trace(1000.0, num_steps=4)
        steps = [0, 0, 1, 1]
        switches = [False, False, True, False]
        result = table.evaluate_route(
            trace, steps, switches, policy="online", switch_penalty_seconds=0.05
        )
        # The switch step (path 1, quality 95) violates entirely; the other
        # three steps deliver their paths' full quality.
        assert result.violation_rate == pytest.approx(0.25)
        assert result.effective_quality == pytest.approx((98.0 + 98.0 + 0.0 + 95.0) / 4.0)
        assert result.effective_quality < result.quality

    def test_effective_quality_ranks_shedding_above_saturation(self):
        # The whole point of the metric: a lower-quality feasible path
        # delivers more than a higher-quality saturated one.
        table = make_table()
        trace = flat_trace(4000.0)
        saturated = table.evaluate_route(
            trace, [0] * trace.num_steps, [False] * trace.num_steps, policy="a"
        )
        shedding = table.evaluate_route(
            trace, [1] * trace.num_steps, [False] * trace.num_steps, policy="b"
        )
        assert saturated.quality > shedding.quality
        assert shedding.effective_quality > saturated.effective_quality


class TestCostAwareSwitching:
    SLA_MS = 25.0

    def marginal_table(self, gain_ms: float = 2.0) -> PathTable:
        """Both paths violate the 25 ms SLA at high load; B by ``gain_ms`` less."""
        a = make_path("cpu", RM_LARGE, service_ms=10.0, servers=32, quality=98.0)
        b = make_path("cpu", RM_SMALL, service_ms=2.0, servers=64, quality=95.0)
        over = self.SLA_MS * 1e-3 + 5e-3  # 30 ms: violating but not saturated
        return PathTable(
            paths=[a, b],
            qps_grid=GRID,
            p99_grid=np.array(
                [
                    (0.010, 0.011, over, over, over),
                    (0.002, 0.002, over - gain_ms * 1e-3, over - gain_ms * 1e-3, 0.028),
                ]
            ),
            sla_seconds=self.SLA_MS / 1e3,
            simulation=SimulationConfig(num_queries=600, warmup_queries=60),
        )

    def shed_trace(self) -> LoadTrace:
        qps = np.concatenate([np.full(4, 500.0), np.full(12, 2500.0)])
        return LoadTrace("shed", 10.0, qps)

    def test_zero_cost_commits_marginal_sheds(self):
        router = MultiPathRouter(self.marginal_table(), window=1, switch_cost_seconds=0.0)
        steps, switches = router.decide(self.shed_trace())
        assert steps[-1] == 1
        assert sum(switches) == 1

    def test_cost_gate_blocks_sheds_that_cannot_repay(self):
        # 2 ms predicted gain per step over a ~2-step expected dwell never
        # repays a 50 ms switch cost: stay put.
        router = MultiPathRouter(self.marginal_table(), window=1, switch_cost_seconds=0.05)
        steps, switches = router.decide(self.shed_trace())
        assert sum(switches) == 0
        assert set(steps) == {0}

    def test_escaping_saturation_is_always_worthwhile(self):
        # A saturated current path (inf p99) is exempt from the gate: even
        # a hefty switch cost never pins the router to a saturated path.
        router = MultiPathRouter(make_table(), window=1, switch_cost_seconds=0.05)
        qps = np.concatenate([np.full(4, 500.0), np.full(12, 4000.0)])
        steps, switches = router.decide(LoadTrace("sat", 10.0, qps))
        assert steps[-1] == 1
        assert sum(switches) == 1

    def test_saturated_to_saturated_capacity_shed_is_not_blocked(self):
        # Both paths saturated: best_path proposes the faster-draining one
        # and the gate must not block it (the p99 "gain" is unmeasurable,
        # not zero-valued).
        slow = make_path("cpu", RM_LARGE, service_ms=10.0, servers=8, quality=98.0)
        fast = make_path("cpu", RM_SMALL, service_ms=2.0, servers=64, quality=95.0)
        inf = float("inf")
        table = PathTable(
            paths=[slow, fast],
            qps_grid=GRID,
            p99_grid=np.array([(0.010, inf, inf, inf, inf), (0.002, 0.002, inf, inf, inf)]),
            sla_seconds=0.025,
            simulation=SimulationConfig(num_queries=600, warmup_queries=60),
        )
        router = MultiPathRouter(table, window=1, switch_cost_seconds=10.0)
        qps = np.concatenate([np.full(3, 100.0), np.full(10, 2500.0)])
        steps, switches = router.decide(LoadTrace("allsat", 10.0, qps))
        assert steps[0] == 0  # the high-quality path at the feasible low load
        assert steps[-1] == 1  # drained by the higher-capacity path, gate or not
        assert sum(switches) == 1

    def test_quality_motivated_switches_are_exempt(self):
        # Coming back down from a shed: the current (fast) path still meets
        # the SLA, so reclaiming quality must not be blocked by the gate.
        router = MultiPathRouter(make_table(), window=1, switch_cost_seconds=10.0)
        qps = np.concatenate([np.full(6, 4000.0), np.full(10, 500.0)])
        steps, switches = router.decide(LoadTrace("updown", 10.0, qps))
        assert steps[0] == 1  # shedding under the initial saturating load
        assert steps[-1] == 0  # quality reclaimed once load subsides
        assert sum(switches) == 1

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            MultiPathRouter(make_table(), switch_cost_seconds=-1.0)


class TestEstimatorIntegration:
    def test_default_estimator_reproduces_windowed_mean_decisions(self):
        from repro.serving.estimators import WindowedMean

        table = make_table()
        trace = spike_trace(num_steps=60, step_seconds=10.0, base_qps=1000.0, seed=2)
        implicit = MultiPathRouter(table, window=4)
        explicit = MultiPathRouter(table, estimator=WindowedMean(window=4))
        assert implicit.decide(trace) == explicit.decide(trace)
        assert implicit.estimator_name == explicit.estimator_name == "windowed"

    def test_predictive_estimator_reacts_faster_on_a_ramp(self):
        from repro.serving.estimators import HoltTrend

        table = make_table()
        qps = np.linspace(1000.0, 4500.0, 30)
        trace = LoadTrace("ramp", 10.0, qps)
        reactive = MultiPathRouter(table, window=5)
        predictive = MultiPathRouter(table, window=5, estimator=HoltTrend())
        reactive_steps, _ = reactive.decide(trace)
        predictive_steps, _ = predictive.decide(trace)
        first_shed_reactive = reactive_steps.index(1)
        first_shed_predictive = predictive_steps.index(1)
        assert first_shed_predictive <= first_shed_reactive


class TestHysteresis:
    def boundary_trace(self, num_steps: int = 61) -> LoadTrace:
        # Oscillate around the hq path's feasibility boundary (~3.1k QPS):
        # every other step proposes a different best path.
        qps = np.where(np.arange(num_steps) % 2 == 0, 2800.0, 3600.0)
        return LoadTrace("noisy", 10.0, qps.astype(np.float64))

    def test_hysteresis_prevents_flapping(self):
        table = make_table()
        trace = self.boundary_trace()
        naive = MultiPathRouter(table, window=1, hysteresis_steps=1)
        damped = MultiPathRouter(table, window=1, hysteresis_steps=3)
        _, naive_switches = naive.decide(trace)
        _, damped_switches = damped.decide(trace)
        assert sum(naive_switches) >= trace.num_steps // 2 - 1  # flaps every other step
        assert sum(damped_switches) == 0  # the streak never survives the noise

    def test_window_smoothing_alone_damps_oscillation(self):
        table = make_table()
        trace = self.boundary_trace()
        smoothed = MultiPathRouter(table, window=6, hysteresis_steps=1)
        _, switches = smoothed.decide(trace)
        # The windowed mean (~3.2k) straddles the boundary far less often.
        assert sum(switches) <= 4

    def test_sustained_shift_still_switches(self):
        table = make_table()
        qps = np.concatenate([np.full(10, 1000.0), np.full(10, 4000.0)])
        trace = LoadTrace("shift", 10.0, qps)
        router = MultiPathRouter(table, window=2, hysteresis_steps=2)
        steps, switches = router.decide(trace)
        assert steps[0] == 0 and steps[-1] == 1
        assert sum(switches) == 1

    def test_knob_validation(self):
        table = make_table()
        with pytest.raises(ValueError):
            MultiPathRouter(table, window=0)
        with pytest.raises(ValueError):
            MultiPathRouter(table, hysteresis_steps=0)
        with pytest.raises(ValueError):
            MultiPathRouter(table, switch_penalty_seconds=-1.0)


class TestPolicyOrdering:
    def spike(self) -> LoadTrace:
        return spike_trace(
            num_steps=80,
            step_seconds=10.0,
            base_qps=1000.0,
            spike_qps=4200.0,
            spike_start=30,
            spike_steps=15,
            noise=0.02,
            seed=5,
        )

    def test_oracle_beats_online_beats_static_on_violation_rate(self):
        table = make_table()
        trace = self.spike()
        static = route_static(table, trace)
        oracle = route_oracle(table, trace)
        online = MultiPathRouter(
            table, window=3, hysteresis_steps=2, switch_penalty_seconds=5e-3
        ).route(trace)
        assert oracle.violation_rate <= online.violation_rate <= static.violation_rate
        assert online.violation_rate < static.violation_rate  # the headline claim
        assert static.num_switches == 0
        assert online.num_switches >= 1

    def test_online_quality_stays_near_oracle(self):
        table = make_table()
        trace = self.spike()
        oracle = route_oracle(table, trace)
        online = MultiPathRouter(table, window=3, hysteresis_steps=2).route(trace)
        assert online.quality >= oracle.quality * (1.0 - 1e-3)

    def test_static_provisions_for_the_median_load(self):
        table = make_table()
        trace = self.spike()  # median sits at the base load
        result = route_static(table, trace)
        assert set(result.path_steps) == {table.best_path(trace.median_qps())}


class TestCompiledTables:
    def test_compile_matches_sweep_outcome(self, criteo_workload):
        """`compile` and `from_outcome` derive the same table from one seed."""
        scheduler, pipelines = criteo_workload
        config = SweepConfig(
            platforms=("cpu", "rpaccel"),
            qps=(250.0, 1000.0, 4000.0),
            first_stage_items=(512,),
            later_stage_items=(128,),
            max_stages=2,
            num_queries=300,
            seed=0,
        )
        outcome = run_sweep(scheduler.evaluator, criteo_model_specs(), config)
        compiled = PathTable.compile(
            scheduler,
            outcome.pipelines,
            config.platforms,
            config.qps,
            sla_ms=config.sla_ms,
            seed=config.seed,
        )
        derived = PathTable.from_outcome(outcome, scheduler)
        assert [p.name for p in compiled.paths] == [p.name for p in derived.paths]
        np.testing.assert_allclose(compiled.p99_grid, derived.p99_grid)
        assert compiled.sla_seconds == derived.sla_seconds

    def test_compiled_table_routes_by_load_regime(self, criteo_workload):
        scheduler, pipelines = criteo_workload
        table = PathTable.compile(
            scheduler,
            pipelines,
            ("cpu",),
            (250.0, 1000.0, 4000.0, 8000.0),
            sla_ms=25.0,
            seed=0,
        )
        low = table.paths[table.best_path(300.0)]
        high = table.paths[table.best_path(7500.0)]
        # Under pressure the router gives up quality for feasibility.
        assert high.quality <= low.quality
        assert high.capacity_qps > low.capacity_qps

    @pytest.mark.parametrize("service", [None, CachedServiceConfig()], ids=["det", "cached"])
    def test_scheduler_seed_never_reaches_the_table(self, criteo_workload, service):
        """Only the compile seed shapes a table: its columns and dwell cells
        draw from streams spawned off it, never from the scheduler's own
        simulation seed."""
        _, pipelines = criteo_workload
        evaluator = criteo_workload[0].evaluator
        tables = [
            PathTable.compile(
                RecPipeScheduler(
                    evaluator,
                    simulation=SimulationConfig.with_budget(300, seed=sim_seed, service=service),
                ),
                pipelines,
                ("cpu",),
                (250.0, 1000.0, 4000.0, 8000.0),
                sla_ms=25.0,
                seed=3,
            )
            for sim_seed in (0, 11)
        ]
        np.testing.assert_array_equal(tables[0].p99_grid, tables[1].p99_grid)
        for index in range(len(tables[0].paths)):
            for qps in (300.0, 2500.0, 7000.0):
                first, second = (table.dwell_latencies(index, qps) for table in tables)
                if first is None:
                    assert second is None
                else:
                    np.testing.assert_array_equal(first, second)


class TestServiceStepOverrides:
    """Every policy forwards ``service_steps`` to ``evaluate_route`` unchanged."""

    COLD = CachedServiceConfig(warm_fraction=0.0)

    def policies(self, table, trace, **kwargs):
        router = MultiPathRouter(table, switch_penalty_seconds=5e-3)
        return [
            route_static(table, trace, **kwargs),
            route_oracle(table, trace, **kwargs),
            router.route(trace, **kwargs),
        ]

    def trace(self) -> LoadTrace:
        return spike_trace(
            num_steps=24, step_seconds=10.0, base_qps=1000.0, spike_qps=4200.0, seed=2
        )

    def test_override_equals_evaluating_the_policy_decisions(self):
        table = make_table()
        trace = self.trace()
        steps = [None] * 8 + [self.COLD] * 16
        for routed in self.policies(table, trace, service_steps=steps):
            direct = table.evaluate_route(
                trace,
                routed.path_steps,
                routed.switch_steps,
                policy=routed.policy,
                switch_penalty_seconds=5e-3 if routed.policy == "online" else 0.0,
                service_steps=steps,
            )
            assert routed == direct

    def test_override_never_changes_a_decision(self):
        table = make_table()
        trace = self.trace()
        plain = self.policies(table, trace)
        cold = self.policies(table, trace, service_steps=[self.COLD] * trace.num_steps)
        for a, b in zip(plain, cold):
            assert a.path_steps == b.path_steps
            assert a.switch_steps == b.switch_steps
            assert b.violation_rate > a.violation_rate  # ...but it does cost

    def test_omitted_equals_all_none(self):
        table = make_table()
        trace = self.trace()
        plain = self.policies(table, trace)
        explicit = self.policies(table, trace, service_steps=[None] * trace.num_steps)
        assert plain == explicit
