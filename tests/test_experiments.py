"""Integration tests: the experiment harnesses reproduce the paper's shape.

These tests run the same ``run()`` functions the benchmark suite uses (with
reduced workloads where possible) and assert the qualitative claims of each
table/figure: orderings, rough improvement factors and crossovers.
"""

import math

import pytest

from repro.experiments import fig01_motivation, fig03_quality, fig05_ablation
from repro.experiments import fig10_design_space, fig11_area_power
from repro.experiments import fig12_rpaccel_scale, fig13_future
from repro.experiments.common import (
    ExperimentResult,
    criteo_one_stage,
    criteo_quality_evaluator,
    criteo_two_stage,
    criteo_two_stage_med,
    make_scheduler,
)


class TestFig01Motivation:
    def test_reductions_match_paper_shape(self):
        result = fig01_motivation.run()
        reduction = result.filtered(config="reduction")[0]
        assert 5.0 < reduction["compute_macs"] < 10.0  # paper: 7.5x
        assert 3.0 < reduction["embedding_bytes"] < 5.5  # paper: 4.0x

    def test_two_stage_iso_quality(self):
        result = fig01_motivation.run()
        one = result.filtered(config="one-stage")[0]
        two = result.filtered(config="two-stage")[0]
        assert two["quality_ndcg"] >= one["quality_ndcg"] - 1.0


class TestFig03Quality:
    @pytest.fixture(scope="class")
    def result(self):
        return fig03_quality.run(item_counts=(256, 1024, 4096))

    def test_quality_increases_with_items(self, result):
        for model in ("RMsmall", "RMmed", "RMlarge"):
            rows = sorted(result.filtered(model=model), key=lambda r: r["items_ranked"])
            values = [r["quality_ndcg"] for r in rows]
            assert values == sorted(values)

    def test_quality_increases_with_model_size_at_fixed_items(self, result):
        at_4096 = {r["model"]: r["quality_ndcg"] for r in result.filtered(items_ranked=4096)}
        assert at_4096["RMlarge"] > at_4096["RMmed"] > at_4096["RMsmall"]

    def test_items_axis_dominates_model_axis(self, result):
        """Paper: ranking more items moves quality more than a bigger model."""
        small_4096 = result.filtered(model="RMsmall", items_ranked=4096)[0]["quality_ndcg"]
        large_256 = result.filtered(model="RMlarge", items_ranked=256)[0]["quality_ndcg"]
        assert small_4096 > large_256


class TestFig05Ablation:
    def test_each_step_helps_latency_or_throughput(self):
        result = fig05_ablation.run()
        rows = result.rows
        final = rows[-1]
        assert final["latency_speedup"] > 2.0  # paper: up to 5x
        assert final["throughput_gain"] > 3.0  # paper: up to 10x
        # The full RPAccel is the best configuration in both metrics.
        assert final["latency_ms"] == min(r["latency_ms"] for r in rows)
        assert final["capacity_qps"] == max(r["capacity_qps"] for r in rows)


class TestFig07SchedulingClaims:
    @pytest.fixture(scope="class")
    def scheduler(self):
        return make_scheduler(criteo_quality_evaluator(), num_queries=1200)

    def test_two_stage_reduces_cpu_latency_about_4x(self, scheduler):
        one = scheduler.evaluate(criteo_one_stage(), "cpu", 500)
        two = scheduler.evaluate(criteo_two_stage(), "cpu", 500)
        assert one.p99_latency / two.p99_latency > 2.0  # paper: ~4x
        assert two.quality >= one.quality - 1.0

    def test_rmsmall_frontend_beats_rmmed_frontend(self, scheduler):
        """Paper Takeaway 1: RMmed-RMlarge is slower at (roughly) equal quality."""
        small_fe = scheduler.evaluate(criteo_two_stage(), "cpu", 500)
        med_fe = scheduler.evaluate(criteo_two_stage_med(), "cpu", 500)
        assert med_fe.p99_latency > 1.2 * small_fe.p99_latency
        assert abs(med_fe.quality - small_fe.quality) < 2.5


class TestFig10DesignSpace:
    def test_utilization_panel(self):
        result = fig10_design_space.run_utilization()
        small_rows = {r["array"]: r["utilization"] for r in result.filtered(model="RMsmall")}
        assert small_rows["8x8"] > small_rows["128x128"]
        mono = result.filtered(model="two-stage", array="monolithic")[0]["utilization"]
        reconfig = result.filtered(model="two-stage", array="reconfigurable")[0]["utilization"]
        assert reconfig > 1.3 * mono  # paper: 30% -> 60%

    def test_topk_panel(self):
        result = fig10_design_space.run_topk()
        values = {r["metric"]: r["value"] for r in result.rows}
        assert values["recall_vs_exact_topk"] > 0.95
        assert values["sram_overhead_no_threshold"] > 2.5 * values["sram_overhead_with_threshold"]

    def test_cache_panel_larger_cache_lower_amat(self):
        result = fig10_design_space.run_cache_partition()
        small_cache = [
            r["amat_cycles"]
            for r in result.rows
            if r["static_cache_mb"] == 4.0 and r["filtering_ratio"] == "1/8"
        ]
        big_cache = [
            r["amat_cycles"]
            for r in result.rows
            if r["static_cache_mb"] == 12.0 and r["filtering_ratio"] == "1/8"
        ]
        assert min(big_cache) < min(small_cache)


class TestFig11AreaPower:
    def test_overheads(self):
        result = fig11_area_power.run()
        note_text = " ".join(result.notes)
        assert "area overhead" in note_text
        totals = {r["component"]: r for r in result.rows}
        base = totals["TOTAL baseline"]
        rp = totals["TOTAL rpaccel"]
        assert 1.05 < rp["area_mm2"] / base["area_mm2"] < 1.2  # paper: +11%
        assert 1.2 < rp["power_w"] / base["power_w"] < 1.5  # paper: +36%


class TestFig12AtScale:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_rpaccel_scale.run_scale(qps_values=(200, 400, 1600))

    def test_rpaccel_multistage_dominates_baseline(self, result):
        base = result.filtered(config="baseline accel (1-stage)", qps=200)[0]
        rp = result.filtered(config="rpaccel 2-stage", qps=200)[0]
        assert base["unloaded_latency_ms"] / rp["unloaded_latency_ms"] > 2.0  # ~3x
        assert rp["capacity_qps"] / base["capacity_qps"] > 4.0  # ~6x

    def test_baseline_saturates_before_rpaccel(self, result):
        base_high = result.filtered(config="baseline accel (1-stage)", qps=1600)[0]
        rp_high = result.filtered(config="rpaccel 2-stage", qps=1600)[0]
        assert base_high["saturated"]
        assert not rp_high["saturated"]

    def test_asymmetric_provisioning_tradeoff(self):
        result = fig12_rpaccel_scale.run_asymmetric()
        low_2 = result.filtered(config="RPAccel8,2", load="low")[0]
        low_16 = result.filtered(config="RPAccel8,16", load="low")[0]
        assert low_2["unloaded_latency_ms"] < low_16["unloaded_latency_ms"]


class TestFig13Future:
    def test_locality_trends(self):
        result = fig13_future.run_locality(scales=(1, 8, 32))
        rows = sorted(result.rows, key=lambda r: r["embedding_scale"])
        assert rows[0]["fraction_in_ssd"] == 0.0
        assert rows[-1]["fraction_in_ssd"] > 0.85  # paper: ~97% at 32x
        assert rows[-1]["onchip_miss_rate"] >= rows[0]["onchip_miss_rate"]
        assert rows[-1]["overlap_fraction"] <= rows[0]["overlap_fraction"]

    def test_multistage_scales_more_gracefully(self):
        result = fig13_future.run_scaling(scales=(1, 8, 32))
        rows = sorted(result.rows, key=lambda r: r["embedding_scale"])
        single_growth = rows[-1]["single_stage_latency_ms"] / rows[0]["single_stage_latency_ms"]
        multi_growth = rows[-1]["multi_stage_latency_ms"] / rows[0]["multi_stage_latency_ms"]
        assert math.isfinite(single_growth) and math.isfinite(multi_growth)
        assert multi_growth < single_growth
        assert rows[-1]["multi_stage_latency_ms"] < rows[-1]["single_stage_latency_ms"]


class TestExperimentResultHelpers:
    def test_column_and_filtered(self):
        result = ExperimentResult(name="x")
        result.add(a=1, b="u")
        result.add(a=2, b="v")
        assert result.column("a") == [1, 2]
        assert result.filtered(b="v")[0]["a"] == 2

    def test_format_table_empty(self):
        assert "(no rows)" in ExperimentResult(name="empty").format_table()

    def test_format_table_handles_inf(self):
        result = ExperimentResult(name="x")
        result.add(value=float("inf"))
        assert "inf" in result.format_table()
