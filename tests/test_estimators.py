"""Tests for the router's load estimators (``repro.serving.estimators``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.estimators import (
    ESTIMATORS,
    EWMA,
    MIN_PREDICTED_QPS,
    HoltTrend,
    LoadEstimator,
    WindowedMean,
    make_estimator,
)
from repro.serving.router import MultiPathRouter
from repro.serving.trace import LoadTrace, spike_trace

# Fresh instances of every estimator family with default knobs.
FRESH = [lambda: WindowedMean(window=3), lambda: EWMA(), lambda: HoltTrend()]

loads = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def feed(estimator, values):
    for value in values:
        estimator.observe(value)
    return estimator


class TestProtocol:
    @pytest.mark.parametrize("fresh", FRESH)
    def test_satisfies_the_protocol(self, fresh):
        assert isinstance(fresh(), LoadEstimator)

    @pytest.mark.parametrize("fresh", FRESH)
    def test_predict_before_any_observation_is_an_error(self, fresh):
        estimator = fresh()
        assert not estimator.primed
        with pytest.raises(RuntimeError, match="before any observation"):
            estimator.predict()

    @pytest.mark.parametrize("fresh", FRESH)
    def test_reset_forgets_everything(self, fresh):
        estimator = feed(fresh(), [100.0, 200.0, 300.0])
        assert estimator.primed
        estimator.reset()
        assert not estimator.primed
        with pytest.raises(RuntimeError):
            estimator.predict()

    @pytest.mark.parametrize("fresh", FRESH)
    def test_reset_then_replay_is_deterministic(self, fresh):
        estimator = fresh()
        series = [150.0, 900.0, 5500.0, 4000.0, 300.0]
        first = feed(estimator, series).predict()
        estimator.reset()
        second = feed(estimator, series).predict()
        assert first == second

    def test_make_estimator_by_name(self):
        assert isinstance(make_estimator("windowed", window=7), WindowedMean)
        assert isinstance(make_estimator("ewma", alpha=0.3), EWMA)
        assert isinstance(make_estimator("holt"), HoltTrend)
        with pytest.raises(ValueError, match="unknown estimator"):
            make_estimator("prophet")

    def test_names_match_the_registry(self):
        for name, cls in ESTIMATORS.items():
            assert cls.name == name

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            WindowedMean(window=0)
        with pytest.raises(ValueError):
            EWMA(alpha=0.0)
        with pytest.raises(ValueError):
            EWMA(alpha=1.5)
        with pytest.raises(ValueError):
            HoltTrend(alpha=0.0)
        with pytest.raises(ValueError):
            HoltTrend(beta=1.0001)


class TestCausality:
    """Estimators may only see strictly past steps."""

    @pytest.mark.parametrize("fresh", FRESH)
    @given(prefix=st.lists(loads, min_size=1, max_size=12), future=loads)
    @settings(max_examples=50, deadline=None)
    def test_prediction_ignores_the_future(self, fresh, prefix, future):
        # Two estimators share a past; what step t holds cannot matter at t.
        past_only = feed(fresh(), prefix).predict()
        with_future = feed(fresh(), prefix)
        frozen = with_future.predict()
        with_future.observe(future)  # "step t" arrives *after* the decision
        assert past_only == frozen

    def test_estimate_never_peeks_at_the_current_step(self):
        base = spike_trace(num_steps=40, step_seconds=10.0, seed=3)
        for name in ESTIMATORS:
            for t in range(1, base.num_steps):
                # Perturb step t (and everything after): the estimate
                # *entering* step t must not move.
                perturbed_qps = base.qps.copy()
                perturbed_qps[t:] *= 7.0
                perturbed = LoadTrace("perturbed", base.step_seconds, perturbed_qps)
                original = feed(make_estimator(name), base.qps[:t]).predict()
                shifted = feed(make_estimator(name), perturbed.qps[:t]).predict()
                assert original == shifted


class TestWindowedMean:
    def test_matches_the_rolling_mean(self):
        estimator = WindowedMean(window=3)
        series = [100.0, 200.0, 400.0, 800.0, 1600.0]
        for t in range(1, len(series)):
            estimator.reset()
            feed(estimator, series[:t])
            expected = float(np.mean(series[max(0, t - 3) : t]))
            assert estimator.predict() == pytest.approx(expected)

    @given(st.lists(loads, min_size=1, max_size=30), st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_prediction_stays_inside_the_observed_range(self, series, window):
        estimator = feed(WindowedMean(window=window), series)
        tail = series[-window:]
        assert min(tail) - 1e-9 <= estimator.predict() <= max(tail) + 1e-9


class TestEWMA:
    @given(load=loads, alpha=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_converges_to_a_constant_load(self, load, alpha):
        estimator = feed(EWMA(alpha=alpha), [load] * 60)
        assert estimator.predict() == pytest.approx(load, rel=1e-9)

    def test_reacts_faster_than_an_equal_memory_window(self):
        # Step change 100 -> 1000: one post-change observation moves the
        # EWMA halfway, while a 3-step window is still two-thirds stale.
        step = [100.0, 100.0, 100.0, 1000.0]
        ewma = feed(EWMA(alpha=0.5), step).predict()
        windowed = feed(WindowedMean(window=3), step).predict()
        assert ewma > windowed

    def test_alpha_one_is_last_value_prediction(self):
        estimator = feed(EWMA(alpha=1.0), [100.0, 900.0, 250.0])
        assert estimator.predict() == pytest.approx(250.0)


class TestHoltTrend:
    @given(
        start=st.floats(min_value=10.0, max_value=1e5),
        slope=st.floats(min_value=-50.0, max_value=50.0),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        beta=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_tracks_a_noiseless_ramp_exactly_after_warmup(self, start, slope, alpha, beta):
        # After the two-observation warm-up the forecast error on a linear
        # series is identically zero, for any smoothing factors.
        estimator = HoltTrend(alpha=alpha, beta=beta)
        for t in range(12):
            estimator.observe(start + slope * t)
            if t >= 1:
                predicted = estimator.predict()
                expected = start + slope * (t + 1)
                assert predicted == pytest.approx(
                    max(expected, MIN_PREDICTED_QPS), rel=1e-9, abs=1e-9
                )

    def test_extrapolates_instead_of_chasing(self):
        # On a rising ramp Holt predicts *above* the last observation,
        # while the reactive estimators stay at or below it.
        ramp = [100.0 * (t + 1) for t in range(8)]
        holt = feed(HoltTrend(), ramp).predict()
        windowed = feed(WindowedMean(window=3), ramp).predict()
        ewma = feed(EWMA(), ramp).predict()
        assert holt > ramp[-1]
        assert windowed <= ramp[-1]
        assert ewma <= ramp[-1]

    def test_prediction_clamped_positive_through_a_cliff(self):
        # A crash from 5000 to 1 builds a violently negative trend; the
        # forecast must stay strictly positive for table lookups.
        estimator = feed(HoltTrend(alpha=1.0, beta=1.0), [5000.0, 2500.0, 1.0])
        assert estimator.predict() == MIN_PREDICTED_QPS


class TestRouterLagSemantics:
    """Pinned-seed regression for the lag of ``MultiPathRouter.estimate_series``."""

    def trace(self) -> LoadTrace:
        return spike_trace(
            num_steps=24,
            step_seconds=10.0,
            base_qps=200.0,
            spike_qps=2000.0,
            spike_start=8,
            spike_steps=6,
            noise=0.05,
            seed=11,
        )

    def _table(self):
        from tests.test_router import make_table

        return make_table()

    def _router(self, name: str) -> MultiPathRouter:
        return MultiPathRouter(self._table(), estimator=make_estimator(name))

    def test_step_zero_bootstraps_from_the_first_load(self):
        trace = self.trace()
        for name in ESTIMATORS:
            router = self._router(name)
            assert router.estimate_series(trace)[0] == float(trace.qps[0])

    def test_windowed_estimate_matches_the_lagged_window_mean(self):
        trace = self.trace()
        router = MultiPathRouter(self._table(), window=3)
        series = router.estimate_series(trace)
        for step in range(1, trace.num_steps):
            lo = max(0, step - router.window)
            expected = float(np.mean(trace.qps[lo:step]))
            assert series[step] == pytest.approx(expected)

    def test_estimate_series_agrees_with_per_step_replay(self):
        trace = self.trace()
        for name in ESTIMATORS:
            router = self._router(name)
            series = router.estimate_series(trace)
            assert series.shape == (trace.num_steps,)
            # Replay the estimator from scratch over each observed prefix.
            estimator = make_estimator(name)
            for step in range(1, trace.num_steps):
                estimator.reset()
                for qps in trace.qps[:step]:
                    estimator.observe(float(qps))
                assert series[step] == pytest.approx(estimator.predict())

    def test_pinned_seed_windowed_estimates(self):
        # Frozen numbers: if these move, the lag semantics changed.
        trace = self.trace()
        router = MultiPathRouter(self._table(), window=3)
        series = router.estimate_series(trace)
        np.testing.assert_allclose(
            series[:4],
            [
                float(trace.qps[0]),
                float(trace.qps[0]),
                float(np.mean(trace.qps[:2])),
                float(np.mean(trace.qps[:3])),
            ],
        )
        assert series[9] == pytest.approx(float(np.mean(trace.qps[6:9])))
