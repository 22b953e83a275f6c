"""Tests for the experiment harness (runner, comparison, aggregate, report)."""

import numpy as np
import pytest

from repro.core.trace import CleaningTrace, IterationRecord
from repro.experiments import (
    Configuration,
    advantage_by_algorithm,
    advantage_by_error_type,
    average_curve,
    build_polluted,
    estimator_mae,
    f1_advantage,
    f1_advantage_curves,
    first_iteration_runtime,
    format_series,
    format_table,
    run_configuration,
    run_method,
)

FAST = dict(n_rows=180, budget=3.0, step=0.03, rr_repeats=2)


def _trace(initial, pairs, predicted=None):
    trace = CleaningTrace(initial_f1=initial)
    for i, (spent, f1) in enumerate(pairs, start=1):
        trace.append(
            IterationRecord(
                iteration=i, feature="f", error="missing", cost=1.0,
                budget_spent=spent, f1_before=initial, f1_after=f1,
                predicted_f1=None if predicted is None else predicted[i - 1],
            )
        )
    return trace


class TestConfiguration:
    def test_cost_model_selection(self):
        assert Configuration("cmc", cost_model="paper").make_cost_model().next_cost("f", "missing") == 2.0
        assert Configuration("cmc").make_cost_model().next_cost("f", "missing") == 1.0

    def test_unknown_cost_model_raises(self):
        with pytest.raises(ValueError):
            Configuration("cmc", cost_model="weird").make_cost_model()

    def test_build_polluted_deterministic(self):
        config = Configuration("cmc", **FAST)
        a = build_polluted(config, seed=1)
        b = build_polluted(config, seed=1)
        assert a.train == b.train

    def test_build_cleanml(self):
        config = Configuration("titanic", cleanml=True, **FAST)
        polluted = build_polluted(config, seed=0)
        assert polluted.name == "cleanml-titanic"
        assert polluted.dirty_train.total() > 0


class TestRunMethod:
    @pytest.mark.parametrize("method", ["comet", "rr", "fir", "cl", "oracle"])
    def test_methods_produce_traces(self, method):
        config = Configuration("cmc", algorithm="lor", **FAST)
        polluted = build_polluted(config, seed=0)
        trace = run_method(method, polluted, config, rng=0)
        assert trace.total_spent <= config.budget + 1e-9

    def test_ac_runs_with_convex_model(self):
        # AC cleans records across all features, so one step can cost
        # several units — give it a budget that affords a few steps.
        config = Configuration("cmc", algorithm="lir", n_rows=180, budget=15.0,
                               step=0.03, rr_repeats=2)
        polluted = build_polluted(config, seed=0)
        trace = run_method("ac", polluted, config, rng=0)
        assert trace.records
        assert trace.total_spent <= 15.0 + 1e-9

    def test_unknown_method_raises(self):
        config = Configuration("cmc", **FAST)
        polluted = build_polluted(config, seed=0)
        with pytest.raises(ValueError, match="unknown method"):
            run_method("magic", polluted, config)


class TestRunConfiguration:
    def test_rr_repeats_counted(self):
        config = Configuration("cmc", algorithm="lor", **FAST)
        results = run_configuration(config, methods=("comet", "rr"), n_settings=1)
        assert len(results["comet"]) == 1
        assert len(results["rr"]) == config.rr_repeats

    def test_multiple_settings(self):
        config = Configuration("cmc", algorithm="lor", **{**FAST, "rr_repeats": 1})
        results = run_configuration(config, methods=("rr",), n_settings=2)
        assert len(results["rr"]) == 2


class TestComparison:
    def test_average_curve(self):
        traces = [
            _trace(0.5, [(1.0, 0.6)]),
            _trace(0.5, [(1.0, 0.8)]),
        ]
        curve = average_curve(traces, [0, 1])
        assert curve.tolist() == [0.5, pytest.approx(0.7)]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_curve([], [0, 1])

    def test_f1_advantage_positive_when_comet_leads(self):
        comet = [_trace(0.5, [(1.0, 0.7)])]
        rr = [_trace(0.5, [(1.0, 0.6)])]
        adv = f1_advantage(comet, rr, [0, 1, 2])
        assert adv.tolist() == [0.0, pytest.approx(0.1), pytest.approx(0.1)]

    def test_curves_exclude_reference(self):
        results = {
            "comet": [_trace(0.5, [(1.0, 0.7)])],
            "rr": [_trace(0.5, [(1.0, 0.6)])],
        }
        curves = f1_advantage_curves(results, [0, 1])
        assert set(curves) == {"rr"}

    def test_missing_reference_raises(self):
        with pytest.raises(ValueError):
            f1_advantage_curves({"rr": []}, [0, 1])


class TestAggregate:
    def _runs(self):
        comet = [_trace(0.5, [(1.0, 0.7)])]
        rr = [_trace(0.5, [(1.0, 0.6)])]
        return [
            {"algorithm": "svm", "error_type": "missing", "budget": 2.0,
             "comet": comet, "baselines": {"rr": rr}},
            {"algorithm": "knn", "error_type": "noise", "budget": 2.0,
             "comet": comet, "baselines": {"rr": comet}},
        ]

    def test_advantage_by_algorithm(self):
        table = advantage_by_algorithm(self._runs())
        assert table["svm"] == pytest.approx(0.1)
        assert table["knn"] == pytest.approx(0.0)

    def test_advantage_by_error_type(self):
        table = advantage_by_error_type(self._runs())
        assert table["missing"] == pytest.approx(0.1)
        assert table["noise"] == pytest.approx(0.0)

    def test_estimator_mae(self):
        trace = _trace(0.5, [(1.0, 0.60), (2.0, 0.70)], predicted=[0.65, 0.71])
        assert estimator_mae([trace]) == pytest.approx((0.05 + 0.01) / 2)

    def test_estimator_mae_empty_nan(self):
        assert np.isnan(estimator_mae([_trace(0.5, [(1.0, 0.6)])]))

    def test_first_iteration_runtime_positive(self):
        config = Configuration("cmc", algorithm="lor", **FAST)
        assert first_iteration_runtime(config) > 0.0


class TestReporting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "0.5000" in text and "20" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_series_samples_grid(self):
        text = format_series("rr", np.arange(11.0), np.linspace(0, 1, 11), every=5)
        assert text.count(":") == 3  # budgets 0, 5, 10

    def test_format_series_shape_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [0, 1], [0.0])


class TestParallelRunner:
    """The runner's backend fan-out must return exactly what serial runs do."""

    def test_run_configuration_process_matches_serial(self):
        config = Configuration("cmc", algorithm="lor", **FAST)
        serial = run_configuration(
            config, methods=("comet", "rr"), n_settings=2, seed=0
        )
        processed = run_configuration(
            config, methods=("comet", "rr"), n_settings=2, seed=0,
            backend="process", jobs=2,
        )
        assert serial.keys() == processed.keys()
        for method in serial:
            assert serial[method] == processed[method]

    def test_run_configurations_fans_out_in_input_order(self):
        from repro.experiments import run_configurations

        configs = [
            Configuration("cmc", algorithm="lor", **FAST),
            Configuration("eeg", algorithm="lor", **FAST),
        ]
        batched = run_configurations(
            configs, methods=("rr",), n_settings=1, seed=1, backend="process", jobs=2
        )
        assert len(batched) == 2
        for config, results in zip(configs, batched):
            expected = run_configuration(config, methods=("rr",), n_settings=1, seed=1)
            assert results == expected
