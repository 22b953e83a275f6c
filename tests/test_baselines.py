"""Tests for the evaluation baselines: RR, FIR, CL, AC, Oracle."""

import numpy as np
import pytest

from repro import load_dataset, pollute
from repro.baselines import (
    ActiveClean,
    CometLight,
    FeatureImportanceCleaner,
    OracleCleaner,
    RandomCleaner,
)
from repro.core import CometConfig


@pytest.fixture(scope="module")
def polluted():
    dataset = load_dataset("cmc", n_rows=220, rng=0)
    return pollute(dataset, error_types=["missing"], rng=1)


def _make(cls, polluted, budget=6.0, **kwargs):
    return cls(
        polluted,
        algorithm="lor",
        error_types=["missing"],
        budget=budget,
        step=0.02,
        rng=0,
        **kwargs,
    )


class TestCommonBehaviour:
    @pytest.mark.parametrize(
        "cls", [RandomCleaner, FeatureImportanceCleaner, OracleCleaner, ActiveClean]
    )
    def test_run_respects_budget(self, cls, polluted):
        trace = _make(cls, polluted).run()
        assert trace.total_spent <= 6.0 + 1e-9
        assert trace.records

    @pytest.mark.parametrize(
        "cls", [RandomCleaner, FeatureImportanceCleaner, OracleCleaner, ActiveClean]
    )
    def test_input_not_mutated(self, cls, polluted):
        before = polluted.train.copy()
        _make(cls, polluted).run()
        assert polluted.train == before

    @pytest.mark.parametrize("cls", [RandomCleaner, FeatureImportanceCleaner])
    def test_cleaning_reduces_dirt(self, cls, polluted):
        strategy = _make(cls, polluted, budget=10.0)
        before = strategy.dataset.dirty_train.total()
        strategy.run()
        assert strategy.dataset.dirty_train.total() < before


    @pytest.mark.parametrize(
        "cls",
        [RandomCleaner, FeatureImportanceCleaner, OracleCleaner, ActiveClean, CometLight],
    )
    def test_empty_error_types_rejected(self, cls, polluted):
        with pytest.raises(ValueError, match="need at least one error type"):
            cls(polluted, algorithm="lor", error_types=[], budget=6.0, step=0.02, rng=0)


class TestRandomCleaner:
    def test_different_seeds_different_orders(self, polluted):
        a = RandomCleaner(polluted, algorithm="lor", error_types=["missing"],
                          budget=6.0, step=0.02, rng=1).run()
        b = RandomCleaner(polluted, algorithm="lor", error_types=["missing"],
                          budget=6.0, step=0.02, rng=2).run()
        assert [r.feature for r in a.records] != [r.feature for r in b.records]

    def test_only_open_candidates_selected(self, polluted):
        strategy = _make(RandomCleaner, polluted, budget=10.0)
        trace = strategy.run()
        valid = {f for f in strategy.dataset.feature_names}
        assert all(r.feature in valid for r in trace.records)


class TestFeatureImportance:
    def test_ranking_static_until_feature_clean(self, polluted):
        strategy = _make(FeatureImportanceCleaner, polluted, budget=8.0)
        trace = strategy.run()
        # FIR sticks with one feature until it is fully clean: the sequence
        # of features must be "grouped" (no A B A patterns) unless a feature
        # finished.
        seen = []
        for record in trace.records:
            if record.feature in seen and seen[-1] != record.feature:
                pytest.fail(f"FIR revisited {record.feature}: {[r.feature for r in trace.records]}")
            if record.feature not in seen:
                seen.append(record.feature)


class TestCometLight:
    def test_runs_and_respects_budget(self, polluted):
        trace = _make(CometLight, polluted, config=CometConfig(step=0.02)).run()
        assert trace.total_spent <= 6.0 + 1e-9
        assert trace.records

    def test_estimation_happens_once(self, polluted):
        strategy = _make(CometLight, polluted, budget=4.0, config=CometConfig(step=0.02))
        strategy.run()
        ranking_after_run = strategy._ranking
        assert ranking_after_run is not None  # computed once, retained


class TestOracle:
    def test_first_step_is_locally_optimal(self, polluted):
        """The Oracle's first accepted step must realize the best gain/cost
        among all candidates (by construction)."""
        strategy = _make(OracleCleaner, polluted, budget=1.0)
        record = strategy.step()
        assert record is not None

    def test_oracle_beats_random_on_average(self):
        dataset = load_dataset("eeg", n_rows=200, rng=0)
        gains_oracle, gains_random = [], []
        for seed in range(2):
            p = pollute(dataset, error_types=["missing"], rng=seed + 10)
            o = OracleCleaner(p, algorithm="lor", error_types=["missing"],
                              budget=5.0, step=0.03, rng=0).run()
            r = RandomCleaner(p, algorithm="lor", error_types=["missing"],
                              budget=5.0, step=0.03, rng=0).run()
            gains_oracle.append(o.final_f1 - o.initial_f1)
            gains_random.append(r.final_f1 - r.initial_f1)
        assert np.mean(gains_oracle) >= np.mean(gains_random) - 0.02


class TestActiveClean:
    def test_requires_convex_model(self, polluted):
        with pytest.raises(ValueError, match="convex"):
            ActiveClean(polluted, algorithm="knn", error_types=["missing"],
                        budget=5.0, step=0.02, rng=0)

    @pytest.mark.parametrize("algorithm", ["ac_svm", "lir", "lor"])
    def test_all_three_paper_models_run(self, polluted, algorithm):
        trace = ActiveClean(polluted, algorithm=algorithm, error_types=["missing"],
                            budget=5.0, step=0.02, rng=0).run()
        assert trace.records

    def test_record_cleaning_clears_whole_records(self, polluted):
        strategy = _make(ActiveClean, polluted, budget=30.0)
        strategy.run()
        # After substantial budget, the train dirt shrinks record-wise.
        assert strategy.dataset.dirty_train.total() < polluted.dirty_train.total()

    def test_multi_pair_steps_cost_more_than_one_unit(self):
        dataset = load_dataset("cmc", n_rows=220, rng=0)
        p = pollute(dataset, error_types=["missing"], rng=3, scale=0.3, max_level=0.4)
        strategy = ActiveClean(p, algorithm="lor", error_types=["missing"],
                               budget=20.0, step=0.02, rng=0)
        record = strategy.step()
        assert record is not None
        # Heavily polluted data: a record batch almost surely touches
        # several features at once.
        assert record.cost > 1.0
