"""Focused white-box tests of COMET session internals: buffer replay,
fallback paths, budget boundaries, and candidate bookkeeping."""

import numpy as np
import pytest

from repro import Comet, CometConfig, load_dataset, pollute


@pytest.fixture()
def comet():
    dataset = load_dataset("cmc", n_rows=200, rng=0)
    polluted = pollute(dataset, error_types=["missing"], rng=2)
    return Comet(
        polluted,
        algorithm="lor",
        error_types=["missing"],
        budget=6.0,
        config=CometConfig(step=0.03),
        rng=0,
    )


class TestBufferReplay:
    def test_perform_cleaning_from_buffer_is_free(self, comet):
        feature = comet.state.dataset.feature_names[0]
        action = comet.state.cleaner.clean_step(comet.state.dataset, feature, "missing")
        comet.state.cleaner.revert(comet.state.dataset, action)
        comet.state.buffer.put(action)
        spent_before = comet.state.budget.spent
        cost = comet._perform_cleaning(feature, "missing", None)
        assert cost == 0.0
        assert comet.state.budget.spent == spent_before
        assert (feature, "missing") not in comet.state.buffer

    def test_perform_cleaning_without_buffer_charges(self, comet):
        feature = comet.state.dataset.feature_names[0]
        cost = comet._perform_cleaning(feature, "missing", None)
        assert cost == 1.0
        assert comet.state.budget.spent == 1.0


class TestFallbackPath:
    def test_fallback_without_predictions_cleans_something(self, comet):
        baseline = comet.measure_baseline()
        record = comet._fallback([], baseline)
        assert record is not None
        assert record.used_fallback
        assert record.predicted_f1 is None

    def test_fallback_with_empty_actives_returns_none(self, comet):
        comet.state.active = []
        assert comet._fallback([], 0.5) is None

    def test_fallback_respects_budget(self, comet):
        comet.state.budget.charge(6.0)  # exhaust
        baseline = 0.5
        assert comet._fallback([], baseline) is None


class TestBudgetBoundaries:
    def test_iterate_empty_when_exhausted(self, comet):
        comet.state.budget.charge(6.0)
        assert comet.iterate() == []

    def test_iterate_empty_when_no_candidates(self, comet):
        comet.state.active = []
        assert comet.iterate() == []

    def test_is_finished_transitions(self, comet):
        assert not comet.is_finished
        comet.state.budget.charge(6.0)
        assert comet.is_finished


class TestCandidateBookkeeping:
    def test_accept_removes_fully_clean_pair(self, comet):
        feature = comet.state.dataset.feature_names[0]
        pair = (feature, "missing")
        # Force-clean every dirty cell of the pair directly.
        rows_train = comet.state.dataset.dirty_train.rows(feature, "missing")
        rows_test = comet.state.dataset.dirty_test.rows(feature, "missing")
        comet.state.dataset.dirty_train.remove(feature, "missing", rows_train)
        comet.state.dataset.dirty_test.remove(feature, "missing", rows_test)
        comet._accept(pair, 0.6)
        assert pair not in comet.open_candidates()

    def test_accept_keeps_still_dirty_pair(self, comet):
        feature = comet.state.dataset.dirty_train.features()[0]
        pair = (feature, "missing")
        comet._accept(pair, 0.6)
        assert pair in comet.open_candidates()

    def test_open_candidates_is_a_copy(self, comet):
        candidates = comet.open_candidates()
        candidates.clear()
        assert comet.open_candidates()


class TestRecommendConsistency:
    def test_recommend_empty_when_clean(self, comet):
        comet.state.active = []
        assert comet.recommend(k=2) == []

    def test_recommend_scores_descending_and_positive_gain(self, comet):
        baseline = comet.measure_baseline()
        for candidate in comet.recommend(k=5):
            assert candidate.gain > 0.0
            assert candidate.prediction.predicted_f1 > baseline
