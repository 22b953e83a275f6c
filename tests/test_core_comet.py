"""Integration tests for the full COMET session loop."""

import numpy as np
import pytest

from repro import Comet, CometConfig, load_dataset, paper_cost_model, pollute


def _session(budget=8.0, algorithm="lor", error_types=("missing",), seed=1, **kwargs):
    dataset = load_dataset("cmc", n_rows=250, rng=0)
    polluted = pollute(dataset, error_types=list(error_types), rng=seed)
    config = kwargs.pop("config", CometConfig(step=0.02))
    return Comet(
        polluted,
        algorithm=algorithm,
        error_types=list(error_types),
        budget=budget,
        config=config,
        rng=0,
        **kwargs,
    )


class TestSessionBasics:
    def test_run_produces_trace(self):
        comet = _session()
        trace = comet.run()
        assert trace.records
        assert 0.0 <= trace.initial_f1 <= 1.0
        assert trace.total_spent <= 8.0 + 1e-9

    def test_budget_spent_monotone(self):
        trace = _session().run()
        spent = [r.budget_spent for r in trace.records]
        assert spent == sorted(spent)

    def test_input_dataset_not_mutated(self):
        dataset = load_dataset("cmc", n_rows=250, rng=0)
        polluted = pollute(dataset, error_types=["missing"], rng=1)
        before = polluted.train.copy()
        dirty_before = polluted.dirty_train.total()
        Comet(polluted, algorithm="lor", error_types=["missing"], budget=4,
              config=CometConfig(step=0.02), rng=0).run()
        assert polluted.train == before
        assert polluted.dirty_train.total() == dirty_before

    def test_cleaning_actually_removes_dirt(self):
        comet = _session(budget=12.0)
        before = comet.state.dataset.dirty_train.total()
        comet.run()
        assert comet.state.dataset.dirty_train.total() < before

    def test_step_returns_none_when_budget_exhausted(self):
        comet = _session(budget=2.0)
        comet.run()
        assert comet.step() is None
        assert comet.is_finished

    def test_records_have_consistent_f1_chain(self):
        trace = _session().run()
        for prev, nxt in zip(trace.records, trace.records[1:]):
            assert nxt.f1_before == pytest.approx(prev.f1_after)

    def test_deterministic_given_seed(self):
        a = _session(seed=3).run()
        b = _session(seed=3).run()
        assert [r.feature for r in a.records] == [r.feature for r in b.records]
        assert [r.f1_after for r in a.records] == [r.f1_after for r in b.records]


class TestCleanTermination:
    def test_session_stops_when_everything_clean(self):
        dataset = load_dataset("titanic", n_rows=150, rng=0)
        polluted = pollute(
            dataset, error_types=["missing"], rng=2, scale=0.02, max_level=0.04
        )
        comet = Comet(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=500.0,
            config=CometConfig(step=0.05),
            rng=0,
        )
        trace = comet.run()
        assert comet.open_candidates() == []
        assert comet.state.dataset.dirty_train.is_clean()
        assert trace.total_spent < 500.0

    def test_marked_clean_pairs_leave_candidates(self):
        dataset = load_dataset("cmc", n_rows=200, rng=0)
        polluted = pollute(
            dataset, error_types=["missing"], rng=1, scale=0.03, max_level=0.06
        )
        comet = Comet(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=30.0,
            config=CometConfig(step=0.05),
            rng=0,
        )
        n_before = len(comet.open_candidates())
        comet.run()
        assert len(comet.open_candidates()) < n_before


class TestMultiError:
    def test_multi_error_with_paper_costs(self):
        dataset = load_dataset("cmc", n_rows=250, rng=0)
        polluted = pollute(
            dataset,
            error_types=["missing", "noise", "categorical", "scaling"],
            rng=4,
        )
        comet = Comet(
            polluted,
            algorithm="lor",
            error_types=["missing", "noise", "categorical", "scaling"],
            budget=10.0,
            cost_model=paper_cost_model(),
            config=CometConfig(step=0.02),
            rng=0,
        )
        trace = comet.run()
        assert trace.records
        errors_used = {r.error for r in trace.records}
        assert errors_used <= {"missing", "noise", "categorical", "scaling"}

    def test_inapplicable_pairs_excluded(self):
        dataset = load_dataset("eeg", n_rows=150, rng=0)  # numeric only
        polluted = pollute(dataset, error_types=["missing"], rng=5)
        comet = Comet(
            polluted,
            algorithm="lor",
            error_types=["categorical", "missing"],
            budget=4.0,
            config=CometConfig(step=0.05),
            rng=0,
        )
        assert all(e == "missing" for __, e in comet.open_candidates())


class TestRevertAndBuffer:
    def test_reverting_restores_budget_is_not_refunded(self):
        """Reverted cleanings still consume budget (the Cleaner worked)."""
        comet = _session(budget=8.0)
        trace = comet.run()
        total_cost_of_kept = sum(r.cost for r in trace.records)
        assert comet.state.budget.spent >= total_cost_of_kept - 1e-9

    def test_revert_ablation_never_rejects(self):
        comet = _session(config=CometConfig(step=0.02, revert_on_decrease=False))
        trace = comet.run()
        assert all(not r.rejected for r in trace.records)


class TestHyperparameterSearch:
    def test_search_changes_model_params_validly(self):
        comet = _session(
            algorithm="knn",
            config=CometConfig(step=0.02, search_iterations=4),
            budget=2.0,
        )
        assert comet.state.model.n_neighbors in (3, 5, 7, 9, 11, 15)
        trace = comet.run()
        assert trace.records


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm", ["svm", "knn", "gb", "lir", "lor"])
    def test_every_algorithm_completes_one_step(self, algorithm):
        comet = _session(budget=1.0, algorithm=algorithm)
        record = comet.step()
        assert record is not None
        assert 0.0 <= record.f1_after <= 1.0
