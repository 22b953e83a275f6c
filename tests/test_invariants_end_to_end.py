"""End-to-end invariants that must hold for any finished cleaning run."""

import numpy as np
import pytest

from repro import Comet, CometConfig, load_dataset, paper_cost_model, pollute
from repro.baselines import CometLight, FeatureImportanceCleaner, RandomCleaner
from repro.experiments import Configuration, run_configuration


@pytest.fixture(scope="module")
def finished_comet():
    dataset = load_dataset("cmc", n_rows=200, rng=0)
    polluted = pollute(
        dataset, error_types=["missing", "noise"], rng=11
    )
    comet = Comet(
        polluted,
        algorithm="lor",
        error_types=["missing", "noise"],
        budget=8.0,
        cost_model=paper_cost_model(),
        config=CometConfig(step=0.03),
        rng=0,
    )
    trace = comet.run()
    return comet, trace, polluted


class TestCometRunInvariants:
    def test_spending_covers_kept_records(self, finished_comet):
        comet, trace, __ = finished_comet
        kept = sum(r.cost for r in trace.records)
        assert comet.state.budget.spent >= kept - 1e-9
        assert comet.state.budget.spent <= comet.state.budget.total + 1e-9

    def test_budget_spent_never_decreases_between_records(self, finished_comet):
        __, trace, ___ = finished_comet
        spends = [r.budget_spent for r in trace.records]
        assert all(b >= a - 1e-12 for a, b in zip(spends, spends[1:]))

    def test_spend_jumps_account_for_reverted_attempts(self, finished_comet):
        """The gap in budget_spent between consecutive records must be at
        least the accepted record's own cost (reverted attempts only add)."""
        __, trace, ___ = finished_comet
        prev = 0.0
        for record in trace.records:
            assert record.budget_spent >= prev + record.cost - 1e-9
            prev = record.budget_spent

    def test_dirty_cells_never_increase(self, finished_comet):
        comet, __, polluted = finished_comet
        assert comet.state.dataset.dirty_train.total() <= polluted.dirty_train.total()
        assert comet.state.dataset.dirty_test.total() <= polluted.dirty_test.total()

    def test_all_scores_in_unit_interval(self, finished_comet):
        __, trace, ___ = finished_comet
        for record in trace.records:
            assert 0.0 <= record.f1_before <= 1.0
            assert 0.0 <= record.f1_after <= 1.0

    def test_clean_columns_match_ground_truth_where_marked(self, finished_comet):
        """Every (feature, error) the Cleaner marked clean has no remaining
        bookkeeping dirt."""
        comet, __, ___ = finished_comet
        open_pairs = set(comet.open_candidates())
        for feature in comet.state.dataset.feature_names:
            for error in ("missing", "noise"):
                if (feature, error) not in open_pairs:
                    assert comet.state.dataset.dirty_train.dirty_count(feature, error) == 0


class TestCrossMethodInvariants:
    @pytest.mark.parametrize("cls", [RandomCleaner, FeatureImportanceCleaner])
    def test_baselines_share_budget_semantics(self, cls):
        dataset = load_dataset("eeg", n_rows=160, rng=0)
        polluted = pollute(dataset, error_types=["missing"], rng=12)
        strategy = cls(
            polluted, algorithm="lor", error_types=["missing"],
            budget=4.0, step=0.04, rng=0,
        )
        trace = strategy.run()
        assert strategy.budget.spent == pytest.approx(sum(r.cost for r in trace.records))

    def test_comet_light_spending_includes_reverts(self):
        dataset = load_dataset("cmc", n_rows=180, rng=0)
        polluted = pollute(dataset, error_types=["missing"], rng=13)
        strategy = CometLight(
            polluted, algorithm="lor", error_types=["missing"],
            budget=5.0, step=0.03, rng=0, config=CometConfig(step=0.03),
        )
        trace = strategy.run()
        kept = sum(r.cost for r in trace.records)
        assert strategy.state.budget.spent >= kept - 1e-9


class TestReproducibility:
    def test_run_configuration_fully_deterministic(self):
        config = Configuration(
            "cmc", algorithm="lor", error_types=("missing",),
            n_rows=160, budget=3.0, step=0.04, rr_repeats=1,
        )
        a = run_configuration(config, methods=("comet", "rr"), n_settings=1, seed=5)
        b = run_configuration(config, methods=("comet", "rr"), n_settings=1, seed=5)
        for method in ("comet", "rr"):
            grid = np.arange(0.0, 4.0)
            assert a[method][0].f1_at(grid).tolist() == b[method][0].f1_at(grid).tolist()

    def test_different_seeds_differ(self):
        config = Configuration(
            "cmc", algorithm="lor", error_types=("missing",),
            n_rows=160, budget=3.0, step=0.04, rr_repeats=1,
        )
        a = run_configuration(config, methods=("comet",), n_settings=1, seed=1)
        b = run_configuration(config, methods=("comet",), n_settings=1, seed=2)
        assert (
            a["comet"][0].initial_f1 != b["comet"][0].initial_f1
            or [r.feature for r in a["comet"][0].records]
            != [r.feature for r in b["comet"][0].records]
        )
