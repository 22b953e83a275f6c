"""Unit tests for cost models, budget, cleaner, and buffer."""

import numpy as np
import pytest

from repro.cleaning import (
    Budget,
    CleaningBuffer,
    ConstantCost,
    CostModel,
    GroundTruthCleaner,
    LinearCost,
    OneShotCost,
    paper_cost_model,
    uniform_cost_model,
)
from repro.errors import MissingValues, PrePollution
from repro.frame import DataFrame


class TestCostFunctions:
    def test_constant(self):
        fn = ConstantCost(1.0)
        assert [fn.cost(k) for k in range(3)] == [1.0, 1.0, 1.0]

    def test_one_shot(self):
        fn = OneShotCost(2.0, 0.0)
        assert [fn.cost(k) for k in range(3)] == [2.0, 0.0, 0.0]

    def test_linear(self):
        fn = LinearCost(1.0, 1.0)
        assert [fn.cost(k) for k in range(4)] == [1.0, 2.0, 3.0, 4.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantCost(0.0)
        with pytest.raises(ValueError):
            OneShotCost(0.0)
        with pytest.raises(ValueError):
            LinearCost(0.0)


class TestCostModel:
    def test_paper_assignment(self):
        model = paper_cost_model()
        assert model.next_cost("f", "categorical") == 1.0
        assert model.next_cost("f", "scaling") == 1.0
        assert model.next_cost("f", "missing") == 2.0
        assert model.next_cost("f", "noise") == 1.0

    def test_history_per_feature_error_pair(self):
        model = paper_cost_model()
        assert model.record_step("f", "noise") == 1.0
        assert model.record_step("f", "noise") == 2.0
        # Different feature: independent history.
        assert model.next_cost("g", "noise") == 1.0

    def test_one_shot_drops_to_zero(self):
        model = paper_cost_model()
        assert model.record_step("f", "missing") == 2.0
        assert model.next_cost("f", "missing") == 0.0

    def test_uniform_model_everything_costs_one(self):
        model = uniform_cost_model()
        for error in ("missing", "noise", "categorical", "scaling"):
            assert model.record_step("f", error) == 1.0

    def test_copy_independent_history(self):
        model = paper_cost_model()
        model.record_step("f", "noise")
        dup = model.copy()
        dup.record_step("f", "noise")
        assert model.steps_done("f", "noise") == 1
        assert dup.steps_done("f", "noise") == 2


class TestBudget:
    def test_charge_and_remaining(self):
        budget = Budget(10.0)
        budget.charge(3.0)
        assert budget.remaining == 7.0

    def test_overcharge_raises(self):
        budget = Budget(2.0)
        with pytest.raises(ValueError, match="insufficient"):
            budget.charge(3.0)

    def test_negative_charge_raises(self):
        with pytest.raises(ValueError):
            Budget(5.0).charge(-1.0)

    def test_exhausted(self):
        budget = Budget(1.0)
        assert not budget.exhausted(1.0)
        budget.charge(1.0)
        assert budget.exhausted(1.0)
        assert budget.exhausted()

    def test_zero_cost_affordable_when_budget_left(self):
        budget = Budget(1.0)
        assert budget.can_afford(0.0)

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            Budget(0.0)


def _polluted_dataset(n_train=100, n_test=60, level=0.10, seed=0):
    rng = np.random.default_rng(seed)
    def make(n, s):
        r = np.random.default_rng(s)
        return DataFrame(
            {
                "num": r.normal(size=n),
                "other": r.normal(size=n),
                "label": r.integers(0, 2, size=n),
            }
        )
    pre = PrePollution(MissingValues(), rng=seed)
    return pre.apply(
        make(n_train, seed + 1),
        make(n_test, seed + 2),
        label="label",
        levels={"num": level, "other": 0.0},
    )


class TestGroundTruthCleaner:
    def test_one_step_restores_step_fraction(self):
        dataset = _polluted_dataset()
        cleaner = GroundTruthCleaner(step=0.05, rng=0)
        before_train = dataset.train["num"].n_missing
        before_test = dataset.test["num"].n_missing
        cleaner.clean_step(dataset, "num", "missing")
        assert dataset.train["num"].n_missing == before_train - 5
        assert dataset.test["num"].n_missing == before_test - 3
        assert dataset.dirty_train.dirty_count("num") == before_train - 5

    def test_restored_values_match_ground_truth(self):
        dataset = _polluted_dataset()
        cleaner = GroundTruthCleaner(step=1.0, rng=0)  # clean everything
        cleaner.clean_step(dataset, "num", "missing")
        assert dataset.train["num"] == dataset.clean_train["num"]
        assert dataset.test["num"] == dataset.clean_test["num"]
        assert dataset.dirty_train.is_clean("num")

    def test_priority_rows_cleaned_first(self):
        dataset = _polluted_dataset(level=0.20)
        dirty = dataset.dirty_train.rows("num", "missing")
        target = dirty[:2]
        cleaner = GroundTruthCleaner(step=0.02, rng=0)  # 2 cells per step
        cleaner.clean_step(dataset, "num", "missing", priority_train_rows=target)
        assert not dataset.train["num"].missing_mask[target].any()

    def test_cleaning_beyond_dirt_touches_clean_cells_harmlessly(self):
        dataset = _polluted_dataset(level=0.01)
        cleaner = GroundTruthCleaner(step=0.10, rng=0)
        action = cleaner.clean_step(dataset, "num", "missing")
        assert len(action.train_rows) == 10  # full step charged
        assert dataset.dirty_train.is_clean("num")
        assert dataset.train["num"] == dataset.clean_train["num"]

    def test_revert_restores_exact_state(self):
        dataset = _polluted_dataset()
        snapshot_train = dataset.train["num"].copy()
        dirty_before = dataset.dirty_train.dirty_count("num")
        cleaner = GroundTruthCleaner(step=0.05, rng=0)
        action = cleaner.clean_step(dataset, "num", "missing")
        cleaner.revert(dataset, action)
        assert dataset.train["num"] == snapshot_train
        assert dataset.dirty_train.dirty_count("num") == dirty_before

    def test_apply_replays_buffered_step(self):
        dataset = _polluted_dataset()
        cleaner = GroundTruthCleaner(step=0.05, rng=0)
        action = cleaner.clean_step(dataset, "num", "missing")
        after_train = dataset.train["num"].copy()
        cleaner.revert(dataset, action)
        cleaner.apply(dataset, action)
        assert dataset.train["num"] == after_train

    def test_invalid_step_raises(self):
        with pytest.raises(ValueError):
            GroundTruthCleaner(step=0.0)


class TestCleaningBuffer:
    def test_put_pop_fifo(self):
        dataset = _polluted_dataset()
        cleaner = GroundTruthCleaner(step=0.02, rng=0)
        a1 = cleaner.clean_step(dataset, "num", "missing")
        a2 = cleaner.clean_step(dataset, "num", "missing")
        buffer = CleaningBuffer()
        buffer.put(a1)
        buffer.put(a2)
        assert len(buffer) == 2
        assert ("num", "missing") in buffer
        assert buffer.pop("num", "missing") is a1
        assert buffer.pop("num", "missing") is a2
        assert buffer.pop("num", "missing") is None
        assert ("num", "missing") not in buffer

    def test_pop_missing_key_returns_none(self):
        assert CleaningBuffer().pop("x", "missing") is None


class TestCleaningBufferReplay:
    """Replay semantics through the Comet session (§3.3, step D): a
    buffered re-cleaning is free, never double-charges the budget, and a
    revert → replay → accept cycle lands on the originally cleaned state."""

    def _session(self):
        from repro.core import Comet, CometConfig

        return Comet(
            _polluted_dataset(),
            algorithm="lor",
            error_types=["missing"],
            budget=10.0,
            config=CometConfig(step=0.05),
            rng=0,
        )

    def test_replay_costs_zero_and_never_double_charges(self):
        comet = self._session()
        pair = ("num", "missing")
        first_cost = comet._perform_cleaning("num", "missing", None)
        assert first_cost > 0.0
        spent_after_first = comet.state.budget.spent
        cleaned_train = comet.state.dataset.train["num"].copy()
        comet._revert_last(pair)
        assert pair in comet.state.buffer
        assert comet.state.budget.spent == spent_after_first  # revert refunds nothing
        replay_cost = comet._perform_cleaning("num", "missing", None)
        assert replay_cost == 0.0
        assert comet.state.budget.spent == spent_after_first  # no double charge
        assert comet.state.dataset.train["num"] == cleaned_train
        assert pair not in comet.state.buffer  # the buffered step was consumed

    def test_cost_model_step_history_not_advanced_by_replay(self):
        comet = self._session()
        comet._perform_cleaning("num", "missing", None)
        assert comet.state.cost_model.steps_done("num", "missing") == 1
        comet._revert_last(("num", "missing"))
        comet._perform_cleaning("num", "missing", None)
        # The replay re-applied recorded work; it must not register a new
        # cleaning step against the cost model.
        assert comet.state.cost_model.steps_done("num", "missing") == 1

    def test_revert_replay_accept_cycle(self):
        comet = self._session()
        pair = ("num", "missing")
        baseline = comet._baseline()
        comet._perform_cleaning("num", "missing", None)
        cleaned_train = comet.state.dataset.train["num"].copy()
        dirty_after_clean = comet.state.dataset.dirty_train.dirty_count("num", "missing")
        spent = comet.state.budget.spent
        comet._revert_last(pair)
        # The revert restores the pre-cleaning state without spoiling the
        # memoized baseline.
        assert comet._baseline() == baseline
        comet._perform_cleaning("num", "missing", None)
        f1_after = comet.measure_baseline()
        comet._accept(pair, f1_after)
        assert comet.state.dataset.train["num"] == cleaned_train
        assert comet.state.dataset.dirty_train.dirty_count("num", "missing") == dirty_after_clean
        assert comet.state.budget.spent == spent
        assert comet._baseline() == f1_after
        assert len(comet.state.buffer) == 0
