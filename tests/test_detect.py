"""Tests for the detection & repair substrate and the algorithmic Cleaner."""

import numpy as np
import pytest

from repro import Comet, CometConfig, load_dataset, pollute
from repro.detect import (
    AlgorithmicCleaner,
    CategoricalShiftDetector,
    ConditionalModeRepairer,
    MeanRepairer,
    MedianRepairer,
    MissingValueDetector,
    ModeRepairer,
    NoiseDetector,
    ScalingDetector,
    detector_for,
    discover_fds,
    repairer_for,
)
from repro.errors import GaussianNoise, MissingValues, PrePollution, Scaling
from repro.frame import DataFrame


def _frame_with(error, level=0.15, n=200, seed=0):
    rng = np.random.default_rng(seed)
    clean = DataFrame(
        {
            "num": rng.normal(50.0, 5.0, size=n),
            "cat": rng.choice(["a", "b", "c"], size=n),
            "label": rng.integers(0, 2, size=n),
        }
    )
    pre = PrePollution([error], rng=seed)
    dataset = pre.apply(clean, clean.copy(), label="label",
                        levels={"num": level if not error.name == "categorical" else 0.0,
                                "cat": level if error.name == "categorical" else 0.0})
    return dataset


class TestFdDiscovery:
    def test_exact_fd_found(self):
        # city → country is an exact FD here.
        frame = DataFrame(
            {
                "city": ["paris", "lyon", "berlin", "paris", "berlin"] * 4,
                "country": ["fr", "fr", "de", "fr", "de"] * 4,
            }
        )
        fds = discover_fds(frame, min_confidence=0.99, min_group_size=2)
        assert any(fd.lhs == "city" and fd.rhs == "country" for fd in fds)

    def test_violations_located(self):
        rows = ["paris", "lyon", "berlin", "paris", "berlin"] * 4
        countries = ["fr", "fr", "de", "fr", "de"] * 4
        countries[2] = "fr"  # one shifted cell
        frame = DataFrame({"city": rows, "country": countries})
        fds = discover_fds(frame, min_confidence=0.9, min_group_size=2)
        fd = next(fd for fd in fds if fd.lhs == "city" and fd.rhs == "country")
        assert 2 in fd.violations(frame).tolist()

    def test_independent_columns_yield_nothing(self):
        rng = np.random.default_rng(0)
        frame = DataFrame(
            {
                "a": rng.choice(["x", "y", "z"], size=300),
                "b": rng.choice(["p", "q", "r"], size=300),
            }
        )
        assert discover_fds(frame, min_confidence=0.9) == []

    def test_invalid_confidence(self):
        frame = DataFrame({"a": ["x"], "b": ["y"]})
        with pytest.raises(ValueError):
            discover_fds(frame, min_confidence=0.0)


class TestDetectors:
    def test_missing_detector_exact(self):
        dataset = _frame_with(MissingValues())
        truth = set(dataset.dirty_train.rows("num", "missing").tolist())
        detection = MissingValueDetector().detect(dataset.train, "num")
        assert set(detection.rows.tolist()) == truth

    def test_scaling_detector_high_recall(self):
        dataset = _frame_with(Scaling())
        truth = set(dataset.dirty_train.rows("num", "scaling").tolist())
        detection = ScalingDetector().detect(dataset.train, "num")
        found = set(detection.rows.tolist())
        assert len(found & truth) / len(truth) > 0.9

    def test_noise_detector_finds_strong_outliers(self):
        dataset = _frame_with(GaussianNoise(sigma_min=5.0, sigma_max=5.0))
        truth = set(dataset.dirty_train.rows("num", "noise").tolist())
        detection = NoiseDetector().detect(dataset.train, "num")
        found = set(detection.rows.tolist())
        # Gaussian noise overlaps the clean distribution; strong outliers
        # must still be mostly genuine.
        assert found, "detector must flag something"
        assert len(found & truth) / len(found) > 0.6

    def test_detection_top_orders_by_score(self):
        dataset = _frame_with(Scaling())
        detection = ScalingDetector().detect(dataset.train, "num")
        assert (np.diff(detection.scores) <= 1e-12).all()
        assert len(detection.top(3)) <= 3

    def test_detector_for_unknown(self):
        with pytest.raises(ValueError, match="no detector"):
            detector_for("duplicates")

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ScalingDetector(threshold_decades=0.0)
        with pytest.raises(ValueError):
            NoiseDetector(z_threshold=0.0)

    def test_categorical_detector_uses_fds(self):
        rng = np.random.default_rng(1)
        n = 300
        group = rng.choice(["g1", "g2", "g3"], size=n)
        dependent = np.array(["d_" + g for g in group], dtype=object)
        frame = DataFrame({"dep": dependent, "group": group})
        # Shift 10 cells of "dep".
        shifted = rng.choice(n, size=10, replace=False)
        col = frame["dep"]
        col.set_values(shifted, ["d_g1" if col.values[i] != "d_g1" else "d_g2" for i in shifted])
        detection = CategoricalShiftDetector().detect(frame, "dep")
        found = set(detection.rows.tolist())
        assert len(found & set(shifted.tolist())) / len(shifted) > 0.8


class TestRepairers:
    def test_mean_repairer_uses_clean_bulk(self):
        frame = DataFrame({"x": [1.0, 2.0, 3.0, 1000.0]})
        values = MeanRepairer().repair(frame, "x", np.array([3]))
        assert values == [pytest.approx(2.0)]

    def test_median_repairer(self):
        frame = DataFrame({"x": [1.0, 2.0, 9.0, 1000.0]})
        values = MedianRepairer().repair(frame, "x", np.array([3]))
        assert values == [pytest.approx(2.0)]

    def test_mode_repairer(self):
        frame = DataFrame({"c": ["a", "a", "b", "z"]})
        values = ModeRepairer().repair(frame, "c", np.array([3]))
        assert values == ["a"]

    def test_conditional_mode_uses_correlated_column(self):
        frame = DataFrame(
            {
                "dep": ["d1", "d1", "d2", "d2", "WRONG"],
                "group": ["g1", "g1", "g2", "g2", "g2"],
            }
        )
        values = ConditionalModeRepairer(condition_on="group").repair(
            frame, "dep", np.array([4])
        )
        assert values == ["d2"]

    def test_kind_mismatch_raises(self):
        frame = DataFrame({"x": [1.0], "c": ["a"]})
        with pytest.raises(ValueError):
            MeanRepairer().repair(frame, "c", np.array([0]))
        with pytest.raises(ValueError):
            ModeRepairer().repair(frame, "x", np.array([0]))

    def test_repairer_for_mapping(self):
        assert isinstance(repairer_for("missing", True), MeanRepairer)
        assert isinstance(repairer_for("missing", False), ModeRepairer)
        assert isinstance(repairer_for("scaling", True), MedianRepairer)
        assert isinstance(repairer_for("categorical", False), ConditionalModeRepairer)
        with pytest.raises(ValueError):
            repairer_for("duplicates", True)

    def test_apply_returns_copy(self):
        frame = DataFrame({"x": [1.0, 2.0, 1000.0]})
        repaired = MedianRepairer().apply(frame, "x", np.array([2]))
        assert frame["x"].values[2] == 1000.0
        assert repaired["x"].values[2] == pytest.approx(1.5)


class TestAlgorithmicCleaner:
    def test_clean_step_repairs_detected_cells(self):
        dataset = _frame_with(MissingValues(), level=0.2)
        cleaner = AlgorithmicCleaner(step=0.05, rng=0)
        before = dataset.train["num"].n_missing
        action = cleaner.clean_step(dataset, "num", "missing")
        assert dataset.train["num"].n_missing == before - len(action.train_rows)
        assert len(action.train_rows) == 10  # 5% of 200

    def test_revert_roundtrip(self):
        dataset = _frame_with(MissingValues(), level=0.2)
        cleaner = AlgorithmicCleaner(step=0.05, rng=0)
        snapshot = dataset.train["num"].copy()
        dirty = dataset.dirty_train.dirty_count("num")
        action = cleaner.clean_step(dataset, "num", "missing")
        cleaner.revert(dataset, action)
        assert dataset.train["num"] == snapshot
        assert dataset.dirty_train.dirty_count("num") == dirty

    def test_dirty_bookkeeping_shrinks(self):
        dataset = _frame_with(Scaling(), level=0.2)
        cleaner = AlgorithmicCleaner(step=0.10, rng=0)
        before = dataset.dirty_train.dirty_count("num", "scaling")
        cleaner.clean_step(dataset, "num", "scaling")
        assert dataset.dirty_train.dirty_count("num", "scaling") < before

    def test_comet_with_algorithmic_cleaner(self):
        dataset = load_dataset("cmc", n_rows=200, rng=0)
        polluted = pollute(dataset, error_types=["missing"], rng=6)
        comet = Comet(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=5.0,
            config=CometConfig(step=0.03),
            rng=0,
            cleaner=AlgorithmicCleaner(step=0.03, rng=0),
        )
        trace = comet.run()
        assert trace.records
        assert comet.state.dataset.dirty_train.total() < polluted.dirty_train.total()

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            AlgorithmicCleaner(step=0.0)
