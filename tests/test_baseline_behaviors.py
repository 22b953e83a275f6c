"""Behavioral corner tests for the baselines: CL's buffer/fallback, FIR
with multiple error types, RandomSearch deduplication."""

import numpy as np
import pytest

from repro import load_dataset, pollute
from repro.baselines import CometLight, FeatureImportanceCleaner
from repro.core import CometConfig
from repro.ml import RandomSearch, make_classifier


@pytest.fixture(scope="module")
def polluted():
    dataset = load_dataset("cmc", n_rows=200, rng=0)
    return pollute(dataset, error_types=["missing", "categorical"], rng=4)


class TestCometLightCorners:
    def test_multi_error_candidates(self, polluted):
        strategy = CometLight(
            polluted,
            algorithm="lor",
            error_types=["missing", "categorical"],
            budget=4.0,
            step=0.03,
            rng=0,
            config=CometConfig(step=0.03),
        )
        errors = {e for __, e in strategy.open_candidates()}
        assert errors == {"missing", "categorical"}
        trace = strategy.run()
        assert trace.total_spent <= 4.0 + 1e-9

    def test_ranking_covers_all_candidates(self, polluted):
        strategy = CometLight(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=2.0,
            step=0.03,
            rng=0,
            config=CometConfig(step=0.03),
        )
        strategy.step()
        assert set(strategy._ranking) == set(
            strategy.open_candidates()
        ) | {p for p in strategy._ranking}

    def test_budget_exhaustion_stops(self, polluted):
        strategy = CometLight(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=1.0,
            step=0.03,
            rng=0,
            config=CometConfig(step=0.03),
        )
        strategy.run()
        assert strategy.step() is None


    def test_not_checkpointable(self, polluted, tmp_path):
        """The one-shot ranking is not session state, so CL refuses the
        surfaces that would lose it instead of resuming as another run."""
        strategy = CometLight(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=2.0,
            step=0.03,
            rng=0,
            config=CometConfig(step=0.03),
        )
        strategy.step()
        with pytest.raises(NotImplementedError):
            strategy.save(tmp_path / "cl.ckpt")
        assert not (tmp_path / "cl.ckpt").exists()
        with pytest.raises(NotImplementedError):
            CometLight.load(tmp_path / "cl.ckpt")
        with pytest.raises(NotImplementedError):
            strategy.recommend()

    def test_always_reverts_one_step_per_iteration(self):
        polluted = pollute(
            load_dataset("cmc", n_rows=160, rng=0), error_types=["missing"], rng=3
        )

        def run(config):
            return CometLight(
                polluted,
                algorithm="lor",
                error_types=["missing"],
                budget=6.0,
                step=0.03,
                rng=0,
                config=config,
            ).run()

        trace = run(CometConfig(step=0.03))
        assert any(r.rejected for r in trace.records)  # a decrease was reverted
        assert all(r.predicted_f1 is None for r in trace.records)
        permissive = CometConfig(step=0.03, revert_on_decrease=False, batch_size=3)
        assert run(permissive).to_dict() == trace.to_dict()


class TestFirMultiError:
    def test_feature_grouping_spans_error_types(self, polluted):
        strategy = FeatureImportanceCleaner(
            polluted,
            algorithm="lor",
            error_types=["missing", "categorical"],
            budget=8.0,
            step=0.03,
            rng=0,
        )
        trace = strategy.run()
        assert trace.records
        # FIR must finish one feature (all its error types) before the next.
        current = trace.records[0].feature
        seen = {current}
        for record in trace.records[1:]:
            if record.feature != current:
                assert record.feature not in seen, "FIR bounced back to an old feature"
                current = record.feature
                seen.add(current)


class TestRandomSearchDedup:
    def test_duplicate_candidates_skipped(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] > 0).astype(int)
        calls = []

        class CountingKnn(type(make_classifier("knn"))):
            def fit(self, X, y):
                calls.append(self.n_neighbors)
                return super().fit(X, y)

        search = RandomSearch(
            CountingKnn(n_neighbors=5),
            {"n_neighbors": [3]},  # only one possible candidate
            n_iter=10,
            rng=0,
        )
        search.fit(X, y)
        # 1 candidate fit + 1 final refit on all data.
        assert len(calls) == 2
