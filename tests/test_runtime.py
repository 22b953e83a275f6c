"""Tests for the execution-engine layer (``repro.runtime``).

Covers backend selection by name (with serial auto-fallback),
ordered ``map`` semantics and lifecycle of every backend, picklable
fit-score tasks, and the headline determinism guarantee: a COMET session
produces a bit-identical :class:`CleaningTrace` on every backend.
"""

import pickle

import numpy as np
import pytest

import repro.core.estimator as estimator_module
from repro.core import Comet, CometConfig, CometEstimator
from repro.datasets import load_dataset, pollute
from repro.errors import CategoricalShift, MissingValues
from repro.frame import DataFrame
from repro.ml import TabularModel, make_classifier
from repro.runtime import (
    ExecutionBackend,
    FitScoreTask,
    ProcessBackend,
    SerialBackend,
    available_backends,
    make_backend,
    run_fit_score_task,
)


def _square(x):
    return x * x


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"serial", "process", "distributed"} <= set(available_backends())

    def test_make_backend_by_name(self):
        backend = make_backend("process", jobs=4)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 4

    def test_single_worker_falls_back_to_serial(self):
        for name in ("serial", "process"):
            assert isinstance(make_backend(name, jobs=1), SerialBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu", jobs=2)

    def test_thread_backend_is_gone(self):
        # Two threads of the E1 sweep ran it slower than one on CPython,
        # so the thread pool was retired; its name is now unknown.
        assert available_backends() == ["distributed", "process", "serial"]
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            make_backend("thread", 2)
        assert "['distributed', 'process', 'serial']" in str(excinfo.value)

    def test_instance_passthrough(self):
        backend = ProcessBackend(2)
        assert make_backend(backend, jobs=8) is backend

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ValueError):
            ProcessBackend(0)


class TestBackendMap:
    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ProcessBackend(2)],
        ids=["serial", "process"],
    )
    def test_map_preserves_task_order(self, backend_factory):
        with backend_factory() as backend:
            assert backend.map(_square, range(25)) == [x * x for x in range(25)]

    def test_empty_task_list(self):
        with ProcessBackend(2) as backend:
            assert backend.map(_square, []) == []

    def test_pool_restarts_after_shutdown(self):
        backend = ProcessBackend(2)
        assert backend.map(_square, [1, 2]) == [1, 4]
        backend.shutdown()
        assert backend.map(_square, [3]) == [9]
        backend.shutdown()

    def test_context_manager_lifecycle(self):
        backend = ProcessBackend(2)
        with backend as entered:
            assert entered is backend
            assert backend._pool is not None
        assert backend._pool is None

    def test_process_backend_degrades_inline_when_spawning_denied(self, monkeypatch):
        def deny(self):
            raise PermissionError("fork forbidden")

        monkeypatch.setattr(ProcessBackend, "_make_pool", deny)
        backend = ProcessBackend(2)
        with pytest.warns(RuntimeWarning, match="running tasks inline"):
            assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert backend._pool is None


class TestFitScoreTask:
    @pytest.fixture
    def frames(self):
        rng = np.random.default_rng(0)
        n = 80
        frame = DataFrame(
            {
                "x": rng.normal(size=n),
                "y": (rng.normal(size=n) > 0).astype(int),
            }
        )
        return frame.take(range(60)), frame.take(range(60, n))

    def test_run_matches_tabular_model(self, frames):
        train, test = frames
        task = FitScoreTask(make_classifier("lor"), "y", train, test)
        expected = TabularModel(make_classifier("lor"), label="y").fit_score(
            train, test
        )
        assert run_fit_score_task(task) == expected

    def test_pickle_roundtrip(self, frames):
        train, test = frames
        task = FitScoreTask(
            make_classifier("lor"), "y", train, test, tag=("f", "missing", 0.05)
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.tag == task.tag
        assert run_fit_score_task(clone) == run_fit_score_task(task)


@pytest.fixture(scope="module")
def polluted():
    dataset = load_dataset("eeg", n_rows=120, rng=0)
    return pollute(dataset, error_types=["missing"], rng=2)


class TestEstimatorDispatch:
    def _estimator(self):
        return CometEstimator(
            make_classifier("lor"),
            label="label",
            config=CometConfig(step=0.05, n_pollution_steps=2, n_combinations=2),
            rng=11,
        )

    def test_estimate_many_matches_sequential_estimates(self, polluted):
        candidates = [(f, MissingValues()) for f in polluted.feature_names[:3]]
        batched = self._estimator().estimate_many(
            polluted.train, polluted.test, candidates, 0.8
        )
        # estimate_many consumes the RNG in candidate order — exactly the
        # draws a loop of estimate() calls on one estimator makes — so the
        # batched sweep must reproduce the sequential sweep bit for bit.
        sequential_estimator = self._estimator()
        sequential = [
            sequential_estimator.estimate(
                polluted.train, polluted.test, feature, error, 0.8
            )
            for feature, error in candidates
        ]
        for b, s in zip(batched, sequential):
            assert b.feature == s.feature
            assert np.array_equal(b.levels, s.levels)
            assert np.array_equal(b.scores, s.scores)
            assert b.predicted_f1 == s.predicted_f1
            assert np.array_equal(b.polluted_rows, s.polluted_rows)

    @staticmethod
    def _categorical_heavy():
        """Four categoricals, each with five categories held by one train
        cell apiece: shifting such a cell can drop its category and
        narrow the column's one-hot block."""
        rng = np.random.default_rng(5)
        n, n_train = 120, 90
        columns = {}
        for i in range(4):
            values = rng.choice(["a", "b", "c"], size=n).astype(object)
            rare = rng.choice(n_train, size=5, replace=False)
            values[rare] = [f"rare{j}" for j in range(5)]
            columns[f"c{i}"] = values
        columns["x"] = rng.normal(size=n)
        columns["label"] = ((columns["c0"] == "a") | (columns["x"] > 0.5)).astype(int)
        frame = DataFrame(columns)
        return frame.take(range(n_train)), frame.take(range(n_train, n))

    @pytest.mark.parametrize("error", ["missing", "categorical"])
    def test_backends_bit_identical_predictions(self, polluted, error):
        # Serial and process runs take one dispatch path: every task
        # splices its polluted state from the sweep's base, in the
        # parent or in a worker that unpickled its share.
        if error == "missing":
            train, test = polluted.train, polluted.test
            candidates = [(f, MissingValues()) for f in polluted.feature_names[:3]]
        else:
            train, test = self._categorical_heavy()
            candidates = [(f"c{i}", CategoricalShift()) for i in range(4)]

        def run(backend):
            return self._estimator().estimate_many(
                train, test, candidates, 0.8, backend=backend
            )

        serial = run(None)
        with ProcessBackend(2) as process_backend:
            processed = run(process_backend)
        for s, p in zip(serial, processed):
            assert s.predicted_f1 == p.predicted_f1
            assert s.uncertainty == p.uncertainty
            assert np.array_equal(s.scores, p.scores)
            assert np.array_equal(s.polluted_rows, p.polluted_rows)

        model = TabularModel(make_classifier("lor"), label="label")
        base = model.featurize(train, test)
        estimator = self._estimator()
        tasks = [
            task
            for feature, err in candidates
            for task in estimator.build_candidate_tasks(
                train, test, feature, err, base
            ).tasks
        ]
        if error == "categorical":
            # The input does what it is here for: some polluted state's
            # design matrix is narrower than the base's.
            width = base.train.design.matrix.shape[1]
            widths = {
                model.featurize(t.train, t.test).train.design.matrix.shape[1]
                for t in tasks
            }
            assert min(widths) < width
        # A pickled share keeps one base, shared by all its tasks, and
        # scores the same as the share it was pickled from.
        share = tasks[: len(tasks) // 2]
        revived = pickle.loads(pickle.dumps(share))
        assert len({id(task.base) for task in revived}) == 1
        assert revived[0].base is not None and revived[0].base is not base
        assert estimator_module._run_share(revived) == estimator_module._run_share(share)

    def test_one_contiguous_share_per_worker(self, polluted):
        # The backend receives exactly ``workers`` contiguous shares;
        # together they are the sweep, in order, on one base.
        class Recording(ExecutionBackend):
            def __init__(self, workers):
                self.workers = workers

            def map(self, fn, shares):
                self.shares = list(shares)
                return [fn(share) for share in self.shares]

        candidates = [(f, MissingValues()) for f in polluted.feature_names[:3]]
        reference = self._estimator()
        expected = [
            task
            for feature, error in candidates
            for task in reference.build_candidate_tasks(
                polluted.train, polluted.test, feature, error
            ).tasks
        ]
        serial = self._estimator().estimate_many(
            polluted.train, polluted.test, candidates, 0.8
        )
        for workers in (1, 2, 3):
            backend = Recording(workers)
            predictions = self._estimator().estimate_many(
                polluted.train, polluted.test, candidates, 0.8, backend=backend
            )
            assert len(backend.shares) == workers
            sizes = [len(share) for share in backend.shares]
            assert max(sizes) - min(sizes) <= 1
            shipped = [task for share in backend.shares for task in share]
            assert [t.tag for t in shipped] == [t.tag for t in expected]
            assert all(
                s.train == e.train and s.test == e.test
                for s, e in zip(shipped, expected)
            )
            assert len({id(task.base) for task in shipped}) == 1
            assert shipped[0].base is not None
            for p, s in zip(predictions, serial):
                assert np.array_equal(p.scores, s.scores)
                assert p.predicted_f1 == s.predicted_f1
        # An empty sweep maps no share, so a pooled backend ships nothing.
        backend = Recording(2)
        assert self._estimator().estimate_many(
            polluted.train, polluted.test, [], 0.8, backend=backend
        ) == []
        assert backend.shares == []


class TestCometDeterminism:
    def _trace(self, polluted, backend, jobs):
        with Comet(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=3.0,
            config=CometConfig(step=0.05),
            rng=123,
            backend=backend,
            jobs=jobs,
        ) as comet:
            return comet.run()

    def test_process_trace_bit_identical_to_serial(self, polluted):
        serial = self._trace(polluted, "serial", 1)
        processed = self._trace(polluted, "process", 2)
        assert serial == processed

    def test_backend_attribute_resolution(self, polluted):
        comet = Comet(polluted, algorithm="lor", backend="process", jobs=4)
        assert isinstance(comet.backend, ProcessBackend)
        fallback = Comet(polluted, algorithm="lor", backend="process", jobs=1)
        assert isinstance(fallback.backend, SerialBackend)
