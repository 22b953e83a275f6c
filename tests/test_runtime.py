"""Tests for the execution-engine layer (``repro.runtime``).

Covers the backend registry (selection by name, serial auto-fallback),
ordered ``map`` semantics and lifecycle of every backend, picklable
fit-score tasks, and the headline determinism guarantee: a COMET session
produces a bit-identical :class:`CleaningTrace` on every backend.
"""

import pickle

import numpy as np
import pytest

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
    ThreadBackend,
    available_backends,
    make_backend,
    register_backend,
    run_fit_score_task,
)


def _square(x):
    return x * x


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"serial", "thread", "process"} <= set(available_backends())

    def test_make_backend_by_name(self):
        backend = make_backend("thread", jobs=4)
        assert isinstance(backend, ThreadBackend)
        assert backend.workers == 4

    def test_single_worker_falls_back_to_serial(self):
        for name in ("serial", "thread", "process"):
            assert isinstance(make_backend(name, jobs=1), SerialBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu", jobs=2)

    def test_instance_passthrough(self):
        backend = ThreadBackend(2)
        assert make_backend(backend, jobs=8) is backend

    def test_custom_registration(self):
        register_backend("custom-serial", lambda jobs: SerialBackend())
        assert "custom-serial" in available_backends()
        assert isinstance(make_backend("custom-serial", jobs=3), SerialBackend)

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ValueError):
            ThreadBackend(0)


class TestBackendMap:
    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ThreadBackend(3), lambda: ProcessBackend(2)],
        ids=["serial", "thread", "process"],
    )
    def test_map_preserves_task_order(self, backend_factory):
        with backend_factory() as backend:
            assert backend.map(_square, range(25)) == [x * x for x in range(25)]

    def test_empty_task_list(self):
        with ThreadBackend(2) as backend:
            assert backend.map(_square, []) == []

    def test_pool_restarts_after_shutdown(self):
        backend = ThreadBackend(2)
        assert backend.map(_square, [1, 2]) == [1, 4]
        backend.shutdown()
        assert backend.map(_square, [3]) == [9]
        backend.shutdown()

    def test_context_manager_lifecycle(self):
        backend = ThreadBackend(2)
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


class TestBackendSubmit:
    """``submit`` is the async primitive the session scheduler builds on."""

    def test_serial_submit_resolves_inline(self):
        backend = SerialBackend()
        future = backend.submit(_square, 6)
        assert future.done() and future.result() == 36

    def test_serial_submit_captures_exceptions(self):
        future = SerialBackend().submit(_square, "nope")
        assert future.done()
        with pytest.raises(TypeError):
            future.result()

    def test_thread_submit_runs_off_thread(self):
        import threading

        caller = threading.get_ident()
        with ThreadBackend(2) as backend:
            future = backend.submit(threading.get_ident)
            assert future.result(timeout=30) != caller

    def test_degraded_process_submit_resolves_inline(self, monkeypatch):
        def deny(self):
            raise PermissionError("fork forbidden")

        monkeypatch.setattr(ProcessBackend, "_make_pool", deny)
        backend = ProcessBackend(2)
        with pytest.warns(RuntimeWarning, match="running tasks inline"):
            future = backend.submit(_square, 5)
        assert future.result() == 25
        # Stickily degraded: the next submit stays inline, no new warning.
        assert backend.submit(_square, 6).result() == 36


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
        # Serial and thread runs splice every polluted state from the
        # sweep's base featurization; process workers receive no base
        # and featurize in full. All three must agree bit for bit.
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
        threaded = run(ThreadBackend(4))
        with ProcessBackend(2) as process_backend:
            processed = run(process_backend)
        for s, t, p in zip(serial, threaded, processed):
            assert s.predicted_f1 == t.predicted_f1 == p.predicted_f1
            assert s.uncertainty == t.uncertainty == p.uncertainty
            assert np.array_equal(s.scores, t.scores)
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
        # A pickled task leaves its base behind and scores the same.
        for task in tasks[:2]:
            revived = pickle.loads(pickle.dumps(task))
            assert task.base is base and revived.base is None
            assert run_fit_score_task(revived) == run_fit_score_task(task)

    def test_base_is_built_only_for_in_process_backends(self, polluted):
        # Pickling drops the base, so a backend that ships its tasks
        # elsewhere gets none; thread tasks share a single one.
        class Shipping(ExecutionBackend):
            def map(self, fn, tasks):
                self.bases = [task.base for task in tasks]
                return [fn(task) for task in tasks]

        class Threads(ThreadBackend):
            def map(self, fn, tasks):
                self.bases = [task.base for task in tasks]
                return super().map(fn, tasks)

        candidates = [(f, MissingValues()) for f in polluted.feature_names[:2]]
        shipping, threads = Shipping(), Threads(2)
        with threads:
            for backend in (shipping, threads):
                self._estimator().estimate_many(
                    polluted.train, polluted.test, candidates, 0.8, backend=backend
                )
        assert shipping.bases and set(shipping.bases) == {None}
        assert threads.bases and len({id(b) for b in threads.bases}) == 1
        assert threads.bases[0] is not None


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

    def test_thread_trace_bit_identical_to_serial(self, polluted):
        serial = self._trace(polluted, "serial", 1)
        threaded = self._trace(polluted, "thread", 4)
        assert serial == threaded

    def test_process_trace_bit_identical_to_serial(self, polluted):
        serial = self._trace(polluted, "serial", 1)
        processed = self._trace(polluted, "process", 2)
        assert serial == processed

    def test_backend_attribute_resolution(self, polluted):
        comet = Comet(polluted, algorithm="lor", backend="thread", jobs=4)
        assert isinstance(comet.backend, ThreadBackend)
        fallback = Comet(polluted, algorithm="lor", backend="thread", jobs=1)
        assert isinstance(fallback.backend, SerialBackend)
