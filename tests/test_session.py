"""Tests for the session protocol (``repro.session``).

The headline contract: a session checkpointed mid-run and resumed from
disk produces a trace *bit-identical* to an uninterrupted run — across
serial and pooled backends (extending the ``repro.runtime`` determinism
contract across restarts). Plus: versioned checkpoint envelopes, observer
hooks, state snapshots, and ``Comet`` being a session itself.
"""

import pickle

import numpy as np
import pytest

from repro.core import Comet, CometConfig
from repro.datasets import load_dataset, pollute
from repro.errors import MissingValues
from repro.runtime import SerialBackend
from repro.session import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointVersionError,
    CleaningSession,
    SessionObserver,
    SessionState,
)


def _polluted(rows=130, seed=7):
    dataset = load_dataset("cmc", n_rows=rows)
    return pollute(dataset, error_types=["missing"], rng=seed)


def _session(polluted, budget=4.0, rng=0, **kwargs):
    return CleaningSession.create(
        polluted,
        algorithm="lor",
        error_types=["missing"],
        budget=budget,
        config=CometConfig(step=0.05),
        rng=rng,
        **kwargs,
    )


@pytest.fixture(scope="module")
def polluted():
    return _polluted()


class TestSessionBasics:
    def test_run_returns_trace_and_finishes(self, polluted):
        session = _session(polluted)
        trace = session.run()
        assert session.is_finished
        assert trace is session.trace
        assert 0.0 <= trace.initial_f1 <= 1.0
        assert trace.records

    def test_step_appends_to_trace(self, polluted):
        session = _session(polluted)
        record = session.step()
        assert record is not None
        assert session.trace.records == [record]

    def test_create_matches_comet_facade(self, polluted):
        # The façade and the session protocol must consume RNG identically.
        direct = _session(polluted).run()
        via_comet = Comet(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=4.0,
            config=CometConfig(step=0.05),
            rng=0,
        ).run()
        assert direct == via_comet

    def test_state_snapshot(self, polluted):
        session = _session(polluted)
        status = session.status()
        assert status["iteration"] == 0
        assert status["budget_spent"] == 0.0
        assert not status["finished"]
        session.step()
        status = session.status()
        assert status["iteration"] == 1
        assert status["records"] == 1
        assert isinstance(session.state.rng_state, dict)

    def test_replaced_errors_drive_the_next_sweep(self, polluted):
        # The sweep resolves error names through ``state.errors`` every
        # time, so replacing the list on a live session takes effect.
        class SpyMissing(MissingValues):
            def __init__(self):
                self.calls = 0

            def corrupt(self, column, rows, rng):
                self.calls += 1
                return super().corrupt(column, rows, rng)

        session = _session(polluted)
        session.step()
        spy = SpyMissing()
        session.state.errors = [spy]
        session.step()
        assert spy.calls > 0

    def test_comet_is_a_session(self, polluted):
        comet = Comet(polluted, algorithm="lor", budget=2.0,
                      config=CometConfig(step=0.05), rng=0)
        assert isinstance(comet, CleaningSession)
        assert comet.state.budget.total == 2.0

    def test_comet_closes_injected_backend(self, polluted):
        class SpyBackend(SerialBackend):
            shutdowns = 0

            def shutdown(self):
                self.shutdowns += 1

        injected = SpyBackend()
        Comet(polluted, algorithm="lor", budget=2.0,
              config=CometConfig(step=0.05), rng=0, backend=injected).close()
        assert injected.shutdowns == 1
        # A plain session leaves an injected backend to its injector.
        _session(polluted, backend=injected).close()
        assert injected.shutdowns == 1


class TestCheckpointResume:
    """Save mid-run, load, finish → bit-identical to an uninterrupted run."""

    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("process", 2)])
    def test_roundtrip_bit_identical(self, polluted, tmp_path, backend, jobs):
        uninterrupted = _session(polluted, backend=backend, jobs=jobs)
        full = uninterrupted.run()
        uninterrupted.close()

        interrupted = _session(polluted, backend=backend, jobs=jobs)
        interrupted.step()
        interrupted.step()
        path = tmp_path / "session.ckpt"
        interrupted.save(path)
        interrupted.close()
        del interrupted

        resumed = CleaningSession.load(path, backend=backend, jobs=jobs)
        combined = resumed.run()
        resumed.close()
        assert combined == full

    def test_resume_across_backends(self, polluted, tmp_path):
        # A checkpoint written under one backend resumes identically under
        # another: the backend is engine-side, never part of the state.
        full = _session(polluted).run()
        interrupted = _session(polluted, backend="process", jobs=2)
        interrupted.step()
        path = tmp_path / "session.ckpt"
        interrupted.save(path)
        interrupted.close()
        resumed = CleaningSession.load(path, backend="serial")
        assert resumed.run() == full

    def test_comet_save_load(self, polluted, tmp_path):
        full = Comet(polluted, algorithm="lor", error_types=["missing"],
                     budget=4.0, config=CometConfig(step=0.05), rng=0).run()
        comet = Comet(polluted, algorithm="lor", error_types=["missing"],
                      budget=4.0, config=CometConfig(step=0.05), rng=0)
        comet.step()
        path = tmp_path / "comet.ckpt"
        comet.save(path)
        resumed = Comet.load(path)
        assert resumed.run() == full

    def test_comet_checkpoint_resumes_as_session(self, polluted, tmp_path):
        full = _session(polluted).run()
        comet = Comet(polluted, algorithm="lor", error_types=["missing"],
                      budget=4.0, config=CometConfig(step=0.05), rng=0)
        comet.step()
        path = tmp_path / "comet.ckpt"
        comet.save(path)
        resumed = CleaningSession.load(path)
        assert type(resumed) is CleaningSession
        assert resumed.run() == full

    def test_session_checkpoint_resumes_as_comet(self, polluted, tmp_path):
        full = _session(polluted).run()
        session = _session(polluted)
        session.step()
        path = tmp_path / "session.ckpt"
        session.save(path)
        resumed = Comet.load(path)
        assert isinstance(resumed, Comet)
        assert isinstance(resumed, CleaningSession)
        assert resumed.run() == full

    def test_checkpoint_preserves_progress(self, polluted, tmp_path):
        session = _session(polluted)
        session.step()
        path = tmp_path / "session.ckpt"
        session.save(path)
        resumed = CleaningSession.load(path)
        assert resumed.state.iteration == session.state.iteration
        assert resumed.state.budget.spent == session.state.budget.spent
        assert resumed.open_candidates() == session.open_candidates()
        assert resumed.trace == session.trace


class TestCheckpointEnvelope:
    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        with open(path, "wb") as fh:
            pickle.dump({"something": "else"}, fh)
        with pytest.raises(ValueError, match="not a repro session checkpoint"):
            SessionState.load(path)

    def test_future_version_rejected(self, polluted, tmp_path):
        session = _session(polluted)
        path = tmp_path / "session.ckpt"
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "format": CHECKPOINT_FORMAT,
                    "version": CHECKPOINT_VERSION + 1,
                    "state": session.state,
                },
                fh,
            )
        # The dedicated error carries both versions (attributes and
        # message) and stays a ValueError for existing callers.
        with pytest.raises(CheckpointVersionError) as excinfo:
            SessionState.load(path)
        error = excinfo.value
        assert isinstance(error, ValueError)
        assert error.found == CHECKPOINT_VERSION + 1
        assert error.supported == CHECKPOINT_VERSION
        assert str(CHECKPOINT_VERSION + 1) in str(error)
        assert str(CHECKPOINT_VERSION) in str(error)

    def test_versionless_envelope_rejected(self, polluted, tmp_path):
        session = _session(polluted)
        path = tmp_path / "session.ckpt"
        with open(path, "wb") as fh:
            pickle.dump(
                {"format": CHECKPOINT_FORMAT, "state": session.state}, fh
            )
        with pytest.raises(CheckpointVersionError) as excinfo:
            SessionState.load(path)
        assert excinfo.value.found is None


class _Recorder(SessionObserver):
    def __init__(self):
        self.iterations = []
        self.accepts = []
        self.reverts = []

    def on_iteration(self, session, records):
        self.iterations.append(list(records))

    def on_accept(self, session, record):
        self.accepts.append(record)

    def on_revert(self, session, feature, error):
        self.reverts.append((feature, error))


class TestObservers:
    def test_hooks_stream_progress(self, polluted):
        recorder = _Recorder()
        session = _session(polluted, observers=(recorder,))
        trace = session.run()
        # Every kept record was announced, in order, and each sweep fired
        # exactly one on_iteration call.
        assert recorder.accepts == trace.records
        assert sum(len(r) for r in recorder.iterations) == len(trace.records)
        # Reverted candidates show up in the records' rejected lists.
        rejected = [pair for r in trace.records for pair in r.rejected]
        assert recorder.reverts == rejected

    def test_add_remove_observer(self, polluted):
        recorder = _Recorder()
        session = _session(polluted)
        session.add_observer(recorder)
        session.step()
        seen = len(recorder.iterations)
        assert seen == 1
        session.remove_observer(recorder)
        session.step()
        assert len(recorder.iterations) == seen

    def test_observers_do_not_affect_trace(self, polluted):
        plain = _session(polluted).run()
        observed = _session(polluted, observers=(_Recorder(),)).run()
        assert plain == observed
