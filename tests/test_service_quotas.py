"""Tests for per-session quotas and the async session scheduler.

The verb layer enforces :class:`~repro.service.SessionQuotas` (max
concurrent sessions per client, max iterations, max wall-clock per
session) and surfaces exhaustion as structured errors on a clean
iteration boundary: ``status`` keeps answering and ``checkpoint`` keeps
producing resumable checkpoints afterwards. Iteration verbs route
through the bounded :class:`~repro.service.SessionScheduler`, which
serializes work per session and supports ``wait: false`` + ``result``.
"""

import threading
import time

import pytest

from repro.service import (
    CometService,
    QuotaExceededError,
    SessionBusyError,
    SessionQuotas,
    SessionScheduler,
)
from repro.session import CleaningSession

_PARAMS = {
    "dataset": "cmc",
    "algorithm": "lor",
    "errors": ["missing"],
    "budget": 4,
    "rows": 130,
    "step": 0.05,
    "seed": 0,
}


def _params(seed=0, **overrides):
    return {**_PARAMS, "seed": seed, **overrides}


def _small_polluted(seed=7):
    from repro.datasets import load_dataset, pollute

    return pollute(
        load_dataset("cmc", n_rows=130), error_types=["missing"], rng=seed
    )


class TestQuotaValidation:
    def test_non_positive_limits_rejected(self):
        for field in ("max_iterations", "max_seconds", "max_sessions"):
            with pytest.raises(ValueError, match="positive"):
                SessionQuotas(**{field: 0})

    def test_to_dict_is_json_friendly(self):
        quotas = SessionQuotas(max_iterations=7, max_seconds=1.5)
        assert quotas.to_dict() == {
            "max_iterations": 7,
            "max_seconds": 1.5,
            "max_sessions": None,
        }


class TestMaxSessions:
    def test_cap_is_per_client(self):
        quotas = SessionQuotas(max_sessions=1)
        with CometService(quotas=quotas) as service:
            assert service.handle(
                {"action": "create", "name": "a", "params": _params(0)},
                client="alice",
            )["ok"]
            refused = service.handle(
                {"action": "create", "name": "b", "params": _params(1)},
                client="alice",
            )
            assert not refused["ok"]
            error = refused["error"]
            assert error["type"] == "QuotaExceededError"
            assert error["code"] == "quota_exceeded"
            assert error["details"]["quota"] == "max_sessions"
            assert error["details"]["client"] == "alice"
            # A different client still has its own allowance.
            assert service.handle(
                {"action": "create", "name": "c", "params": _params(2)},
                client="bob",
            )["ok"]

    def test_closing_frees_the_slot(self):
        quotas = SessionQuotas(max_sessions=1)
        with CometService(quotas=quotas) as service:
            service.handle({"action": "create", "name": "a", "params": _params()})
            assert not service.handle(
                {"action": "create", "name": "b", "params": _params(1)}
            )["ok"]
            assert service.handle({"action": "close", "name": "a"})["ok"]
            assert service.handle(
                {"action": "create", "name": "b", "params": _params(1)}
            )["ok"]

    def test_racing_creates_cannot_overshoot_the_cap(self, monkeypatch):
        # An in-flight build must already hold a quota slot: with a cap
        # of 1 and a deliberately slow session constructor, the second
        # create is refused *while the first is still building*.
        original = CleaningSession.create

        def slow_create(*args, **kwargs):
            time.sleep(0.4)
            return original(*args, **kwargs)

        monkeypatch.setattr(CleaningSession, "create", slow_create)
        quotas = SessionQuotas(max_sessions=1)
        outcomes = {}
        with CometService(quotas=quotas) as service:
            polluted = _small_polluted()

            def create(name):
                try:
                    service.create_session(
                        name, polluted.copy(), algorithm="lor",
                        error_types=["missing"], budget=1.0, rng=0,
                    )
                    outcomes[name] = "created"
                except QuotaExceededError:
                    outcomes[name] = "refused"

            first = threading.Thread(target=create, args=("a",))
            first.start()
            time.sleep(0.1)  # let "a" reserve and start its slow build
            create("b")
            first.join()
        assert outcomes == {"a": "created", "b": "refused"}

    def test_programmatic_create_enforced_too(self):
        quotas = SessionQuotas(max_sessions=1)
        with CometService(quotas=quotas) as service:
            service.handle({"action": "create", "name": "a", "params": _params()})
            with pytest.raises(QuotaExceededError):
                service.create_session(
                    "b", service.session("a").state.dataset.copy(),
                    algorithm="lor", budget=1.0, rng=0,
                )


class TestIterationQuotas:
    def test_run_stops_on_iteration_quota_then_status_and_checkpoint_work(
        self, tmp_path
    ):
        quotas = SessionQuotas(max_iterations=1)
        with CometService(quotas=quotas) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            ran = service.handle({"action": "run", "name": "s"})
            assert not ran["ok"]
            error = ran["error"]
            assert error["code"] == "quota_exceeded"
            assert error["details"] == {
                "quota": "max_iterations", "limit": 1, "used": 1, "name": "s",
            }
            # Exhaustion landed on an iteration boundary: the session is
            # still inspectable and still checkpointable.
            status = service.handle({"action": "status", "name": "s"})
            assert status["ok"]
            assert status["result"]["iteration"] == 1
            assert status["result"]["running"] is False
            path = tmp_path / "quota.ckpt"
            saved = service.handle(
                {"action": "checkpoint", "name": "s", "path": str(path)}
            )
            assert saved["ok"]
            # The checkpoint resumes: one recorded iteration, then more.
            resumed = CleaningSession.load(path)
            assert resumed.state.iteration == 1
            assert resumed.iterate()

    def test_step_honors_iteration_quota(self):
        quotas = SessionQuotas(max_iterations=1)
        with CometService(quotas=quotas) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            assert service.handle({"action": "step", "name": "s"})["ok"]
            refused = service.handle({"action": "step", "name": "s"})
            assert not refused["ok"]
            assert refused["error"]["details"]["quota"] == "max_iterations"

    def test_wall_clock_quota_exhausts_mid_run(self):
        quotas = SessionQuotas(max_seconds=1e-9)
        with CometService(quotas=quotas) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            # The first sweep is allowed (nothing spent yet), the second
            # finds the allowance burned.
            ran = service.handle({"action": "run", "name": "s"})
            assert not ran["ok"]
            details = ran["error"]["details"]
            assert details["quota"] == "max_seconds"
            assert details["used"] > 0
            status = service.handle({"action": "status", "name": "s"})
            assert status["ok"] and status["result"]["iteration"] == 1
            assert status["result"]["elapsed_seconds"] > 0

    def test_recommend_is_quota_accounted(self):
        # A recommendation pays a full E1 sweep, so it must accrue
        # wall-clock against the session and honor the limits — a
        # recommend loop cannot burn unbounded CPU on a capped server.
        quotas = SessionQuotas(max_seconds=1e-9)
        with CometService(quotas=quotas) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            first = service.handle({"action": "recommend", "name": "s", "k": 1})
            assert first["ok"]  # nothing spent yet when it was gated
            status = service.handle({"action": "status", "name": "s"})
            assert status["result"]["elapsed_seconds"] > 0
            second = service.handle({"action": "recommend", "name": "s", "k": 1})
            assert not second["ok"]
            assert second["error"]["details"]["quota"] == "max_seconds"

    def test_async_run_reports_quota_error_via_result(self):
        quotas = SessionQuotas(max_iterations=1)
        with CometService(quotas=quotas) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            scheduled = service.handle(
                {"action": "run", "name": "s", "wait": False}
            )
            assert scheduled["ok"] and scheduled["result"]["scheduled"]
            outcome = service.handle({"action": "result", "name": "s"})
            assert not outcome["ok"]
            assert outcome["error"]["code"] == "quota_exceeded"
            # The failure was collected; asking again finds no job.
            again = service.handle({"action": "result", "name": "s"})
            assert not again["ok"] and again["error"]["type"] == "KeyError"


class TestScheduler:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            CometService(workers=0)

    def test_jobs_run_off_the_callers_thread(self):
        # Even one worker runs jobs on its own thread, or "wait": false
        # could not return before the job finished.
        scheduler = SessionScheduler(1)
        try:
            job = scheduler.submit("s", threading.get_ident)
            assert scheduler.collect("s", job) != threading.get_ident()
        finally:
            scheduler.shutdown()

    def test_submit_after_shutdown_raises_and_starts_no_thread(self):
        # A verb that passed its session lookup before the service shut
        # down must get an error, not a fresh pool nothing would reclaim.
        scheduler = SessionScheduler(2)
        scheduler.submit("warm", lambda: None).result(timeout=30)
        scheduler.shutdown()
        before = set(threading.enumerate())
        ran = []
        with pytest.raises(RuntimeError, match="service is shut down"):
            scheduler.submit("s", lambda: ran.append(True))
        assert set(threading.enumerate()) <= before
        assert not ran and scheduler.job("s") is None

    def test_single_worker_still_dispatches_async(self):
        with CometService(workers=1) as service:
            assert service.scheduler.workers == 1
            service.handle({"action": "create", "name": "s", "params": _params()})
            scheduled = service.handle(
                {"action": "step", "name": "s", "wait": False}
            )
            assert scheduled["ok"] and scheduled["result"]["scheduled"]
            outcome = service.handle({"action": "result", "name": "s"})
            assert outcome["ok"] and outcome["result"]["record"]

    def test_recommend_respects_busy_session(self):
        with CometService(workers=2) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            service.handle({"action": "run", "name": "s", "wait": False})
            try:
                busy = service.handle({"action": "recommend", "name": "s"})
            finally:
                outcome = service.handle({"action": "result", "name": "s"})
            assert not busy["ok"]
            assert busy["error"]["code"] == "session_busy"
            assert outcome["ok"]

    def test_wait_false_then_result(self):
        with CometService(workers=2) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            scheduled = service.handle(
                {"action": "run", "name": "s", "wait": False}
            )
            assert scheduled["ok"]
            assert scheduled["result"] == {"name": "s", "scheduled": True}
            outcome = service.handle({"action": "result", "name": "s"})
            assert outcome["ok"]
            assert outcome["result"]["ready"] and outcome["result"]["finished"]
            assert outcome["result"]["trace"]["records"]

    def test_result_without_job_is_an_error(self):
        with CometService() as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            response = service.handle({"action": "result", "name": "s"})
            assert not response["ok"]
            assert "no scheduled" in response["error"]["message"]

    def test_concurrent_verbs_on_one_session_report_busy(self):
        with CometService(workers=2) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            service.handle({"action": "run", "name": "s", "wait": False})
            try:
                # The run is still in flight when these verbs arrive (a
                # cmc run takes seconds; the verbs arrive within ms).
                busy = service.handle({"action": "step", "name": "s"})
                closed = service.handle({"action": "close", "name": "s"})
            finally:
                outcome = service.handle({"action": "result", "name": "s"})
            assert not busy["ok"]
            assert busy["error"]["code"] == "session_busy"
            assert not closed["ok"]
            assert closed["error"]["code"] == "session_busy"
            assert outcome["ok"] and outcome["result"]["ready"]

    def test_nonblocking_result_polls(self):
        with CometService(workers=2) as service:
            service.handle({"action": "create", "name": "s", "params": _params()})
            service.handle({"action": "run", "name": "s", "wait": False})
            polled = service.handle(
                {"action": "result", "name": "s", "wait": False}
            )
            assert polled["ok"]
            # Either it is still running (the common case) or already done;
            # both are valid poll answers with the ready discriminator.
            if not polled["result"]["ready"]:
                assert polled["result"] == {"name": "s", "ready": False}
                final = service.handle({"action": "result", "name": "s"})
                assert final["ok"] and final["result"]["ready"]

    def test_status_answers_while_other_session_runs(self):
        with CometService(workers=2) as service:
            service.handle({"action": "create", "name": "a", "params": _params(0)})
            service.handle({"action": "create", "name": "b", "params": _params(1)})
            service.handle({"action": "run", "name": "a", "wait": False})
            started = time.perf_counter()
            status = service.handle({"action": "status", "name": "b"})
            elapsed = time.perf_counter() - started
            assert status["ok"] and status["result"]["running"] is False
            assert elapsed < 1.0
            status_a = service.handle({"action": "status", "name": "a"})
            assert status_a["ok"]  # answers at an iteration boundary
            outcome = service.handle({"action": "result", "name": "a"})
            assert outcome["ok"] and outcome["result"]["finished"]

    def test_scheduler_bounds_concurrency_but_loses_no_work(self):
        # More concurrent runs than workers: the excess queue and all
        # finish with their own traces.
        names = [f"s{i}" for i in range(3)]
        with CometService(workers=2) as service:
            for i, name in enumerate(names):
                service.handle(
                    {"action": "create", "name": name, "params": _params(i)}
                )
            for name in names:
                assert service.handle(
                    {"action": "run", "name": name, "wait": False}
                )["ok"]
            outcomes = {
                name: service.handle({"action": "result", "name": name})
                for name in names
            }
            for name in names:
                assert outcomes[name]["ok"], outcomes[name]
                assert outcomes[name]["result"]["finished"]

    def test_shutdown_drains_inflight_jobs(self):
        service = CometService(workers=2)
        service.handle({"action": "create", "name": "s", "params": _params()})
        service.handle({"action": "run", "name": "s", "wait": False})
        service.shutdown()  # must not raise, must wait for the sweep
        assert service.handle({"action": "status"})["result"]["sessions"] == []
