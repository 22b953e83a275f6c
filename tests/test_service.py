"""Tests for the multi-session serving façade (``repro.service``).

Covers the programmatic registry, every JSON verb, the JSON-lines stream
loop, and the concurrency contract: sessions served concurrently over
one shared backend yield exactly the traces isolated runs produce.
"""

import io
import json
import threading

import pytest

from repro.core import Comet, CometConfig
from repro.datasets import load_dataset, pollute
from repro.service import CometService, serve_stream


def _polluted(seed=7):
    dataset = load_dataset("cmc", n_rows=130)
    return pollute(dataset, error_types=["missing"], rng=seed)


def _create_kwargs(budget=3.0, rng=0):
    return dict(
        algorithm="lor",
        error_types=["missing"],
        budget=budget,
        config=CometConfig(step=0.05),
        rng=rng,
    )


_PARAMS = {
    "dataset": "cmc",
    "algorithm": "lor",
    "errors": ["missing"],
    "budget": 2,
    "rows": 130,
    "step": 0.05,
    "seed": 0,
}


class TestRegistry:
    def test_create_and_lookup(self):
        with CometService() as service:
            session = service.create_session("a", _polluted(), **_create_kwargs())
            assert service.session("a") is session
            assert service.names() == ["a"]

    def test_duplicate_name_rejected(self):
        with CometService() as service:
            service.create_session("a", _polluted(), **_create_kwargs())
            with pytest.raises(ValueError, match="already exists"):
                service.create_session("a", _polluted(), **_create_kwargs())

    def test_unknown_name_raises(self):
        with CometService() as service:
            with pytest.raises(KeyError):
                service.session("ghost")
            with pytest.raises(KeyError):
                service.close_session("ghost")

    def test_close_session_keeps_backend(self):
        with CometService() as service:
            service.create_session("a", _polluted(), **_create_kwargs())
            service.close_session("a")
            assert service.names() == []
            # The shared backend is still usable for new sessions.
            session = service.create_session("b", _polluted(), **_create_kwargs())
            assert session.backend is service.backend

    def test_sessions_share_one_backend(self):
        with CometService(backend="process", jobs=2) as service:
            a = service.create_session("a", _polluted(), **_create_kwargs())
            b = service.create_session("b", _polluted(), **_create_kwargs())
            assert a.backend is service.backend
            assert b.backend is service.backend


class TestJsonHandlers:
    def test_create_status_step_run_close(self, tmp_path):
        with CometService() as service:
            created = service.handle(
                {"action": "create", "name": "s", "params": _PARAMS}
            )
            assert created["ok"], created
            assert created["result"]["open_candidates"] > 0

            status = service.handle({"action": "status", "name": "s"})
            assert status["result"]["iteration"] == 0

            stepped = service.handle({"action": "step", "name": "s"})
            assert stepped["ok"]
            assert stepped["result"]["record"]["iteration"] == 1

            ran = service.handle({"action": "run", "name": "s"})
            assert ran["ok"]
            assert ran["result"]["finished"]
            trace = ran["result"]["trace"]
            # The step record stayed part of the session's single trace.
            assert trace["records"][0]["iteration"] == 1
            assert json.dumps(ran) is not None  # fully JSON-serializable

            closed = service.handle({"action": "close", "name": "s"})
            assert closed["ok"] and closed["result"]["closed"] == "s"

    def test_recommend_handler(self):
        with CometService() as service:
            service.handle({"action": "create", "name": "s", "params": _PARAMS})
            response = service.handle({"action": "recommend", "name": "s", "k": 2})
            assert response["ok"]
            for candidate in response["result"]["candidates"]:
                assert set(candidate) == {
                    "feature", "error", "predicted_f1", "uncertainty",
                    "gain", "cost", "score",
                }

    def test_checkpoint_and_reload(self, tmp_path):
        path = tmp_path / "svc.ckpt"
        with CometService() as service:
            service.handle({"action": "create", "name": "s", "params": _PARAMS})
            service.handle({"action": "step", "name": "s"})
            saved = service.handle(
                {"action": "checkpoint", "name": "s", "path": str(path)}
            )
            assert saved["ok"]
            reloaded = service.handle(
                {"action": "create", "name": "s2", "checkpoint": str(path)}
            )
            assert reloaded["ok"]
            assert reloaded["result"]["iteration"] == 1

    def test_status_without_name_lists_sessions(self):
        with CometService() as service:
            service.handle({"action": "create", "name": "s", "params": _PARAMS})
            response = service.handle({"action": "status"})
            assert response["result"]["sessions"] == ["s"]
            assert response["result"]["backend"] == "serial"

    def test_errors_become_structured_responses(self):
        with CometService() as service:
            unknown = service.handle({"action": "warp"})
            assert not unknown["ok"]
            assert unknown["error"]["type"] == "ValueError"
            assert "unknown action" in unknown["error"]["message"]
            ghost = service.handle({"action": "step", "name": "ghost"})
            assert not ghost["ok"] and ghost["error"]["type"] == "KeyError"
            assert not service.handle({"action": "create"})["ok"]
            response = service.handle({"action": "create", "name": "x", "params": {}})
            assert not response["ok"]
            assert "dataset" in response["error"]["message"]


class TestHardening:
    def test_checkpoint_io_disabled(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        with CometService(checkpoint_io=False) as service:
            service.handle({"action": "create", "name": "s", "params": _PARAMS})
            saved = service.handle(
                {"action": "checkpoint", "name": "s", "path": path}
            )
            assert not saved["ok"] and "disabled" in saved["error"]["message"]
            loaded = service.handle(
                {"action": "create", "name": "s2", "checkpoint": path}
            )
            assert not loaded["ok"] and "disabled" in loaded["error"]["message"]

    def test_shutdown_rejects_new_sessions(self):
        service = CometService()
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.create_session("late", _polluted(), **_create_kwargs())


class TestServeStream:
    def test_json_lines_roundtrip(self):
        requests = [
            {"action": "create", "name": "s", "params": _PARAMS},
            {"action": "status", "name": "s"},
            "not json at all",
            {"action": "shutdown"},
        ]
        lines = []
        for request in requests:
            lines.append(
                request if isinstance(request, str) else json.dumps(request)
            )
        out = io.StringIO()
        with CometService() as service:
            handled = serve_stream(service, io.StringIO("\n".join(lines)), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert handled == 4
        assert responses[0]["ok"] and responses[1]["ok"]
        assert not responses[2]["ok"]
        assert responses[2]["error"]["code"] == "bad_frame"
        assert "invalid JSON" in responses[2]["error"]["message"]
        assert responses[3]["result"] == {"shutdown": True}


class TestConcurrentSessions:
    """Concurrently served sessions equal isolated runs, trace for trace."""

    def test_concurrent_equal_isolated(self):
        seeds = [(11, 0), (23, 1)]
        isolated = [
            Comet(_polluted(seed=ds), **_create_kwargs(rng=rs)).run()
            for ds, rs in seeds
        ]
        with CometService(backend="process", jobs=2) as service:
            sessions = [
                service.create_session(
                    f"s{i}", _polluted(seed=ds), **_create_kwargs(rng=rs)
                )
                for i, (ds, rs) in enumerate(seeds)
            ]
            traces = [None] * len(sessions)
            errors = []

            def drive(i):
                try:
                    traces[i] = sessions[i].run()
                except Exception as exc:  # pragma: no cover — surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(len(sessions))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert traces[0] == isolated[0]
        assert traces[1] == isolated[1]
