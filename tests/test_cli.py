"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "cmc"])
        assert args.methods == ["comet", "rr"]
        assert args.errors == ["missing"]
        assert args.budget == 10.0

    def test_run_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_run_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "cmc", "--methods", "alchemy"]
            )

    def test_recommend_k(self):
        args = build_parser().parse_args(
            ["recommend", "--dataset", "churn", "-k", "5"]
        )
        assert args.k == 5

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cmc" in out and "datasets" in out
        assert "comet" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--dataset", "cmc", "--algorithm", "lor",
            "--methods", "rr", "--budget", "2", "--rows", "150",
            "--step", "0.05",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RR" in out

    def test_recommend_small(self, capsys):
        code = main([
            "recommend", "--dataset", "cmc", "--algorithm", "lor",
            "--budget", "2", "--rows", "150", "--step", "0.05", "-k", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "current F1" in out or "no candidate" in out


class TestSessionCommands:
    def test_serve_parses_backend_flags(self):
        args = build_parser().parse_args(["serve", "--backend", "thread", "--jobs", "3"])
        assert args.command == "serve"
        assert args.backend == "thread" and args.jobs == 3

    def test_serve_defaults_to_stdio_without_quotas(self):
        args = build_parser().parse_args(["serve"])
        assert args.port is None and not args.http
        assert args.workers == 4
        assert args.max_sessions is None
        assert args.max_iterations is None
        assert args.max_seconds is None

    def test_serve_parses_network_and_quota_flags(self):
        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "8765", "--http",
            "--workers", "8", "--max-sessions", "4",
            "--max-iterations", "100", "--max-seconds", "30.5",
        ])
        assert args.host == "0.0.0.0" and args.port == 8765 and args.http
        assert args.workers == 8 and args.max_sessions == 4
        assert args.max_iterations == 100 and args.max_seconds == 30.5

    def test_serve_rejects_non_positive_workers_and_quotas(self):
        for flags in (
            ["--workers", "0"],
            ["--workers", "-2"],
            ["--max-sessions", "0"],
            ["--max-iterations", "-1"],
            ["--max-seconds", "0"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", *flags])

    def test_serve_http_requires_port(self, capsys):
        from repro.cli import _cmd_serve

        args = build_parser().parse_args(["serve", "--http"])
        assert _cmd_serve(args) == 2
        assert "--http requires --port" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume"])

    def test_resume_parses(self):
        args = build_parser().parse_args(
            ["resume", "--checkpoint", "x.ckpt", "--backend", "process", "--jobs", "2"]
        )
        assert args.checkpoint == "x.ckpt"
        assert args.backend == "process" and args.jobs == 2

    def test_serve_stream_roundtrip(self, capsys):
        import io
        import json

        from repro.cli import _cmd_serve

        args = build_parser().parse_args(["serve"])
        ins = io.StringIO(json.dumps({"action": "status"}) + "\n")
        outs = io.StringIO()
        assert _cmd_serve(args, ins, outs) == 0
        response = json.loads(outs.getvalue().splitlines()[0])
        assert response["ok"] and response["result"]["sessions"] == []

    def test_serve_port_end_to_end(self):
        """`serve --port 0` binds, prints its port, serves TCP, shuts down."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.service import CometClient

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline().strip()
            assert ready.startswith("serving tcp on 127.0.0.1:"), ready
            port = int(ready.rsplit(":", 1)[1])
            with CometClient(port, timeout=30) as client:
                status = client.status()
                assert status["sessions"] == []
                assert status["backend"] == "serial"
                assert status["workers"] == 1
                assert status["scheduler_workers"] == 4
                assert status["quotas"] == {
                    "max_iterations": None,
                    "max_seconds": None,
                    "max_sessions": None,
                    "max_cache_bytes": None,
                }
                # Observability extras (PR 7): scheduler + cache counters.
                assert status["scheduler"]["jobs_in_flight"] == 0
                assert {"hits", "misses"} <= set(status["fd_cache"])
                assert {"max_bytes", "total_bytes"} <= set(status["cache"])
                assert set(status["cache"]["namespaces"]) == {"fd"}
                assert client.shutdown_server() == {"shutdown": True}
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_resume_runs_checkpoint(self, tmp_path, capsys):
        from repro.core import CometConfig
        from repro.datasets import load_dataset, pollute
        from repro.session import CleaningSession

        polluted = pollute(
            load_dataset("cmc", n_rows=130), error_types=["missing"], rng=7
        )
        session = CleaningSession.create(
            polluted, algorithm="lor", error_types=["missing"], budget=2.0,
            config=CometConfig(step=0.05), rng=0,
        )
        session.step()
        path = tmp_path / "cli.ckpt"
        session.save(path)
        trace_path = tmp_path / "trace.json"
        code = main(
            ["resume", "--checkpoint", str(path), "--trace", str(trace_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert trace_path.exists()


class TestBackendFlags:
    def test_backend_defaults_to_serial(self):
        args = build_parser().parse_args(["run", "--dataset", "cmc"])
        assert args.backend == "serial"
        assert args.jobs == 1

    def test_recommend_accepts_backend_flags(self):
        # Pure-recommendation sweeps parallelize with the same knobs as run.
        args = build_parser().parse_args(
            ["recommend", "--dataset", "cmc", "--backend", "process", "--jobs", "3"]
        )
        assert args.backend == "process"
        assert args.jobs == 3

    def test_recommend_with_thread_backend(self, capsys):
        code = main([
            "recommend", "--dataset", "cmc", "--algorithm", "lor",
            "--budget", "2", "--rows", "150", "--step", "0.05", "-k", "2",
            "--backend", "thread", "--jobs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "current F1" in out or "no candidate" in out

    def test_backend_and_jobs_parse(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "cmc", "--backend", "thread", "--jobs", "4"]
        )
        assert args.backend == "thread"
        assert args.jobs == 4

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "cmc", "--backend", "gpu"]
            )

    def test_run_with_thread_backend(self, capsys):
        code = main(
            [
                "run", "--dataset", "cmc", "--algorithm", "lor",
                "--rows", "160", "--budget", "2", "--step", "0.05",
                "--methods", "comet", "--backend", "thread", "--jobs", "2",
            ]
        )
        assert code == 0
        assert "COMET" in capsys.readouterr().out
