"""Self-checks of the benchmark, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/selfcheck.py -q

The file name keeps these checks out of the tier-1 collection, which
picks up ``test_*.py`` everywhere.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from clock import REFERENCE_S, Clock, Handoff  # noqa: E402

SPEC = json.loads(bench.SPEC.read_text())
#: Metrics that add up to ``session.step_s`` in a traced run.
STEP_LAYERS = (
    "iteration.other_s",
    "ml.model.fit_s",
    "ml.model.predict_s",
    "ml.preprocessing.fit_s",
    "ml.preprocessing.transform_s",
    "errors.pollute_s",
    "ml.metrics.score_s",
    "bayes.fit_s",
    "core.recommender.rank_s",
    "cleaning.clean_s",
    "store.put_in_step_s",
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload shrunk to a second or two; digests kept in tmp."""
    monkeypatch.setattr(workloads, "FIG12_REPEATS", {"gb": 1, "mlp": 1, "svm": 2, "lor": 1})
    monkeypatch.setattr(workloads, "SWEEP_SETUPS", 1)
    for params, rows, budget in (
        (workloads.FIG12, 40, 1.0),
        (workloads.SWEEP, 100, 2.0),
        (workloads.SERVE, 80, 2.0),
    ):
        monkeypatch.setitem(params, "rows", rows)
        monkeypatch.setitem(params, "budget", budget)
    monkeypatch.setattr(bench, "DIGESTS", tmp_path / "digests.json")
    return tmp_path


def _metrics(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, workload, kind):
    result = bench.run(workload, 1, 0.0, kind == "per_layer", tiny)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(math.isfinite(v) for v in _metrics(result).values())
    if kind == "end_to_end":
        assert all(v > 0 for v in _metrics(result).values())


@pytest.mark.parametrize("workload", ["fig12", "sweep-wide"])
def test_traced_layers_add_up_to_the_step(tiny, workload):
    metrics = _metrics(bench.run(workload, 1, 0.0, True, tiny))
    assert sum(metrics[name] for name in STEP_LAYERS) == pytest.approx(
        metrics["session.step_s"], rel=1e-9
    )
    assert metrics["ml.model.fit_s"] > 0
    assert metrics["ml.preprocessing.transform_calls"] > 0
    assert metrics["service.requests.status"] == 0


def test_traced_run_reports_overhead_and_serving_layers(tiny):
    metrics = _metrics(bench.run("serve-mixed", 1, 0.0, True, tiny))
    assert metrics["trace.overhead_pct"] != 0
    assert metrics["service.requests.status"] > 0
    assert metrics["service.requests.step"] > 0
    assert metrics["service.handle_ms.step"] > metrics["service.handle_ms.status"] > 0
    assert metrics["security.handshake_ms"] > 0
    assert metrics["store.put_ms"] > 0


def test_a_tampered_trace_fails_the_digest_check(tiny, monkeypatch):
    seed = bench.DEFAULT_SEED
    bench.run("fig12", seed, 0.0, False, tiny, record=True)
    assert bench.run("fig12", seed, 0.0, False, tiny)["correct"]

    from repro.ml import pipeline

    f1_score = pipeline.f1_score
    monkeypatch.setattr(pipeline, "f1_score", lambda *a, **k: 0.999 * f1_score(*a, **k))
    result = bench.run("fig12", seed, 0.0, False, tiny)
    assert not result["correct"] and result["failed"] >= 1


def test_a_networked_trace_unlike_the_in_process_run_fails(tiny, monkeypatch):
    reference = workloads.reference_problems

    def tampered(unit, seed):
        unit.serve["records"][0]["cost"] += 1.0
        return reference(unit, seed)

    monkeypatch.setattr(workloads, "reference_problems", tampered)
    assert not bench.run("serve-mixed", 1, 0.0, False, tiny)["correct"]


def test_trace_problems_catch_a_broken_f1_chain():
    trace = {
        "initial_f1": 0.5,
        "records": [
            {"iteration": 1, "f1_before": 0.5, "f1_after": 0.6, "budget_spent": 1.0},
            {"iteration": 2, "f1_before": 0.55, "f1_after": 0.7, "budget_spent": 2.0},
        ],
    }
    assert len(workloads.trace_problems(trace, 2.0)) == 1
    trace["records"][1]["f1_before"] = 0.6
    assert workloads.trace_problems(trace, 2.0) == []
    assert workloads.trace_problems(trace, 1.5) != []


def test_clock_scales_by_the_mean_speed_and_leaves_readings_out():
    clock = Clock()
    mark = clock.start()
    assert clock.stop(mark) < 0.01  # no readings: the host's own seconds
    clock.readings = [REFERENCE_S / 2, REFERENCE_S]  # speeds 2 and 1
    assert clock.scale(mark) == pytest.approx(1.5)
    with Clock(meter=True) as metered:
        mark = metered.start()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        elapsed = metered.stop(mark) / metered.scale(mark)
    assert len(metered.readings) >= 2
    assert elapsed == pytest.approx(0.5 - metered.metered, abs=0.01)


def test_handoff_reads_a_speed_and_stops_its_thread():
    with Handoff() as handoff:
        assert 0 < handoff.speed() < math.inf
    assert not handoff._echo.is_alive()


def test_spec_keeps_to_its_own_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_no_file_here_is_collected_by_tier1():
    collected = [
        p.name for p in HERE.iterdir()
        if p.name.startswith("test_") or p.name.endswith("_test.py")
    ]
    assert collected == []
