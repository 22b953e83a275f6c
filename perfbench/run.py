#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload fig12 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` makes a traced run and reports the
per-layer metrics. Lines starting with ``#`` describe the host and the
samples; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: on a 2-CPU host a BLAS pool
# competes with the service's own threads and widens the run-to-run
# spread.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402 — after the BLAS pin
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Trace digests of the first units of each workload at ``DEFAULT_SEED``.
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
WORKLOADS = ("fig12", "sweep-wide", "serve-mixed")


# ---------------------------------------------------------------------- #
# host and memory
# ---------------------------------------------------------------------- #
def host_record(seed: int) -> dict:
    """What a result depends on besides the code."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpus_used": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": seed,
    }


def pin_to_one_cpu() -> None:
    """Run this thread, and every thread it starts, on one CPU.

    Across two CPUs, serve-mixed's ``status`` p50 swung from 0.15 to
    0.30 ms between runs with the cross-CPU hand-offs of the interpreter
    lock; on one CPU it stayed within 3% of 0.05 ms. The speed readings
    then also come from the CPU that does the work.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count, so the peak is this run's."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # no procfs: the peak then counts from process start


def peak_rss_mb() -> float:
    """Peak resident memory since :func:`reset_peak_rss`, in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------- #
# measuring and checking
# ---------------------------------------------------------------------- #
def run_for(run_unit, seed: int, seconds: float) -> list:
    """``run_unit`` of inputs 0, 1, ... of ``seed`` until ``seconds`` have
    passed, once at least."""
    from workloads import derived_seed

    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        units.append(run_unit(derived_seed(seed, len(units))))
    return units


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def check(workload: str, seed: int, units: list) -> list[str]:
    """Correctness problems of a run (empty when it is correct).

    Every trace must be sound on its face; serve-mixed's networked
    session must equal an in-process run with the same parameters; and
    at the default seed the trace digests must equal the recorded ones.
    """
    import workloads

    problems = [f"unit {i}: {p}" for i, unit in enumerate(units) for p in unit.problems]
    if workload == "serve-mixed":
        problems += workloads.reference_problems(
            units[0], workloads.derived_seed(seed, 0)
        )
    if seed == DEFAULT_SEED:
        recorded = load_digests().get(workload)
        if recorded is None:
            problems.append(f"no trace digests recorded for {workload}")
        for i, (unit, expected) in enumerate(zip(units, recorded or [])):
            if unit.digests != expected:
                problems.append(
                    f"unit {i}: trace digests {unit.digests} are not the "
                    f"recorded {expected}"
                )
    return problems


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tail_percentile(n: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 with ten samples beyond it."""
    fitting = [p for p in (50, 90, 99, 99.9) if n * (1 - p / 100) >= 10]
    return fitting[-1] if fitting else None


def describe(workload: str, units: list) -> None:
    """Print the sample counts and the tail behind the metrics."""
    import workloads

    ops = sorted(s for unit in units for s in unit.op_s)
    print(f"# units {len(units)}, foreground operations {len(ops)}")
    tail = tail_percentile(len(ops))
    if tail is not None:
        value = ops[min(len(ops) - 1, int(len(ops) * tail / 100))]
        print(f"# operation p{tail}: {value * 1e3:.3f} ms of {len(ops)} samples")
    if workload == "fig12":
        for algorithm in workloads.FIG12_ALGORITHMS:
            times = [unit.by_algorithm[algorithm] for unit in units]
            print(f"# first iteration {algorithm}: {statistics.median(times):.4f} s, median of {len(times)} units")
    if workload == "serve-mixed":
        print(f"# status round trip beside the steps: {statistics.median(ops) * 1e3:.4f} ms, median of {len(ops)}")
        steps = [s for unit in units for s in unit.serve["step_s"]]
        print(f"# step round trip: {statistics.median(steps) * 1e3:.1f} ms, median of {len(steps)}")


def end_to_end(workload: str, units: list, peak_mb: float) -> dict:
    """The end-to-end metric values of an untraced run."""
    import workloads

    ops = [s for unit in units for s in unit.op_s]
    if workload == "fig12":
        # Each algorithm weighs the same in the geometric mean; the sum is
        # the Figure-12 row a user waits for, dominated by gb.
        per_algorithm = [
            statistics.median(unit.by_algorithm[a] for unit in units)
            for a in workloads.FIG12_ALGORITHMS
        ]
        op = math.exp(_mean(math.log(t) for t in per_algorithm))
        work = sum(per_algorithm)
    elif workload == "serve-mixed":
        # The p50 is of the calls on the idle service; op_per_s counts the
        # calls beside the steps.
        op = statistics.median(s for unit in units for s in unit.quiet_s)
        work = statistics.median(unit.work_s for unit in units)
    else:
        op = statistics.median(ops)
        work = statistics.median(unit.work_s for unit in units)
    return {
        "setup_s": statistics.median(s for unit in units for s in unit.setup_s),
        "op_p50_ms": op * 1e3,
        "op_per_s": len(ops) / sum(ops),
        "work_s": work,
        "peak_rss_mb": peak_mb,
    }


# ---------------------------------------------------------------------- #
# the traced run
# ---------------------------------------------------------------------- #
def per_layer(tracer, untraced: list, traced: list) -> dict:
    """Per-layer metric values of a traced run.

    Iteration layers are self seconds per ``CleaningSession.step`` call,
    so together with ``iteration.other_s`` they add up to
    ``session.step_s``.
    """
    from tracer import MODEL_CLASSES

    walls = tracer.walls["iteration"]
    steps = max(1, len(walls))

    def per_step(prefix: str) -> float:
        return tracer.seconds(prefix, root="iteration") / steps

    def calls_per_step(prefix: str) -> float:
        return tracer.count(prefix, root="iteration") / steps

    cleanings = tracer.count("cleaning.clean") + tracer.count("cleaning.apply")
    values = {
        "session.step_s": sum(walls) / 1e9 / steps,
        "iteration.other_s": per_step("iteration"),
        "ml.model.fit_s": per_step("ml.model.fit."),
        **{f"ml.model.fit_s.{a}": per_step(f"ml.model.fit.{a}") for a in MODEL_CLASSES},
        "ml.model.fit_calls": calls_per_step("ml.model.fit."),
        "ml.model.predict_s": per_step("ml.model.predict."),
        "ml.preprocessing.fit_s": per_step("ml.preprocessing.fit"),
        "ml.preprocessing.transform_s": per_step("ml.preprocessing.transform"),
        "ml.preprocessing.fit_calls": calls_per_step("ml.preprocessing.fit"),
        "ml.preprocessing.transform_calls": calls_per_step("ml.preprocessing.transform"),
        "errors.pollute_s": per_step("errors.pollute"),
        "errors.pollute_calls": calls_per_step("errors.pollute"),
        "ml.metrics.score_s": per_step("ml.metrics.score"),
        "bayes.fit_s": per_step("bayes."),
        "core.recommender.rank_s": per_step("core.recommender.rank"),
        "cleaning.clean_s": per_step("cleaning."),
        "cleaning.accept_ratio": (
            (cleanings - tracer.count("cleaning.revert")) / cleanings if cleanings else 0.0
        ),
        "store.put_in_step_s": per_step("store.put"),
        **_cache_layers(traced),
        **_serve_layers(tracer, traced),
    }
    # Each input ran untraced and traced back to back; the median ratio
    # of a pair leaves out most of the host's drift between pairs.
    values["trace.overhead_pct"] = 100 * (
        statistics.median(t.work_s / u.work_s for u, t in zip(untraced, traced)) - 1
    )
    return values


def _cache_layers(units: list) -> dict:
    snapshots = [s for unit in units for s in unit.cache]

    def hit_ratio(namespace: str) -> float:
        counts = [s["namespaces"].get(namespace, {}) for s in snapshots]
        hits = sum(c.get("hits", 0) for c in counts)
        lookups = hits + sum(c.get("misses", 0) for c in counts)
        return hits / lookups if lookups else 0.0

    return {
        **{f"cache.{ns}.hit_ratio": hit_ratio(ns) for ns in ("fit", "blocks", "transform")},
        "cache.held_mb": _mean(s["total_bytes"] for s in snapshots) / 2**20,
        "cache.evictions": _mean(s["evictions"] for s in snapshots),
    }


def _serve_layers(tracer, units: list) -> dict:
    def mean_ms(prefix: str) -> float:
        calls = tracer.count(prefix)
        return tracer.seconds(prefix) / calls * 1e3 if calls else 0.0

    serve = [unit.serve for unit in units if unit.serve]
    status = [s for run in serve for s in run["quiet_s"] + run["status_s"]]
    steps = [s for run in serve for s in run["step_s"]]
    handle_status = mean_ms("service.handle.status")
    handle_step = mean_ms("service.handle.step")
    n = len(units)
    return {
        "service.handle_ms.status": handle_status,
        "service.handle_ms.step": handle_step,
        "service.transport.tcp_ms": _mean(status) * 1e3 - handle_status if status else 0.0,
        "service.transport.http_ms": _mean(steps) * 1e3 - handle_step if steps else 0.0,
        "service.scheduler.wait_ms": mean_ms("service.scheduler.wait"),
        "store.put_ms": mean_ms("store.put"),
        "store.writes": sum(run["store"]["writes"] for run in serve) / n,
        "store.coalesced_writes": sum(run["store"]["coalesced_writes"] for run in serve) / n,
        "store.write_behind_lag_ms": max((s for run in serve for s in run["lag_s"]), default=0.0) * 1e3,
        "security.handshake_ms": _mean(run["handshake_s"] for run in serve) * 1e3,
        "service.requests.status": tracer.count("service.handle.status") / n,
        "service.requests.step": tracer.count("service.handle.step") / n,
        "service.failures.status": sum(run["failures"]["status"] for run in serve) / n,
        "service.failures.step": sum(run["failures"]["step"] for run in serve) / n,
    }


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, traced: bool, scratch: Path, record: bool = False) -> dict:
    """Measure ``workload`` and return the result object."""
    import workloads
    from clock import WINDOW, Clock
    from tracer import Tracer

    spec = json.loads(SPEC.read_text())
    # The traced run runs no meter: a reading inside a span would count as
    # that span's self time. Its layer times are the host's own seconds.
    clock = Clock(meter=not traced and workload in workloads.IN_PROCESS)
    run_unit = workloads.unit_runner(workload, clock, scratch)
    print("# host " + json.dumps(host_record(seed)), flush=True)
    reset_peak_rss()
    if traced:
        # Every input runs untraced and traced, in alternating order so
        # the process's own warm-up does not pass for tracing overhead.
        # Tracing must not change a trace.
        tracer = Tracer()
        traced_first = itertools.cycle((False, True))

        def run_once(unit_seed: int, tracing: bool):
            # Readings just before the unit put its work_s, and so the
            # overhead, at the reference speed.
            for _ in range(WINDOW):
                clock.sample()
            if not tracing:
                return run_unit(unit_seed)
            with tracer:
                return run_unit(unit_seed)

        def run_pair(unit_seed: int) -> tuple:
            if next(traced_first):
                again = run_once(unit_seed, True)
                return run_once(unit_seed, False), again
            plain = run_once(unit_seed, False)
            return plain, run_once(unit_seed, True)

        units, again = zip(*run_for(run_pair, seed, seconds))
        problems = check(workload, seed, units)
        if [u.digests for u in again] != [u.digests for u in units]:
            problems.append("tracing changed a trace")
        values = per_layer(tracer, units, again)
        declared = spec["per_layer"]
        units = units + again
    else:
        with clock:
            units = run_for(run_unit, seed, seconds)
        values = end_to_end(workload, units, peak_rss_mb())
        print(
            f"# host speed: {clock.speed():.4f} of the reference, "
            f"mean of {len(clock.readings)} readings"
        )
        if record:
            digests = load_digests()
            digests[workload] = [unit.digests for unit in units]
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        problems = check(workload, seed, units)
        declared = spec["end_to_end"]
    describe(workload, units)
    for problem in problems:
        print(f"# problem: {problem}")
    failed = sum(unit.failed for unit in units) + len(problems)
    return {
        "correct": failed == 0,
        "attempted": sum(unit.attempted for unit in units),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this run's trace digests as the reference (default seed, --trace 0)",
    )
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    if args.record and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record needs the default seed and --trace 0")
    pin_to_one_cpu()
    sys.path[:0] = [str(SOURCE), str(HERE)]
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work, args.record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
