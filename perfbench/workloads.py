"""The benchmark's workloads, run one *unit* at a time.

A unit is the piece of work a workload repeats. It starts from a cleared
shared cache (``repro.cache``), because a new session pays a cold cache,
sets up, runs, and returns what it measured and what the program
produced. All of a unit's inputs derive from one integer seed; a
:class:`clock.Clock` times it.

- ``fig12``: the first ``CleaningSession.step()`` on cmc with the
  ``missing`` error, once each for gb, mlp, svm and lor: the Figure 12
  setting, where model fit is nearly all of the time.
- ``sweep-wide``: the first iterations of a budgeted lir session on churn
  (19 features, 16 of them categorical; errors ``missing`` and
  ``categorical``): many cheap fits on a wide one-hot matrix, so
  featurization, pollution and the shared cache carry the time.
- ``serve-mixed``: one process serves a ``CometService`` with a
  directory store (write-behind checkpoints) over token-authenticated
  TCP and HTTP on loopback. A reader connection calls ``status`` on the
  idle session ``b`` over TCP, first with nothing else running, then
  back to back while a writer connection steps session ``a`` over HTTP:
  a closed loop of two connections.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from clock import Clock, Handoff
from repro.cache import cache_stats, clear_shared_cache
from repro.experiments import Configuration, build_polluted
from repro.security import TransportSecurity, generate_token
from repro.service import (
    CometClient,
    CometClientError,
    CometHTTPServer,
    CometService,
    CometTCPServer,
)
from repro.session import CleaningSession
from repro.store import DirectorySessionStore

__all__ = [
    "FIG12_ALGORITHMS",
    "IN_PROCESS",
    "Unit",
    "create_session",
    "derived_seed",
    "trace_digest",
    "trace_problems",
    "unit_runner",
    "reference_problems",
]

FIG12_ALGORITHMS = ("gb", "mlp", "svm", "lor")
#: First iterations per algorithm in one fig12 unit, each on its own
#: input: gb takes ~10 s, the others well under one, so they repeat to
#: give a median per unit.
FIG12_REPEATS = {"gb": 1, "mlp": 4, "svm": 4, "lor": 4}
FIG12 = {"dataset": "cmc", "errors": ["missing"], "rows": 200, "budget": 2.0, "step": 0.02}
#: sweep-wide and serve-mixed run a fixed number of ``steps``: sessions
#: stepped to the end took from 5 to 9 iterations with the seed, which
#: moved the session time by a fifth.
SWEEP = {
    "dataset": "churn",
    "algorithm": "lir",
    "errors": ["missing", "categorical"],
    "rows": 3000,
    "budget": 50.0,
    "step": 0.02,
    "steps": 6,
}
#: Sessions a sweep-wide unit sets up (the last is stepped): one set-up
#: a unit gave too few samples for a steady median.
SWEEP_SETUPS = 3
SERVE = {
    "dataset": "cmc",
    "algorithm": "lor",
    "errors": ["missing"],
    "rows": 300,
    "budget": 50.0,
    "step": 0.05,
    "steps": 6,
}
#: Session ``b`` of serve-mixed is only ever read, never stepped.
IDLE = {**SERVE, "rows": 100, "budget": 1.0}
#: Readings of the host's speed a serve-mixed unit takes before and
#: after itself: one reading alone varies by a fifth.
SERVE_READINGS = 3
#: ``status`` calls a serve-mixed unit makes on the idle service before
#: it steps session ``a``, in chunks of ``QUIET_CHUNK`` between readings
#: of a :class:`clock.Handoff` meter. The host's hand-offs slowed by up
#: to 1.7 times for seconds at a time, and so did the calls; beside a
#: step their median also jumped between a fast and a slow mode.
QUIET_CALLS = 2000
QUIET_CHUNK = 100
#: Workloads whose work runs in the main thread, where the clock's meter
#: reads the host's speed while it runs.
IN_PROCESS = ("fig12", "sweep-wide")


@dataclass
class Unit:
    """What one unit measured, and what the program produced in it."""

    #: Seconds from a cold start to the first measured operation, once
    #: per session the unit set up.
    setup_s: list = field(default_factory=list)
    #: Latency of each foreground operation in seconds: first iterations
    #: (fig12), iterations (sweep-wide), status round trips beside the
    #: steps (serve-mixed).
    op_s: list = field(default_factory=list)
    #: serve-mixed: status round trips on the idle service, in seconds
    #: at the reference host's speed for hand-offs.
    quiet_s: list = field(default_factory=list)
    #: Seconds of the unit's cleaning work, as its caller waited for it.
    work_s: float = 0.0
    #: fig12: first-iteration seconds per algorithm.
    by_algorithm: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness problems found in what the program produced.
    problems: list = field(default_factory=list)
    #: Digest of every cleaning trace the unit produced.
    digests: list = field(default_factory=list)
    #: ``repro.cache.cache_stats()`` at the end of each session.
    cache: list = field(default_factory=list)
    #: serve-mixed: raw transport, store and security numbers.
    serve: dict = field(default_factory=dict)


def create_session(params: dict, seed: int) -> CleaningSession:
    """A session built the way the service's ``create`` verb builds one."""
    config = Configuration(
        dataset=params["dataset"],
        algorithm=params["algorithm"],
        error_types=tuple(params["errors"]),
        n_rows=params["rows"],
        budget=float(params["budget"]),
        step=float(params["step"]),
    )
    return CleaningSession.create(
        build_polluted(config, seed=seed),
        algorithm=config.algorithm,
        error_types=list(config.error_types),
        budget=config.budget,
        cost_model=config.make_cost_model(),
        config=config.make_comet_config(),
        rng=seed,
    )


def trace_digest(trace: dict) -> str:
    """Digest of a trace's JSON form: records, F1s, costs."""
    text = json.dumps(trace, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def trace_problems(trace: dict, budget: float) -> list[str]:
    """What is wrong with a trace on its face (empty when nothing is)."""
    if not trace["records"]:
        return ["trace has no records"]
    problems = []
    f1 = trace["initial_f1"]
    for record in trace["records"]:
        where = f"iteration {record['iteration']}"
        if record["f1_before"] != f1:
            problems.append(
                f"{where}: F1 before {record['f1_before']} is not the previous F1 {f1}"
            )
        if not 0.0 <= record["f1_after"] <= 1.0:
            problems.append(f"{where}: F1 {record['f1_after']} outside [0, 1]")
        if record["budget_spent"] > budget + 1e-9:
            problems.append(
                f"{where}: spent {record['budget_spent']} of a budget of {budget}"
            )
        f1 = record["f1_after"]
    return problems


def _produced(unit: Unit, trace: dict, budget: float) -> None:
    unit.digests.append(trace_digest(trace))
    unit.problems.extend(trace_problems(trace, budget))


# ---------------------------------------------------------------------- #
# fig12 and sweep-wide: in-process sessions
# ---------------------------------------------------------------------- #
def derived_seed(seed: int, index: int) -> int:
    """A 32-bit seed for input ``index`` derived from ``seed``."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def fig12_unit(seed: int, clock: Clock) -> Unit:
    """First iterations of fresh sessions, :data:`FIG12_REPEATS` per
    algorithm; ``by_algorithm`` holds the median of each."""
    unit = Unit()
    times: dict[str, list[float]] = {a: [] for a in FIG12_ALGORITHMS}
    for repeat in range(max(FIG12_REPEATS.values())):
        for algorithm in FIG12_ALGORITHMS:
            if repeat >= FIG12_REPEATS[algorithm]:
                continue
            clear_shared_cache()
            mark = clock.start()
            session = create_session(
                {**FIG12, "algorithm": algorithm}, derived_seed(seed, repeat)
            )
            unit.setup_s.append(clock.stop(mark))
            mark = clock.start()
            session.step()
            elapsed = clock.stop(mark)
            times[algorithm].append(elapsed)
            unit.op_s.append(elapsed)
            unit.cache.append(cache_stats())
            _produced(unit, session.trace.to_dict(), FIG12["budget"])
    unit.by_algorithm = {a: statistics.median(t) for a, t in times.items()}
    unit.work_s = sum(unit.op_s)
    unit.attempted = len(unit.op_s)
    return unit


def sweep_unit(seed: int, clock: Clock) -> Unit:
    """The first ``SWEEP["steps"]`` iterations of a fresh session, set up
    :data:`SWEEP_SETUPS` times (the last one is stepped)."""
    unit = Unit()
    for _ in range(SWEEP_SETUPS):
        clear_shared_cache()
        mark = clock.start()
        session = create_session(SWEEP, seed)
        unit.setup_s.append(clock.stop(mark))
    for _ in range(SWEEP["steps"]):
        mark = clock.start()
        record = session.step()
        elapsed = clock.stop(mark)
        unit.work_s += elapsed
        if record is None:
            break
        unit.op_s.append(elapsed)
    unit.attempted = len(unit.op_s)
    unit.cache.append(cache_stats())
    _produced(unit, session.trace.to_dict(), SWEEP["budget"])
    return unit


# ---------------------------------------------------------------------- #
# serve-mixed: the networked service
# ---------------------------------------------------------------------- #
def serve_unit(seed: int, clock: Clock, scratch: Path | None = None) -> Unit:
    """``b`` read over TCP on the idle service, then while ``a`` is
    stepped over HTTP.

    The client threads carry the work, so the clock reads the host's
    speed just before and after the unit, and every time but the idle
    reads is scaled by it; those are scaled by a :class:`Handoff`
    meter."""
    unit = Unit()
    clear_shared_cache()
    mark = clock.start()
    for _ in range(SERVE_READINGS):
        clock.sample()
    started = time.perf_counter()
    root = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
    token = generate_token()
    security = TransportSecurity(token=token)
    service = CometService(store=DirectorySessionStore(root), workers=2)
    servers = [
        CometTCPServer(service, security=security),
        CometHTTPServer(service, security=security),
    ]
    for server in servers:
        server.serve_background()
    connecting = time.perf_counter()
    reader = CometClient(servers[0].port, timeout=60, auth_token=token)
    handshake_s = time.perf_counter() - connecting
    writer = http.client.HTTPConnection("127.0.0.1", servers[1].port, timeout=60)
    try:
        reader.create("a", {**SERVE, "seed": seed})
        reader.create("b", {**IDLE, "seed": seed})
        setup_s = time.perf_counter() - started
        service.store.flush()
        quiet = _quiet_reads(reader)
        loop = _closed_loop(reader, writer, token, service.store)
        unit.cache.append(cache_stats())
    finally:
        reader.close()
        writer.close()
        for server in servers:
            server.shutdown()
            server.server_close()
        service.shutdown()
        shutil.rmtree(root, ignore_errors=True)
    for _ in range(SERVE_READINGS):
        clock.sample()
    scale = clock.scale(mark)
    unit.setup_s = [setup_s * scale]
    unit.op_s = [s * scale for s in loop["status_s"]]
    unit.quiet_s = [s * speed for s, speed in quiet]
    unit.work_s = sum(loop["step_s"]) * scale
    unit.attempted = len(quiet) + len(loop["status_s"]) + len(loop["step_s"])
    unit.failed = sum(loop["failures"].values())
    unit.serve = {
        **loop,
        "quiet_s": [s for s, _ in quiet],
        "handshake_s": handshake_s,
        "store": service.store.stats(),
    }
    records = loop["records"]
    initial = records[0]["f1_before"] if records else None
    _produced(unit, {"initial_f1": initial, "records": records}, SERVE["budget"])
    return unit


def _quiet_reads(reader) -> list:
    """``(seconds, speed)`` of :data:`QUIET_CALLS` ``status("b")`` round
    trips, ``speed`` the mean of the hand-off readings around its chunk."""
    calls = []
    with Handoff() as handoff:
        before = handoff.speed()
        for _ in range(QUIET_CALLS // QUIET_CHUNK):
            chunk = []
            for _ in range(QUIET_CHUNK):
                started = time.perf_counter()
                reader.status("b")
                chunk.append(time.perf_counter() - started)
            after = handoff.speed()
            calls += [(s, (before + after) / 2) for s in chunk]
            before = after
    return calls


def _closed_loop(reader, writer, token: str, store) -> dict:
    """Step ``a`` over HTTP ``SERVE["steps"]`` times; read ``b`` until then."""
    headers = {"Authorization": f"Bearer {token}", "Content-Type": "application/json"}
    body = json.dumps({"name": "a"}).encode()
    out = {
        "records": [],
        "step_s": [],
        "status_s": [],
        "lag_s": [],
        "failures": {"step": 0, "status": 0},
    }
    finished = threading.Event()

    def write() -> None:
        try:
            for _ in range(SERVE["steps"]):
                started = time.perf_counter()
                writer.request("POST", "/step", body, headers)
                response = json.loads(writer.getresponse().read())
                out["step_s"].append(time.perf_counter() - started)
                out["lag_s"].append(store.stats()["write_behind_lag_s"])
                if not response.get("ok"):
                    out["failures"]["step"] += 1
                    return
                record = response["result"]["record"]
                if record is None:
                    return
                out["records"].append(record)
                if response["result"]["finished"]:
                    return
        except (OSError, http.client.HTTPException, ValueError):
            out["failures"]["step"] += 1
        finally:
            finished.set()

    def read() -> None:
        while not finished.is_set():
            started = time.perf_counter()
            try:
                reader.status("b")
            except CometClientError:
                out["failures"]["status"] += 1
            out["status_s"].append(time.perf_counter() - started)

    threads = [threading.Thread(target=write), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


def reference_problems(unit: Unit, seed: int) -> list[str]:
    """Session ``a`` over the network must equal an in-process run."""
    session = create_session(SERVE, seed)
    expected = []
    for _ in range(SERVE["steps"]):
        record = session.step()
        if record is None:
            break
        expected.append(record.to_dict())
    if json.loads(json.dumps(expected)) != unit.serve["records"]:
        return ["the networked trace differs from an in-process run"]
    return []


def unit_runner(workload: str, clock: Clock, scratch: Path):
    """``run(seed) -> Unit`` for a workload name, timed by ``clock``."""
    return {
        "fig12": partial(fig12_unit, clock=clock),
        "sweep-wide": partial(sweep_unit, clock=clock),
        "serve-mixed": partial(serve_unit, clock=clock, scratch=scratch),
    }[workload]
