"""Command-line interface: run cleaning comparisons without writing code.

Examples::

    python -m repro list
    python -m repro run --dataset cmc --algorithm svm --errors missing \
        --methods comet rr fir --budget 10 --rows 240
    python -m repro recommend --dataset churn --algorithm gb --errors missing
    python -m repro serve --backend serial < requests.jsonl
    python -m repro serve --port 8765 --workers 4 --max-sessions 8
    python -m repro serve --port 8766 --http
    python -m repro serve --port 8765 --state-dir /var/lib/repro/sessions
    python -m repro serve --host 0.0.0.0 --port 8765 \
        --auth-token-file /etc/repro/token --tls-cert cert.pem --tls-key key.pem
    python -m repro worker --connect 127.0.0.1:9000
    python -m repro worker --listen 0.0.0.0:9001 --auth-token-file /etc/repro/token
    python -m repro resume --checkpoint session.ckpt
    python -m repro sessions list /var/lib/repro/sessions
    python -m repro sessions migrate old-session.ckpt
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import Comet, CometConfig
from repro.datasets import DATASET_NAMES, dataset_summaries
from repro.errors import error_registry
from repro.experiments import (
    Configuration,
    METHOD_NAMES,
    average_curve,
    build_polluted,
    format_series,
    format_table,
    run_method,
)
from repro.ml import available_algorithms
from repro.runtime import available_backends
from repro.service import (
    CometHTTPServer,
    CometService,
    CometTCPServer,
    SessionQuotas,
    serve_stream,
)
from repro.session import CleaningSession

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMET reproduction: step-by-step cleaning recommendations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list datasets, algorithms, error types, methods")

    run = sub.add_parser("run", help="compare cleaning methods on one configuration")
    _common_args(run)
    run.add_argument(
        "--methods", nargs="+", default=["comet", "rr"], choices=METHOD_NAMES,
        help="cleaning methods to compare",
    )
    run.add_argument("--seed", type=int, default=0)

    rec = sub.add_parser(
        "recommend", help="print COMET's next-k cleaning recommendations"
    )
    _common_args(rec)
    rec.add_argument("-k", type=int, default=3, help="number of recommendations")
    rec.add_argument("--seed", type=int, default=0)

    srv = sub.add_parser(
        "serve",
        help="serve many named cleaning sessions over JSON lines "
             "(stdin/stdout by default; --port for TCP, --http for HTTP)",
    )
    srv.add_argument(
        "--no-checkpoint-io", action="store_true",
        help="disable the checkpoint verbs (file write / pickle load at "
             "request-supplied paths) for less-trusted request streams",
    )
    srv.add_argument(
        "--state-dir", default=None,
        help="durable session store directory: sessions are persisted on "
             "iteration boundaries and auto-resumed after a restart "
             "(created if missing; inspect with 'repro sessions')",
    )
    srv.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for networked serving (default: loopback only)",
    )
    srv.add_argument(
        "--port", type=int, default=None,
        help="serve line-delimited JSON over TCP on this port instead of "
             "stdio (0 picks an ephemeral port, printed at startup)",
    )
    srv.add_argument(
        "--http", action="store_true",
        help="serve the HTTP/1.1 adapter (POST /rpc, POST /<verb>, "
             "GET /status) instead of raw JSON lines; requires --port",
    )
    srv.add_argument(
        "--workers", type=_positive_int, default=4,
        help="session-scheduler worker threads: how many sweep verbs "
             "(recommend/step/run) may iterate concurrently "
             "(status/checkpoint never queue behind them)",
    )
    srv.add_argument(
        "--max-sessions", type=_positive_int, default=None,
        help="quota: concurrent sessions one client may hold open",
    )
    srv.add_argument(
        "--max-iterations", type=_positive_int, default=None,
        help="quota: estimation sweeps one session may consume in total",
    )
    srv.add_argument(
        "--max-seconds", type=_positive_float, default=None,
        help="quota: accumulated engine wall-clock seconds per session",
    )
    srv.add_argument(
        "--conn-timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-connection idle timeout for networked serving: a peer "
             "silent this long has its socket closed so idle connections "
             "cannot pin handler threads (default: 300; 0 disables)",
    )
    srv.add_argument(
        "--allow-remote-shutdown", action="store_true",
        help="let non-loopback peers use the shutdown verb on an "
             "UNauthenticated server (with --auth-token the verb already "
             "requires the token and this flag is moot)",
    )
    _security_args(srv, role="serve")
    _backend_args(srv)

    wrk = sub.add_parser(
        "worker",
        help="run one distributed-sweep worker process "
             "(pairs with --backend distributed; trusted networks only — "
             "the task protocol exchanges pickles)",
    )
    topology = wrk.add_mutually_exclusive_group(required=True)
    topology.add_argument(
        "--connect", metavar="HOST:PORT",
        help="dial a coordinator (a DistributedBackend listener) and "
             "serve its tasks until it disconnects",
    )
    topology.add_argument(
        "--listen", metavar="HOST:PORT",
        help="own this address instead and serve coordinators that dial "
             "in (port 0 picks an ephemeral port, printed at startup)",
    )
    wrk.add_argument(
        "--id", dest="worker_id", default=None,
        help="worker name shown in coordinator stats (default: host-pid)",
    )
    wrk.add_argument(
        "--retries", type=_positive_int, default=60,
        help="--connect: bounded connect retries for the startup race "
             "where workers launch before the coordinator listens",
    )
    wrk.add_argument(
        "--backoff", type=_positive_float, default=0.25,
        help="--connect: base seconds between connect retries",
    )
    wrk.add_argument(
        "--once", action="store_true",
        help="--listen: serve exactly one coordinator, then exit",
    )
    wrk.add_argument(
        "--tls-ca", metavar="PEM", default=None,
        help="--connect: verify the coordinator's TLS certificate against "
             "this CA bundle (point it at a self-signed cert to pin it)",
    )
    _security_args(wrk, role="worker")

    res = sub.add_parser(
        "resume", help="resume a checkpointed cleaning session and run it out"
    )
    res.add_argument(
        "--checkpoint", required=True, help="checkpoint written by session.save()"
    )
    res.add_argument(
        "--save", help="write the finished session back to this checkpoint path"
    )
    res.add_argument("--trace", help="write the final trace as JSON to this path")
    res.add_argument(
        "--migrate", action="store_true",
        help="upgrade old-but-migratable checkpoint versions in memory "
             "before resuming (the file is left untouched)",
    )
    _backend_args(res)

    ses = sub.add_parser(
        "sessions",
        help="inspect and maintain a durable session state directory "
             "(the 'serve --state-dir' layout) and migrate old checkpoints",
    )
    ssub = ses.add_subparsers(dest="sessions_command", required=True)
    s_list = ssub.add_parser(
        "list", help="list every persisted session in a state directory"
    )
    s_list.add_argument("state_dir", help="state directory (serve --state-dir)")
    s_inspect = ssub.add_parser(
        "inspect",
        help="print one persisted session's envelope metadata and status",
    )
    s_inspect.add_argument("state_dir", help="state directory (serve --state-dir)")
    s_inspect.add_argument("name", help="session name as shown by 'sessions list'")
    s_compact = ssub.add_parser(
        "compact",
        help="reconcile a state directory: drop leftover tmp files and "
             "dangling index entries, adopt stray checkpoints",
    )
    s_compact.add_argument("state_dir", help="state directory (serve --state-dir)")
    s_compact.add_argument(
        "--drop-finished", action="store_true",
        help="also evict sessions whose last snapshot reported finished",
    )
    s_migrate = ssub.add_parser(
        "migrate",
        help="rewrite old checkpoint envelopes at the current version "
             "(a file, or every checkpoint in a state directory)",
    )
    s_migrate.add_argument(
        "target", help="a checkpoint file, or a state directory to sweep"
    )
    s_migrate.add_argument(
        "--out", default=None,
        help="write the migrated checkpoint here instead of in place "
             "(single-file mode only)",
    )
    return parser


def _security_args(parser: argparse.ArgumentParser, *, role: str) -> None:
    """The transport-security flags shared by ``serve`` and ``worker``."""
    group = parser.add_argument_group(
        "transport security",
        "shared-token authentication and TLS (see README 'Securing the "
        "service'); generate a token with "
        "\"python -c 'import repro; print(repro.generate_token())'\"",
    )
    group.add_argument(
        "--auth-token", metavar="TOKEN", default=None,
        help="shared secret peers must prove they hold (HMAC "
             "challenge-response on socket links, Authorization: Bearer "
             "over HTTP); prefer --auth-token-file or the "
             "REPRO_AUTH_TOKEN environment variable, which keep the "
             "secret out of the process list",
    )
    group.add_argument(
        "--auth-token-file", metavar="PATH", default=None,
        help="read the shared token from this file's first line "
             "(chmod 600 it)",
    )
    group.add_argument(
        "--tls-cert", metavar="PEM", default=None,
        help="serve TLS on accepted connections with this certificate "
             "(self-signed is fine: clients pin it by using the same "
             "file as their CA)",
    )
    group.add_argument(
        "--tls-key", metavar="PEM", default=None,
        help="private key for --tls-cert (omit when the cert file "
             "contains the key)",
    )
    group.add_argument(
        "--insecure", action="store_true",
        help=f"allow {role} to bind a non-loopback address without "
             "authentication (fail-closed is the default: any peer that "
             "can reach an open port can drive the service"
             + (", and worker task payloads are pickles - remote code "
                "execution)" if role == "worker" else ")"),
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    parser.add_argument("--algorithm", default="svm")
    parser.add_argument(
        "--errors", nargs="+", default=["missing"],
        choices=sorted(error_registry()),
    )
    parser.add_argument("--budget", type=float, default=10.0)
    parser.add_argument("--rows", type=int, default=240, help="scaled row count")
    parser.add_argument("--step", type=float, default=0.02)
    parser.add_argument(
        "--costs", choices=("uniform", "paper"), default="uniform",
        help="cost model: uniform (single-error §4.2) or paper (multi-error)",
    )
    _backend_args(parser)


def _backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=available_backends(), default="serial",
        help="execution backend for the estimation sweep "
             "(results are identical across backends for a fixed seed)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker count for pooled backends (1 = serial)",
    )


def _configuration(args: argparse.Namespace) -> Configuration:
    return Configuration(
        dataset=args.dataset,
        algorithm=args.algorithm,
        error_types=tuple(args.errors),
        n_rows=args.rows,
        budget=args.budget,
        step=args.step,
        cost_model=args.costs,
        backend=args.backend,
        jobs=args.jobs,
    )


def _cmd_list() -> int:
    print("datasets (Table 1):")
    print(format_table(dataset_summaries()))
    print(f"\nalgorithms: {', '.join(available_algorithms())}")
    print(f"error types: {', '.join(sorted(error_registry()))}")
    print(f"methods: {', '.join(METHOD_NAMES)}")
    print(f"backends: {', '.join(available_backends())}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _configuration(args)
    polluted = build_polluted(config, seed=args.seed)
    grid = np.arange(0.0, config.budget + 1.0)
    print(
        f"{config.dataset} / {config.algorithm} / {'+'.join(config.error_types)} "
        f"(budget {config.budget:g}, {polluted.train.n_rows} train rows)\n"
    )
    for method in args.methods:
        trace = run_method(method, polluted, config, rng=args.seed)
        curve = average_curve([trace], grid)
        print(format_series(method.upper(), grid, curve, every=max(1, len(grid) // 6)))
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    config = _configuration(args)
    polluted = build_polluted(config, seed=args.seed)
    with Comet(
        polluted,
        algorithm=config.algorithm,
        error_types=list(config.error_types),
        budget=config.budget,
        cost_model=config.make_cost_model(),
        config=CometConfig(step=config.step),
        rng=args.seed,
        backend=args.backend,
        jobs=args.jobs,
    ) as comet:
        candidates = comet.recommend(k=args.k)
        if not candidates:
            print("no candidate is predicted to improve the model")
            return 0
        baseline = comet.measure_baseline()
    print(f"current F1: {baseline:.3f}")
    print(f"{'rank':>4s} {'feature':10s} {'error':12s} "
          f"{'pred. F1':>9s} {'+/-':>6s} {'cost':>5s} {'score':>7s}")
    for rank, c in enumerate(candidates, start=1):
        print(
            f"{rank:4d} {c.feature:10s} {c.error:12s} "
            f"{c.prediction.predicted_f1:9.3f} {c.prediction.uncertainty:6.3f} "
            f"{c.cost:5.1f} {c.score:7.3f}"
        )
    return 0


def _build_security(args: argparse.Namespace, command: str):
    """Resolve the CLI security flags into a ``TransportSecurity``.

    Returns ``(security_or_None, exit_code_or_None)`` — a misconfigured
    token source (empty file, empty env var) is an operator error
    reported on stderr, never a silently-open listener.
    """
    from repro.security import TransportSecurity, load_token

    if args.tls_key and not args.tls_cert:
        print(f"{command}: --tls-key requires --tls-cert", file=sys.stderr)
        return None, 2
    try:
        token = load_token(args.auth_token, args.auth_token_file)
    except (OSError, ValueError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None, 2
    cafile = getattr(args, "tls_ca", None)
    if token is None and args.tls_cert is None and cafile is None:
        return None, None
    return (
        TransportSecurity(
            token=token,
            certfile=args.tls_cert,
            keyfile=args.tls_key,
            cafile=cafile,
        ),
        None,
    )


def _cmd_serve(args: argparse.Namespace, in_stream=None, out_stream=None) -> int:
    """Serve sessions over stdio JSON lines, TCP, or the HTTP adapter."""
    from repro.security import serve_security_error

    if args.http and args.port is None:
        print("serve: --http requires --port", file=sys.stderr)
        return 2
    security, code = _build_security(args, "serve")
    if code is not None:
        return code
    if args.port is not None:
        refusal = serve_security_error(
            args.host,
            token=security.token if security else None,
            tls=security.serves_tls if security else False,
            http=args.http,
            insecure=args.insecure,
        )
        if refusal is not None:
            print(f"serve: {refusal}", file=sys.stderr)
            return 2
    quotas = SessionQuotas(
        max_iterations=args.max_iterations,
        max_seconds=args.max_seconds,
        max_sessions=args.max_sessions,
    )
    store = None
    if args.state_dir is not None:
        from repro.store import DirectorySessionStore

        store = DirectorySessionStore(args.state_dir)
    with CometService(
        backend=args.backend,
        jobs=args.jobs,
        checkpoint_io=not args.no_checkpoint_io,
        quotas=quotas,
        workers=args.workers,
        store=store,
    ) as service:
        if store is not None:
            resumed = service.resume_persisted()
            # Parseable, like the readiness line: scripts can assert the
            # resume happened before driving the restarted service. In
            # stdio mode stdout carries JSON responses, so it goes to
            # stderr there.
            print(
                f"state dir {args.state_dir}: resumed {len(resumed)} "
                "persisted session(s)",
                file=sys.stderr if args.port is None else sys.stdout,
                flush=True,
            )
        if args.port is None:
            serve_stream(
                service,
                sys.stdin if in_stream is None else in_stream,
                sys.stdout if out_stream is None else out_stream,
            )
            return 0
        server_cls = CometHTTPServer if args.http else CometTCPServer
        with server_cls(
            service,
            (args.host, args.port),
            security=security,
            conn_timeout=args.conn_timeout if args.conn_timeout > 0 else None,
            allow_remote_shutdown=args.allow_remote_shutdown,
        ) as server:
            kind = "http" if args.http else "tcp"
            # Parseable readiness line: scripts read the bound (possibly
            # ephemeral) port from here before connecting. Its format is
            # load-bearing (CI greps it); the security summary goes on
            # its own line after.
            print(f"serving {kind} on {server.host}:{server.port}", flush=True)
            if security is not None:
                print(
                    "security: "
                    f"auth={'token' if security.requires_auth else 'off'} "
                    f"tls={'on' if security.serves_tls else 'off'}",
                    flush=True,
                )
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one distributed-sweep worker until its coordinator lets go."""
    import os
    import socket as _socket

    from repro.runtime import listen_worker, run_worker
    from repro.runtime.wire import parse_address
    from repro.security import worker_security_error

    security, code = _build_security(args, "worker")
    if code is not None:
        return code
    if args.listen:
        # Fail fast, before the socket binds: this worker unpickles
        # frames from whoever completes the handshake.
        refusal = worker_security_error(
            parse_address(args.listen)[0],
            token=security.token if security else None,
            insecure=args.insecure,
        )
        if refusal is not None:
            print(f"worker: {refusal}", file=sys.stderr)
            return 2
    worker_id = args.worker_id or f"{_socket.gethostname()}-{os.getpid()}"
    try:
        if args.connect:
            print(f"worker {worker_id} connecting to {args.connect}", flush=True)
            served = run_worker(
                connect=args.connect,
                worker_id=worker_id,
                retries=args.retries,
                backoff=args.backoff,
                security=security,
            )
        else:
            served = listen_worker(
                listen=args.listen,
                worker_id=worker_id,
                once=args.once,
                # Parseable readiness line: scripts read the bound
                # (possibly ephemeral) port before pointing a
                # coordinator's connect=[...] at it.
                ready=lambda address: print(
                    f"worker listening on {address[0]}:{address[1]}", flush=True
                ),
                security=security,
                insecure=args.insecure,
            )
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1
    print(f"worker {worker_id} served {served} task(s)", flush=True)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """Load a checkpoint, run it to completion, report the trace."""
    from repro.session import CheckpointVersionError

    try:
        session = CleaningSession.load(
            args.checkpoint,
            backend=args.backend,
            jobs=args.jobs,
            migrate=args.migrate,
        )
    except CheckpointVersionError as exc:
        # A version mismatch is an operator situation, not a crash: say
        # what was found and — when an upgrade chain exists — how to
        # move forward, instead of dumping a traceback.
        print(f"resume: {exc}", file=sys.stderr)
        if exc.migratable:
            print(
                "hint: upgrade it in place with "
                f"'repro sessions migrate {args.checkpoint}', or re-run "
                "resume with --migrate to upgrade in memory",
                file=sys.stderr,
            )
        return 1
    with session:
        done_before = len(session.trace.records) if session.trace else 0
        trace = session.run()
        status = session.status()
        if args.save:
            session.save(args.save)
    print(
        f"resumed {args.checkpoint}: {done_before} recorded iterations, "
        f"+{len(trace.records) - done_before} new"
    )
    print(
        f"F1 {trace.initial_f1:.3f} -> {trace.final_f1:.3f} "
        f"after {status['budget_spent']:g}/{status['budget_total']:g} budget units"
    )
    for record in trace.records[done_before:]:
        marker = " (fallback)" if record.used_fallback else ""
        print(
            f"iteration {record.iteration:2d}: clean {record.feature:10s}"
            f" cost={record.cost:.1f} spent={record.budget_spent:5.1f}"
            f" F1 {record.f1_before:.3f} -> {record.f1_after:.3f}{marker}"
        )
    if args.trace:
        trace.save(args.trace)
        print(f"trace written to {args.trace}")
    if args.save:
        print(f"checkpoint written to {args.save}")
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    """Inspect/maintain a durable state directory; migrate old envelopes."""
    from pathlib import Path

    from repro.store import DirectorySessionStore, migrate_checkpoint

    if args.sessions_command == "migrate":
        target = Path(args.target)
        if target.is_dir():
            if args.out:
                print("sessions migrate: --out needs a single checkpoint file",
                      file=sys.stderr)
                return 2
            sessions_dir = target / "sessions"
            checkpoints = sorted(
                (sessions_dir if sessions_dir.is_dir() else target).glob("*.ckpt")
            )
            if not checkpoints:
                print(f"no checkpoints found under {target}")
                return 0
        else:
            checkpoints = [target]
        migrated = 0
        for checkpoint in checkpoints:
            summary = migrate_checkpoint(checkpoint, out=args.out)
            if summary["migrated"]:
                migrated += 1
                print(
                    f"{summary['path']}: v{summary['from_version']} -> "
                    f"v{summary['to_version']} ({summary['out']})"
                )
            else:
                print(f"{summary['path']}: already v{summary['from_version']}")
        print(f"migrated {migrated} of {len(checkpoints)} checkpoint(s)")
        return 0

    state_dir = Path(args.state_dir)
    if not state_dir.is_dir():
        print(f"sessions: no state directory at {state_dir}", file=sys.stderr)
        return 2
    with DirectorySessionStore(state_dir) as store:
        if args.sessions_command == "list":
            names = store.names()
            if not names:
                print(f"{state_dir}: no persisted sessions")
                return 0
            print(f"{'name':24s} {'ver':>3s} {'iter':>5s} {'finished':>8s} "
                  f"{'bytes':>9s} {'client':12s}")
            for name in names:
                meta = store.meta(name)
                print(
                    f"{name:24s} {meta.get('checkpoint_version') or '?':>3} "
                    f"{meta.get('iteration', '?'):>5} "
                    f"{str(bool(meta.get('finished'))):>8s} "
                    f"{meta.get('bytes', 0):>9d} "
                    f"{str(meta.get('client') or 'local'):12s}"
                )
            return 0
        if args.sessions_command == "inspect":
            try:
                meta = store.meta(args.name)
            except KeyError:
                print(f"sessions: no persisted session named {args.name!r}",
                      file=sys.stderr)
                return 1
            state = store.load(args.name)
            print(f"session {args.name!r} in {state_dir}:")
            for key in sorted(meta):
                print(f"  {key}: {meta[key]}")
            print("status:")
            for key, value in state.status().items():
                print(f"  {key}: {value}")
            return 0
        if args.sessions_command == "compact":
            summary = store.compact(drop_finished=args.drop_finished)
            for key, value in summary.items():
                print(f"{key}: {value}")
            return 0
    raise AssertionError(f"unhandled sessions command {args.sessions_command!r}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None) == "distributed":
        # Refuse up front, before any dataset loads: without worker
        # addresses the coordinator would have nobody to dispatch to.
        from repro.runtime.distributed import connect_from_env

        try:
            connect_from_env()
        except ValueError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "recommend":
        return _cmd_recommend(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "sessions":
        return _cmd_sessions(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
