"""Run real ``repro worker --connect`` processes against a coordinator.

The distributed backend dispatches only to workers that run somewhere
else; it never starts processes itself.  Tests and benchmarks that want
real worker processes on this host start them here, the way an operator
would, and reap them afterwards.
"""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import repro

# The workers import repro the way this process does, also from a source
# tree that is not installed.
_PACKAGE_PARENT = str(Path(repro.__file__).resolve().parent.parent)


@contextlib.contextmanager
def local_workers(backend, count: int):
    """Start ``backend`` and ``count`` workers dialing its listener.

    Yields the worker processes.  On exit the backend shuts down, which
    dismisses the workers, and every worker is waited for (killed if it
    lingers), so ``returncode`` is set on each yielded process.
    """
    backend.start()
    host, port = backend.address
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (_PACKAGE_PARENT, env.get("PYTHONPATH")) if path
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"{host}:{port}", "--id", f"local-{index}"],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        for index in range(count)
    ]
    try:
        yield procs
    finally:
        backend.shutdown()
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
