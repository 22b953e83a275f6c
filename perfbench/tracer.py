"""Span tracing from the benchmark's side: wrap public callables, time them.

The traced run patches a fixed set of the program's public functions and
methods (:data:`TARGETS`) with timing wrappers and restores them when it
ends; nothing under ``src/`` changes. Every wrapped call opens a span on
a per-thread stack. A span's *self* time is its duration minus the spans
that opened inside it, so the self times of all spans under one root
span (an iteration, a served request) add up to the root's wall time.

A call into the layer of the innermost open span is not a new span: a
gradient-boosting ``fit`` that calls its own ``predict`` stays model-fit
time.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "MODEL_CLASSES", "TARGETS"]

#: Registry algorithm name -> (module, estimator class) of its model.
MODEL_CLASSES = {
    "gb": ("repro.ml.boosting", "GradientBoostingClassifier"),
    "mlp": ("repro.ml.mlp", "MLPClassifier"),
    "svm": ("repro.ml.svm", "LinearSVC"),
    "lor": ("repro.ml.linear", "LogisticRegression"),
    "lir": ("repro.ml.linear", "LinearRegressionClassifier"),
}


def _verb_span(service, request, **kwargs) -> str:
    return f"service.handle.{request.get('action')}"


#: (module, attribute path, span name) of every wrapped public callable.
#: A callable span name is computed from the call's arguments.
TARGETS = [
    ("repro.session.engine", "CleaningSession.step", "iteration"),
    ("repro.ml.preprocessing", "TabularPreprocessor.fit", "ml.preprocessing.fit"),
    (
        "repro.ml.preprocessing",
        "TabularPreprocessor.transform",
        "ml.preprocessing.transform",
    ),
    ("repro.errors.polluter", "Polluter.incremental_states", "errors.pollute"),
    # TabularModel scores through the name bound in its own module.
    ("repro.ml.pipeline", "f1_score", "ml.metrics.score"),
    ("repro.bayes.linear_regression", "BayesianLinearRegression.fit", "bayes.fit"),
    (
        "repro.bayes.linear_regression",
        "BayesianLinearRegression.credible_interval",
        "bayes.interval",
    ),
    ("repro.core.recommender", "CometRecommender.rank", "core.recommender.rank"),
    ("repro.cleaning.cleaner", "GroundTruthCleaner.clean_step", "cleaning.clean"),
    ("repro.cleaning.cleaner", "GroundTruthCleaner.apply", "cleaning.apply"),
    ("repro.cleaning.cleaner", "GroundTruthCleaner.revert", "cleaning.revert"),
    ("repro.store.directory", "DirectorySessionStore.put", "store.put"),
    ("repro.service.service", "CometService.handle", _verb_span),
] + [
    (module, f"{cls}.{method}", f"ml.model.{method}.{algorithm}")
    for algorithm, (module, cls) in MODEL_CLASSES.items()
    for method in ("fit", "predict")
]


def _layer(name: str) -> str:
    """``"ml.model.fit.gb"`` -> ``"ml.model"``: nesting within it is one span."""
    return ".".join(name.split(".")[:2])


class _Stack(threading.local):
    def __init__(self) -> None:
        #: Open spans of this thread: [name, start ns, child ns].
        self.frames: list[list] = []


class Tracer:
    """Self time, call count and root wall times per span, across threads.

    ``self_ns[root, name]`` sums the self time of spans called ``name``
    opened under a root span called ``root`` (a root is its own root);
    ``calls`` counts them; ``walls[root]`` lists each root span's wall
    time.
    """

    def __init__(self) -> None:
        self._stack = _Stack()
        self._lock = threading.Lock()
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.walls: dict[str, list[int]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def span(self, fn, name):
        """``fn`` timed as span ``name`` (a plain function, so it binds as
        a method when set on a class)."""

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frames = self._stack.frames
            if frames and _layer(frames[-1][0]) == _layer(label):
                return fn(*args, **kwargs)
            frame = [label, time.perf_counter_ns(), 0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - frame[1]
                frames.pop()
                if frames:
                    frames[-1][2] += elapsed
                root = frames[0][0] if frames else label
                with self._lock:
                    self.self_ns[root, label] += elapsed - frame[2]
                    self.calls[root, label] += 1
                    if not frames:
                        self.walls[label].append(elapsed)

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, elapsed_ns: int) -> None:
        """Count a root span the caller timed itself."""
        with self._lock:
            self.self_ns[name, name] += elapsed_ns
            self.calls[name, name] += 1
            self.walls[name].append(elapsed_ns)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; :meth:`restore` puts the old one back."""
        previous = vars(owner).get(attribute)
        self._undo.append((owner, attribute, previous))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every target, and time how long scheduled verbs wait."""
        for module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self.patch(owner, attribute, self.span(getattr(owner, attribute), name))
        scheduler = importlib.import_module("repro.service.scheduler")
        submit = scheduler.SessionScheduler.submit
        tracer = self

        def traced_submit(self, name, fn):
            queued = time.perf_counter_ns()

            def job():
                tracer.record("service.scheduler.wait", time.perf_counter_ns() - queued)
                return fn()

            return submit(self, name, job)

        self.patch(scheduler.SessionScheduler, "submit", traced_submit)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attribute, previous = self._undo.pop()
            if previous is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def seconds(self, prefix: str, root: str | None = None) -> float:
        """Self seconds of spans named ``prefix...`` (under ``root``)."""
        with self._lock:
            total = sum(
                ns
                for (r, name), ns in self.self_ns.items()
                if name.startswith(prefix) and root in (None, r)
            )
        return total / 1e9

    def count(self, prefix: str, root: str | None = None) -> int:
        """Spans named ``prefix...`` (under ``root``)."""
        with self._lock:
            return sum(
                n
                for (r, name), n in self.calls.items()
                if name.startswith(prefix) and root in (None, r)
            )
