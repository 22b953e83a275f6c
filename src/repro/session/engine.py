"""The session engine: advances a :class:`SessionState` through Figure 2.

One iteration: measure the current F1, run the Polluter + Estimator over
every open (feature, error) candidate, let the Recommender select by
score, have the Cleaner perform one cleaning step, keep it if the F1 did
not decrease, otherwise revert into the cleaning buffer and try the next
candidate; fall back to the historically best candidate when nothing is
predicted to help. Repeats until the budget is spent or the Cleaner has
marked every candidate clean.

The engine owns everything that must *not* be serialized — the execution
backend and the observers — while all evolving run state lives in the
:class:`~repro.session.SessionState` it advances. ``session.save(path)``
checkpoints mid-run; ``CleaningSession.load(path)`` resumes, and the
resumed trace is bit-identical to an uninterrupted run's (the
``repro.runtime`` determinism contract extended across process
boundaries and restarts).
"""

from __future__ import annotations

import numpy as np

from repro.cleaning import Budget, CleaningBuffer, CostModel, GroundTruthCleaner, uniform_cost_model
from repro.core.config import CometConfig
from repro.core.estimator import CometEstimator, Prediction
from repro.core.recommender import CometRecommender, ScoredCandidate
from repro.core.trace import CleaningTrace, IterationRecord
from repro.errors.base import ErrorType, make_error
from repro.errors.prepollution import PollutedDataset
from repro.ml.base import BaseEstimator
from repro.ml.model_selection import RandomSearch
from repro.ml.pipeline import TabularModel
from repro.ml.preprocessing import TabularPreprocessor
from repro.ml.registry import hyperparameter_space, make_classifier
from repro.runtime import ExecutionBackend, make_backend
from repro.session.state import SessionState

__all__ = ["CleaningSession", "SessionObserver"]


class SessionObserver:
    """Streaming progress hooks for a :class:`CleaningSession`.

    Subclass and override any subset; the engine calls every registered
    observer synchronously, in registration order, from the session's
    thread. Observers are engine-side objects — they are *not* part of
    the serialized state and must be re-registered after ``load``.
    """

    def on_iteration(self, session: "CleaningSession", records: list[IterationRecord]) -> None:
        """Called after each estimation sweep with the records it produced."""

    def on_accept(self, session: "CleaningSession", record: IterationRecord) -> None:
        """Called when a cleaning step is kept."""

    def on_revert(self, session: "CleaningSession", feature: str, error: str) -> None:
        """Called when a cleaning step is reverted into the buffer."""


def _tune_model(
    model: BaseEstimator,
    algorithm_name: str,
    dataset: PollutedDataset,
    config: CometConfig,
    seed: int,
) -> None:
    """The paper's 10-sample random hyperparameter search (§4.4)."""
    space = hyperparameter_space(algorithm_name)
    features = dataset.feature_names
    preprocessor = TabularPreprocessor(features).fit(dataset.train)
    X = preprocessor.transform(dataset.train)
    y = dataset.train.label_array(dataset.label)
    search = RandomSearch(model, space, n_iter=config.search_iterations, rng=seed)
    search.fit(X, y)
    model.set_params(**search.best_params_)


def resolve_setup(
    dataset: PollutedDataset, algorithm: str | BaseEstimator, error_types
) -> tuple[str, BaseEstimator, list[ErrorType], list[tuple[str, str]]]:
    """Resolve the model and error types; list the open candidates.

    Returns ``(algorithm_name, model, errors, active)``. Shared by every
    session and baseline constructor; draws no random numbers, so callers
    keep their own RNG draw order.
    """
    if isinstance(algorithm, str):
        algorithm_name = algorithm
        model = make_classifier(algorithm)
    else:
        algorithm_name = type(algorithm).__name__
        model = algorithm
    if not isinstance(error_types, (list, tuple)):
        error_types = [error_types]
    errors: list[ErrorType] = [
        make_error(e) if isinstance(e, str) else e for e in error_types
    ]
    if not errors:
        raise ValueError("need at least one error type")
    # COMET assumes every feature is dirty until the Cleaner marks it
    # clean (§3.1); candidates are all applicable (feature, error) pairs.
    active = [
        (feature, error.name)
        for feature in dataset.feature_names
        for error in errors
        if error.applies_to(dataset.train[feature])
    ]
    return algorithm_name, model, errors, active


def mark_if_clean(
    dataset: PollutedDataset, active: list[tuple[str, str]], pair: tuple[str, str]
) -> None:
    """Drop ``pair`` from ``active`` once the Cleaner observes no dirt left."""
    feature, error = pair
    if (
        dataset.dirty_train.dirty_count(feature, error) == 0
        and dataset.dirty_test.dirty_count(feature, error) == 0
        and pair in active
    ):
        active.remove(pair)


def new_state(
    dataset: PollutedDataset,
    algorithm: str | BaseEstimator = "svm",
    error_types=("missing",),
    budget: float = 50.0,
    cost_model: CostModel | None = None,
    config: CometConfig | None = None,
    rng: np.random.Generator | int | None = None,
    task: str = "classification",
    cleaner=None,
) -> SessionState:
    """The initial state of a fresh session (parameters as in ``Comet``).

    The order of RNG draws is load-bearing — cleaner seed, tuning seed
    (only when tuning), estimator seed — so every seeded constructor
    built on this function replays the same traces.
    """
    config = config or CometConfig()
    dataset = dataset.copy()
    session_rng = np.random.default_rng(rng)
    algorithm_name, model, errors, active = resolve_setup(
        dataset, algorithm, error_types
    )
    cleaner = cleaner or GroundTruthCleaner(
        step=config.step, rng=session_rng.integers(2**63)
    )
    if config.search_iterations > 0 and isinstance(algorithm, str):
        _tune_model(
            model, algorithm_name, dataset, config,
            seed=session_rng.integers(2**63),
        )
    return SessionState(
        config=config,
        task=task,
        algorithm_name=algorithm_name,
        model=model,
        errors=errors,
        dataset=dataset,
        budget=Budget(budget),
        cost_model=(cost_model or uniform_cost_model()).copy(),
        cleaner=cleaner,
        buffer=CleaningBuffer(),
        rng=session_rng,
        estimator_rng=np.random.default_rng(session_rng.integers(2**63)),
        active=active,
    )


class CleaningSession:
    """Advance a serializable cleaning-session state (the Figure-2 loop).

    Construct one of three ways:

    - :meth:`create` — start a fresh session from a polluted dataset
      (the parameters :class:`~repro.core.Comet` accepts — ``Comet`` is
      this class constructed that way, owning its backend);
    - :meth:`load` — resume a checkpoint written by :meth:`save`;
    - directly, wrapping an existing :class:`SessionState` — e.g. the
      :class:`~repro.service.CometService` wiring many sessions onto one
      shared backend.

    Parameters
    ----------
    state:
        The session state to advance (mutated in place).
    backend:
        Execution backend for the Estimator's E1 sweep: a registry name
        or an :class:`~repro.runtime.ExecutionBackend` instance. Traces
        are bit-identical across backends for a fixed state.
    jobs:
        Worker count for pooled backends; ``1`` falls back to serial.
    observers:
        Initial :class:`SessionObserver` instances.
    own_backend:
        Whether :meth:`close` shuts the backend down. Defaults to
        ``True`` for backends built here from a name and ``False`` for
        injected instances (which the injector — e.g. a service sharing
        one pool across sessions — is responsible for).
    """

    def __init__(
        self,
        state: SessionState,
        *,
        backend: str | ExecutionBackend = "serial",
        jobs: int = 1,
        observers=(),
        own_backend: bool | None = None,
    ) -> None:
        self.state = state
        if own_backend is None:
            own_backend = not isinstance(backend, ExecutionBackend)
        self._own_backend = own_backend
        self.backend = make_backend(backend, jobs)
        self._observers: list[SessionObserver] = list(observers)
        # Engine components share the state's RNGs and history dicts by
        # reference, so advancing them advances the checkpointable state.
        self.estimator = CometEstimator(
            state.model,
            label=state.dataset.label,
            config=state.config,
            rng=state.estimator_rng,
            task=state.task,
            history=state.estimator_history,
        )
        self.recommender = CometRecommender(
            state.config, history=state.recommender_history
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        dataset: PollutedDataset,
        algorithm: str | BaseEstimator = "svm",
        error_types=("missing",),
        budget: float = 50.0,
        cost_model: CostModel | None = None,
        config: CometConfig | None = None,
        rng: np.random.Generator | int | None = None,
        task: str = "classification",
        cleaner=None,
        *,
        backend: str | ExecutionBackend = "serial",
        jobs: int = 1,
        observers=(),
        own_backend: bool | None = None,
    ) -> "CleaningSession":
        """Start a fresh session (parameters as in :class:`~repro.core.Comet`)."""
        return cls._over(
            new_state(
                dataset, algorithm, error_types, budget, cost_model, config,
                rng, task, cleaner,
            ),
            backend=backend,
            jobs=jobs,
            observers=observers,
            own_backend=own_backend,
        )

    @classmethod
    def load(
        cls,
        path,
        *,
        backend: str | ExecutionBackend = "serial",
        jobs: int = 1,
        observers=(),
        own_backend: bool | None = None,
        migrate: bool = False,
    ) -> "CleaningSession":
        """Resume a checkpoint written by :meth:`save`.

        ``migrate=True`` upgrades old-but-migratable envelope versions
        in memory (see :mod:`repro.store.migrate`) instead of raising
        :class:`~repro.session.CheckpointVersionError`.
        """
        return cls._over(
            SessionState.load(path, migrate=migrate),
            backend=backend,
            jobs=jobs,
            observers=observers,
            own_backend=own_backend,
        )

    @classmethod
    def _over(cls, state: SessionState, **engine) -> "CleaningSession":
        """A ``cls`` advancing ``state``, whatever ``cls.__init__`` takes."""
        session = cls.__new__(cls)
        CleaningSession.__init__(session, state, **engine)
        return session

    def save(self, path, *, meta: dict | None = None) -> None:
        """Checkpoint the session state (resumable at iteration boundaries).

        ``meta`` extends the checkpoint's envelope header (see
        :meth:`SessionState.save`).
        """
        self.state.save(path, meta=meta)

    # ------------------------------------------------------------------ #
    # observers
    # ------------------------------------------------------------------ #
    def add_observer(self, observer: SessionObserver) -> None:
        """Register a streaming-progress observer."""
        self._observers.append(observer)

    def remove_observer(self, observer: SessionObserver) -> None:
        """Unregister a previously added observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def _notify(self, hook: str, *args) -> None:
        for observer in self._observers:
            getattr(observer, hook)(self, *args)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> CleaningTrace:
        """Iterate until the budget is spent or everything is marked clean.

        Continues an in-progress trace, so ``load → run`` finishes a
        checkpointed run exactly where ``save`` left off.
        """
        self._ensure_trace()
        while True:
            records = self.iterate()
            if not records:
                break
        return self.state.trace

    def step(self) -> IterationRecord | None:
        """Run one COMET iteration (single cleaning); ``None`` when over."""
        records = self.iterate(max_accepts=1)
        return records[0] if records else None

    def iterate(self, max_accepts: int | None = None) -> list[IterationRecord]:
        """One estimation sweep, cleaning up to ``max_accepts`` candidates.

        ``max_accepts`` defaults to ``config.batch_size``; values above 1
        implement the multi-feature-per-iteration extension (§6): the
        Polluter/Estimator sweep is paid once and several ranked
        candidates are cleaned from it. Produced records are appended to
        the session trace.
        """
        state = self.state
        if not state.active or state.budget.exhausted():
            return []
        if max_accepts is None:
            max_accepts = state.config.batch_size
        self._ensure_trace()
        baseline = self._baseline()
        predictions, ranked = self._rank(baseline)
        state.iteration += 1
        records = self._try_candidates(ranked, baseline, max_accepts)
        if not records:
            fallback = self._fallback(predictions, baseline)
            if fallback is not None:
                records = [fallback]
        self._notify("on_iteration", records)
        return records

    def recommend(self, k: int = 1) -> list[ScoredCandidate]:
        """Pure recommendation: the top-``k`` scored candidates, no cleaning.

        For human-in-the-loop use: inspect what COMET would clean next
        (with predicted F1, uncertainty, and cost) without touching data
        or budget.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.state.active:
            return []
        baseline = self._baseline()
        predictions = self._estimate_candidates(baseline)
        ranked = self.recommender.rank(predictions, baseline, self.state.cost_model)
        return ranked[:k]

    @property
    def trace(self) -> CleaningTrace | None:
        """The trace accumulated so far (``None`` before the first sweep)."""
        return self.state.trace

    @property
    def is_finished(self) -> bool:
        """True once the budget is spent or nothing is left to clean."""
        return self.state.is_finished

    def open_candidates(self) -> list[tuple[str, str]]:
        """(feature, error) pairs the Cleaner has not yet marked clean."""
        return self.state.open_candidates()

    def status(self) -> dict:
        """JSON-friendly progress snapshot of the session."""
        return self.state.status()

    def close(self) -> None:
        """Release the execution backend's worker pool (if owned).

        Safe to call repeatedly; the session stays usable afterwards
        (pooled backends restart lazily on the next sweep). Sessions
        sharing an injected backend leave it running for their siblings.
        """
        if self._own_backend:
            self.backend.shutdown()

    def __enter__(self) -> "CleaningSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ensure_trace(self) -> None:
        if self.state.trace is None:
            self.state.trace = CleaningTrace(initial_f1=self._baseline())

    def _keep(
        self,
        pair: tuple[str, str],
        cost: float,
        baseline: float,
        f1_after: float,
        **details,
    ) -> IterationRecord:
        """Accept a cleaning step; append its record to the trace, *then*
        announce it (``details`` are the record's optional fields).

        The trace entry lands before any observer runs, so an observer
        exception (or an observer reading ``session.trace``) can never
        see budget/data mutations that the trace does not yet reflect —
        a checkpoint taken afterwards stays resumable bit-identically.
        Without a trace (the loop driven piecewise) only observers run.
        """
        self._accept(pair, f1_after)
        record = IterationRecord(
            iteration=self.state.iteration,
            feature=pair[0],
            error=pair[1],
            cost=cost,
            budget_spent=self.state.budget.spent,
            f1_before=baseline,
            f1_after=f1_after,
            **details,
        )
        if self.state.trace is not None:
            self.state.trace.append(record)
        self._notify("on_accept", record)
        return record

    def _baseline(self) -> float:
        if self.state.current_f1 is None:
            self.state.current_f1 = self.measure_baseline()
        return self.state.current_f1

    def measure_baseline(self) -> float:
        """Fit on the current train split and score the test split."""
        state = self.state
        model = TabularModel(state.model, label=state.dataset.label, task=state.task)
        return model.fit_score(state.dataset.train, state.dataset.test)

    def _estimate_candidates(self, baseline: float) -> list[Prediction]:
        state = self.state
        error_by_name = {e.name: e for e in state.errors}
        candidates = [
            (feature, error_by_name[error_name])
            for feature, error_name in state.active
        ]
        return self.estimator.estimate_many(
            state.dataset.train,
            state.dataset.test,
            candidates,
            baseline,
            backend=self.backend,
        )

    def _rank(self, baseline: float) -> tuple[list[Prediction], list]:
        """Step (B): estimate every open candidate and rank by score; returns
        the predictions and the ``((feature, error), prediction)`` try order."""
        predictions = self._estimate_candidates(baseline)
        ranked = self.recommender.rank(predictions, baseline, self.state.cost_model)
        return predictions, [((c.feature, c.error), c.prediction) for c in ranked]

    def _try_candidates(
        self, ranked: list, baseline: float, max_accepts: int = 1
    ) -> list[IterationRecord]:
        """Steps (C) and (D): clean in ranked order, revert on decrease.

        Accepts up to ``max_accepts`` candidates from the same ranking;
        each accepted cleaning becomes the baseline for the next.
        """
        state = self.state
        records: list[IterationRecord] = []
        rejected: list[tuple[str, str]] = []
        for pair, prediction in ranked:
            if pair not in state.active:
                continue  # a previous accept in this sweep finished it
            from_buffer = pair in state.buffer
            if not from_buffer and not state.budget.can_afford(
                state.cost_model.next_cost(*pair)
            ):
                continue
            cost = self._perform_cleaning(*pair, prediction)
            f1_after = self.measure_baseline()
            if prediction is not None:
                self.estimator.record_outcome(prediction, f1_after)
            self.recommender.record_outcome(*pair, f1_after)
            if f1_after >= baseline - 1e-12 or not state.config.revert_on_decrease:
                records.append(self._keep(
                    pair, cost, baseline, f1_after,
                    predicted_f1=prediction.predicted_f1 if prediction else None,
                    from_buffer=from_buffer,
                    rejected=list(rejected),
                ))
                if len(records) >= max_accepts:
                    return records
                baseline = f1_after
                rejected = []
                continue
            self._revert_last(pair)
            rejected.append(pair)
        return records

    def _fallback(
        self, predictions: list[Prediction], baseline: float
    ) -> IterationRecord | None:
        """Step (E): clean the historically best candidate, keep the result."""
        state = self.state
        affordable = [
            pair
            for pair in state.active
            if (pair in state.buffer)
            or state.budget.can_afford(state.cost_model.next_cost(*pair))
        ]
        pair = self.recommender.fallback_candidate(affordable)
        if pair is None:
            return None
        prediction = next(
            (p for p in predictions if (p.feature, p.error) == pair), None
        )
        cost = self._perform_cleaning(*pair, prediction)
        f1_after = self.measure_baseline()
        if prediction is not None:
            self.estimator.record_outcome(prediction, f1_after)
        self.recommender.record_outcome(*pair, f1_after)
        return self._keep(
            pair, cost, baseline, f1_after,
            predicted_f1=prediction.predicted_f1 if prediction else None,
            used_fallback=True,
        )

    def _perform_cleaning(
        self, feature: str, error: str, prediction: Prediction | None
    ) -> float:
        """Replay from the buffer when possible, otherwise pay the Cleaner."""
        state = self.state
        buffered = state.buffer.pop(feature, error)
        if buffered is not None:
            state.cleaner.apply(state.dataset, buffered)
            state.last_action = buffered
            return 0.0
        cost = state.cost_model.record_step(feature, error)
        state.budget.charge(cost)
        priority = prediction.polluted_rows if prediction is not None else None
        state.last_action = state.cleaner.clean_step(
            state.dataset, feature, error, priority_train_rows=priority
        )
        return cost

    def _revert_last(self, pair: tuple[str, str]) -> None:
        state = self.state
        state.cleaner.revert(state.dataset, state.last_action)
        state.buffer.put(state.last_action)
        # The revert restores exactly the data state `current_f1` was
        # measured on (rejected trials never overwrite the memo — only
        # `_accept` does), so the cached baseline stays valid.
        self._notify("on_revert", pair[0], pair[1])

    def _accept(self, pair: tuple[str, str], f1_after: float) -> None:
        self.state.current_f1 = f1_after
        mark_if_clean(self.state.dataset, self.state.active, pair)
