"""Stateful property test for the durable session service.

A bounded Hypothesis :class:`RuleBasedStateMachine` drives random
create/step/status/crash/restart/close sequences against a
``CometService`` wired to a ``DirectorySessionStore`` (exactly what
``serve --state-dir`` builds), alongside a *shadow* in-process session
constructed from the same parameters. The machine's contract:

- after any interleaving of clean and dirty (write-behind queue lost)
  crashes, the served session's trace is a bit-identical prefix of the
  shadow's — a resumed session replays lost iterations exactly;
- verbs against unknown or duplicate names fail with structured errors,
  never by corrupting the registry or the store;
- squeezing the shared (FD) cache to a starvation-level
  byte budget mid-run (``cache_pressure``) evicts entries but never
  surfaces an error or changes a single trace byte.

Kept deliberately small (a ~100-row slice, a handful of examples) so the
sweep stays in tier-1 territory; the exhaustive single-scenario variants
live in ``test_store.py``.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cache import DEFAULT_MAX_BYTES, cache_stats, set_cache_budget
from repro.experiments import Configuration, build_polluted
from repro.service import CometService
from repro.service.service import _SessionRecord
from repro.session import CleaningSession
from repro.store import DirectorySessionStore

_PARAMS = {
    "dataset": "cmc",
    "rows": 100,
    "algorithm": "lor",
    "budget": 10.0,
    "step": 0.05,
    "seed": 5,
}


def _shadow_session() -> CleaningSession:
    """The uninterrupted twin of what the ``create`` verb builds."""
    config = Configuration(
        dataset=_PARAMS["dataset"],
        algorithm=_PARAMS["algorithm"],
        error_types=("missing",),
        n_rows=_PARAMS["rows"],
        budget=_PARAMS["budget"],
        step=_PARAMS["step"],
    )
    dataset = build_polluted(config, seed=_PARAMS["seed"])
    return CleaningSession.create(
        dataset,
        algorithm=config.algorithm,
        error_types=list(config.error_types),
        budget=config.budget,
        cost_model=config.make_cost_model(),
        config=config.make_comet_config(),
        rng=_PARAMS["seed"],
    )


def _records(session: CleaningSession) -> list[dict]:
    trace = session.state.trace
    return [] if trace is None else [r.to_dict() for r in trace.records]


class DurableServiceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="repro-store-"))
        self.shadow: CleaningSession | None = None
        self._open_service()

    def _open_service(self) -> None:
        self.store = DirectorySessionStore(self.root)
        self.service = CometService(store=self.store)
        self.service.resume_persisted()

    def _compare_prefix(self) -> None:
        """The served trace must be a bit-identical prefix of the shadow's.

        The shadow is stepped lazily up to the served iteration first, so
        it is never behind; after a dirty crash the service may be behind
        the shadow — replaying must reproduce the shadow's records.
        """
        assert self.shadow is not None
        served = self.service.session("s")
        while (
            self.shadow.state.iteration < served.state.iteration
            and not self.shadow.is_finished
        ):
            self.shadow.step()
        served_records = _records(served)
        shadow_records = _records(self.shadow)
        assert served_records == shadow_records[: len(served_records)]

    # ------------------------------------------------------------------ #
    # rules
    # ------------------------------------------------------------------ #
    @precondition(lambda self: self.shadow is None)
    @rule()
    def create(self) -> None:
        response = self.service.handle(
            {"action": "create", "name": "s", "params": _PARAMS}
        )
        assert response["ok"], response
        self.shadow = _shadow_session()

    @precondition(lambda self: self.shadow is not None)
    @rule()
    def create_duplicate_is_structured_error(self) -> None:
        # Holds whether "s" is live or a cold post-crash marker: the
        # name is taken either way.
        response = self.service.handle(
            {"action": "create", "name": "s", "params": _PARAMS}
        )
        assert not response["ok"]
        assert response["error"]["type"] == "ValueError"
        assert "already exists" in response["error"]["message"]

    @rule()
    def step_unknown_is_structured_error(self) -> None:
        response = self.service.handle({"action": "step", "name": "ghost"})
        assert not response["ok"]
        assert response["error"]["type"] == "KeyError"

    @precondition(lambda self: self.shadow is not None)
    @rule()
    def step(self) -> None:
        response = self.service.handle({"action": "step", "name": "s"})
        assert response["ok"], response
        served = self.service.session("s")
        assert response["result"]["finished"] == served.is_finished
        self._compare_prefix()

    @precondition(lambda self: self.shadow is not None)
    @rule()
    def status(self) -> None:
        response = self.service.handle({"action": "status", "name": "s"})
        assert response["ok"], response
        self._compare_prefix()
        # Never ahead of the shadow: crashes only ever lose progress
        # (_compare_prefix just caught the shadow up to the service).
        assert response["result"]["iteration"] <= self.shadow.state.iteration

    @rule()
    def cache_pressure(self) -> None:
        """Shrink the shared cache to a starvation budget, then restore.

        Eviction is the quota's only enforcement mechanism: no verb may
        fail, and the next ``step``'s trace bytes (checked by
        ``_compare_prefix``) must not depend on what survived.
        """
        set_cache_budget(16 * 1024)
        assert cache_stats()["total_bytes"] <= 16 * 1024
        if self.shadow is not None:
            response = self.service.handle({"action": "step", "name": "s"})
            assert response["ok"], response
            self._compare_prefix()
        set_cache_budget(DEFAULT_MAX_BYTES)

    @rule()
    def crash_clean(self) -> None:
        """Kill after the write-behind queue drained: nothing is lost."""
        self.store.flush()
        self.store.abort()
        self.service.shutdown()
        self._open_service()

    @rule()
    def crash_dirty(self) -> None:
        """Kill with the queue possibly non-empty: the tail may be lost."""
        self.store.abort()
        self.service.shutdown()
        self._open_service()

    @precondition(lambda self: self.shadow is not None)
    @rule()
    def close_and_forget(self) -> None:
        response = self.service.handle({"action": "close", "name": "s"})
        assert response["ok"], response
        assert "s" not in self.store
        self.shadow.close()
        self.shadow = None

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def live_session_matches_shadow(self) -> None:
        # Only when the session is already live: the invariant must not
        # force rehydration, or the lazy path would never be exercised.
        if self.shadow is None:
            return
        with self.service._lock:
            record = self.service._sessions.get("s")
        if isinstance(record, _SessionRecord):
            self._compare_prefix()

    @invariant()
    def store_is_consistent(self) -> None:
        stats = self.store.stats()
        assert stats["write_errors"] == 0
        assert stats["last_error"] is None

    def teardown(self) -> None:
        try:
            self.service.shutdown()
        finally:
            set_cache_budget(DEFAULT_MAX_BYTES)
            shutil.rmtree(self.root, ignore_errors=True)


TestDurableService = DurableServiceMachine.TestCase
TestDurableService.settings = settings(
    max_examples=3, stateful_step_count=10, deadline=None
)
