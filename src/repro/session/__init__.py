"""Session protocol: serializable cleaning state plus the engine advancing it.

The Figure-2 loop is split into two halves:

- :class:`SessionState` — a plain dataclass holding everything a run
  needs to continue (dataset, budget, buffer, candidates, outcome
  history, trace, RNG bit-generator state). Pickle-serializable and
  checkpointable via ``state.save(path)``.
- :class:`CleaningSession` — the engine that advances a state: the
  orchestration loop, the execution backend, and the
  :class:`SessionObserver` streaming hooks.

``CleaningSession.load(path)`` resumes a checkpoint *bit-identically*:
the resumed run's :class:`~repro.core.trace.CleaningTrace` equals the
uninterrupted run's, across serial and pooled backends — the
``repro.runtime`` determinism contract extended across restarts.

:class:`~repro.core.Comet` is a ``CleaningSession`` built from the
paper's parameters, and :class:`~repro.baselines.CometLight` one that
walks a static ranking; :class:`~repro.service.CometService` serves many
named sessions over one shared backend.
"""

from repro.session.engine import CleaningSession, SessionObserver
from repro.session.state import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointVersionError,
    SessionState,
)

__all__ = [
    "CleaningSession",
    "SessionObserver",
    "SessionState",
    "CheckpointVersionError",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
]
