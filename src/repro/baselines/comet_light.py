"""CL: the light version of COMET (§4.5).

COMET's Estimator runs exactly once, on the initial dirty data, producing a
static ranked candidate list. Every subsequent step cleans the
highest-ranked candidate that is still open — with COMET's revert-to-buffer
and fallback behaviour, but without re-estimating. The ranking therefore
goes stale as the data changes, the effect §5.2 observes on EEG.

CL is a :class:`~repro.session.CleaningSession` that ranks once and then
walks that ranking; the iteration, cleaning, reverting, accepting and the
fallback are the engine's. Unlike COMET it always reverts a decrease and
keeps at most one step per iteration (whatever ``config`` says), and its
records carry no ``predicted_f1``. Its ranking lives on the instance, not
in the session state, so a CL run cannot be checkpointed, resumed, or
asked for recommendations.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cleaning import CostModel, GroundTruthCleaner
from repro.core.config import CometConfig
from repro.errors.prepollution import PollutedDataset
from repro.ml.base import BaseEstimator
from repro.session.engine import CleaningSession, new_state

__all__ = ["CometLight"]


class CometLight(CleaningSession):
    """Static one-shot COMET ranking, dynamic cleaning loop."""

    #: The one-shot ranking, computed on the first iteration.
    _ranking: list[tuple[str, str]] | None = None

    def __init__(
        self,
        dataset: PollutedDataset,
        algorithm: str | BaseEstimator = "svm",
        error_types=("missing",),
        budget: float = 50.0,
        cost_model: CostModel | None = None,
        step: float = 0.01,
        rng: np.random.Generator | int | None = None,
        config: CometConfig | None = None,
    ) -> None:
        rng = np.random.default_rng(rng)
        # The Cleaner steps by ``step`` (as for every baseline), the
        # Estimator by ``config.step``.
        cleaner = GroundTruthCleaner(step=step, rng=rng.integers(2**63))
        config = replace(
            config or CometConfig(step=step), revert_on_decrease=True, batch_size=1
        )
        super().__init__(
            new_state(
                dataset, algorithm, error_types, budget, cost_model, config, rng,
                cleaner=cleaner,
            )
        )

    def _rank(self, baseline: float) -> tuple[list, list]:
        """The open pairs in one-shot ranking order (no predictions)."""
        state = self.state
        if self._ranking is None:
            scored = self.recommender.rank(
                self._estimate_candidates(baseline), baseline, state.cost_model
            )
            self._ranking = [(c.feature, c.error) for c in scored]
            # Non-positive candidates go after the scored ones, in stable order.
            self._ranking += [p for p in state.active if p not in self._ranking]
        return [], [(p, None) for p in self._ranking if p in state.active]

    def save(self, path, *, meta: dict | None = None) -> None:
        raise NotImplementedError("CL runs are not checkpointable")

    @classmethod
    def load(cls, path, **engine) -> "CometLight":
        raise NotImplementedError("CL runs are not checkpointable")

    def recommend(self, k: int = 1) -> list:
        raise NotImplementedError("CL cleans in its one-shot order; it recommends nothing")
