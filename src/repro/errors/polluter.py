"""The Polluter module (§3.1): incremental feature-wise error injection.

``Polluter(d, f, Err, ρ) = d'_{f,ρ,c}`` — given input data, a feature, an
error type, and a pollution level, produce polluted data states, one per
sampled combination ``c`` of target cells. The Polluter has no knowledge of
which cells are already dirty, so it samples rows uniformly and may
overwrite existing errors (exactly the behaviour the paper analyses with
the hypergeometric argument in §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors.base import ErrorType
from repro.frame import DataFrame

__all__ = ["Polluter", "PollutedState"]


@dataclass
class PollutedState:
    """One polluted data state ``d'_{f,ρ,c}`` with its bookkeeping."""

    frame: DataFrame
    feature: str
    level: float
    combination: int
    #: Rows whose cells the Polluter overwrote (across all steps so far).
    rows: np.ndarray


class Polluter:
    """Inject a specific error type into one feature, step by step.

    Parameters
    ----------
    error:
        The error type to inject.
    step:
        Pollution step as a fraction of the data size; the paper sets 1 %.
    n_combinations:
        How many random cell combinations to sample per level (§3.1: the
        selection of entries may itself matter, so multiple combinations
        are measured and their effects averaged by the Estimator).
    """

    def __init__(
        self,
        error: ErrorType,
        step: float = 0.01,
        n_combinations: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not 0.0 < step <= 1.0:
            raise ValueError(f"step must be in (0, 1], got {step}")
        if n_combinations < 1:
            raise ValueError("n_combinations must be >= 1")
        self.error = error
        self.step = step
        self.n_combinations = n_combinations
        self._rng = np.random.default_rng(rng)

    def cells_per_step(self, frame: DataFrame) -> int:
        """Number of cells one pollution (or cleaning) step touches."""
        return max(1, int(round(self.step * frame.n_rows)))

    def pollute_once(
        self, frame: DataFrame, feature: str, rng: np.random.Generator | None = None
    ) -> tuple[DataFrame, np.ndarray]:
        """Apply one pollution step to ``feature``; returns (new frame, rows)."""
        rng = rng or self._rng
        column = frame[feature]
        if not self.error.applies_to(column):
            raise ValueError(
                f"error type {self.error.name!r} does not apply to column {feature!r}"
            )
        n_cells = self.cells_per_step(frame)
        rows = rng.choice(frame.n_rows, size=min(n_cells, frame.n_rows), replace=False)
        # Functional update: the returned state shares every untouched
        # column with ``frame`` (copy-on-write), so an incremental E1
        # trajectory costs one column per step, not one frame. The new
        # column is derived from ``frame``'s own, so it needs none of
        # ``with_column``'s checks.
        new_column = column.with_values(rows, self.error.corrupt(column, rows, rng))
        return frame._replacing(new_column), rows

    def incremental_states(
        self,
        frame: DataFrame,
        feature: str,
        n_steps: int = 2,
    ) -> list[list[PollutedState]]:
        """Produce ``n_steps`` cumulative pollution states per combination.

        Returns ``n_combinations`` trajectories; each trajectory is a list
        of :class:`PollutedState` at levels ``step, 2·step, …``. Within a
        trajectory the pollution is cumulative (state *k* extends state
        *k−1*), matching Figure 1's incremental pollution curve.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        trajectories = []
        for c in range(self.n_combinations):
            rng = np.random.default_rng(self._rng.integers(2**63))
            states = []
            current = frame
            # Accumulate touched rows in a boolean mask: flatnonzero gives
            # the same sorted-unique rows as re-uniting all step arrays,
            # at O(n) per step instead of O(total · log total).
            touched = np.zeros(frame.n_rows, dtype=bool)
            for k in range(1, n_steps + 1):
                current, rows = self.pollute_once(current, feature, rng=rng)
                touched[rows] = True
                states.append(
                    PollutedState(
                        frame=current,
                        feature=feature,
                        level=k * self.step,
                        combination=c,
                        rows=np.flatnonzero(touched),
                    )
                )
            trajectories.append(states)
        return trajectories
