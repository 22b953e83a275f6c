"""Picklable units of work for the execution backends.

A :class:`FitScoreTask` freezes everything one model evaluation needs —
the estimator template, the label column, the task kind, and the train /
test frames — so :func:`run_fit_score_task` is a pure function of its
payload.  That purity is what lets the backends run tasks in any order
(or in other processes) while the session stays bit-identical to a
serial run: every data state and every random draw happened *before* the
task was built.

A task may also carry a *base*: the featurization of the sweep's
unpolluted state, from which it copies every column its own state
shares (:meth:`TabularModel.featurize`).  A serial sweep shares one
base across its tasks.  Pickling drops it, so process and distributed
payloads keep their size and workers featurize in full — with
byte-identical results, since the base only saves recomputation.  The
Estimator therefore builds a base only on the serial path.

Task frames are copy-on-write (:mod:`repro.frame`): states produced by
one E1 sweep share their untouched columns in the parent. The backends
pickle each task on its own, though (the process pool with a chunk size
of one, the distributed backend one frame per task), and pickle's memo
only spans one payload, so every task carries every column of its two
frames: about 318 KB per sweep-wide task (churn, 3000 rows), against
about 54 KB a task when a batch of ten is pickled together. The salted
identity tokens survive the trip, so a worker's columns keep the
identities the parent minted.

The same purity is what makes the distributed backend's fault tolerance
safe: :func:`run_fit_score_task` is importable by name in any worker
process (pickle-by-reference) and has no side effects, so a task whose
worker died mid-run can simply be requeued on another worker — the rerun
produces byte-identical results because every input was frozen into the
payload at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.frame import DataFrame
from repro.ml.base import BaseEstimator
from repro.ml.pipeline import Featurized, TabularModel

__all__ = ["FitScoreTask", "run_fit_score_task"]


@dataclass
class FitScoreTask:
    """One "fit on this frame, score on that frame" evaluation.

    Attributes
    ----------
    estimator:
        Unfitted estimator template (cloned inside the task run).
    label:
        Label column name.
    train, test:
        The (possibly polluted) data states to fit and score on.
    task:
        ``"classification"`` or ``"regression"``.
    tag:
        Opaque caller bookkeeping (e.g. ``(candidate_index, position)``);
        carried through untouched so results can be reassembled.
    base:
        Optional featurization of a state that shares columns with
        ``train``/``test`` (:meth:`TabularModel.featurize`); never pickled.
    """

    estimator: BaseEstimator
    label: str
    train: DataFrame
    test: DataFrame
    task: str = "classification"
    tag: Any = field(default=None, compare=False)
    base: Featurized | None = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "base": None}

    def run(self) -> float:
        """Execute the evaluation and return the task metric."""
        model = TabularModel(self.estimator, label=self.label, task=self.task)
        return model.fit_score(self.train, self.test, base=self.base)


def run_fit_score_task(task: FitScoreTask) -> float:
    """Module-level runner (process backends need a picklable callable)."""
    return task.run()
