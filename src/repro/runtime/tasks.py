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
shares (:meth:`TabularModel.featurize`).  The Estimator gives every
task of a sweep the same base and maps the sweep as one contiguous
*share* per backend worker, each share one mapped item.  Task frames
are copy-on-write (:mod:`repro.frame`): a sweep's states share their
untouched columns with the base frames.  Pickle's memo spans one
payload, so a share carries the base and every shared column once, plus
the one polluted column of each task, and a worker splices exactly as
the parent does.  The salted identity tokens survive the trip, so a
worker's columns keep the identities the parent minted and still match
the base's.

The same purity is what makes the distributed backend's fault tolerance
safe: a share's runner is importable by name in any worker process
(pickle-by-reference) and has no side effects, so a share whose worker
died mid-run can simply be requeued on another worker — the rerun
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
        ``train``/``test`` (:meth:`TabularModel.featurize`).
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

    def run(self) -> float:
        """Execute the evaluation and return the task metric."""
        model = TabularModel(self.estimator, label=self.label, task=self.task)
        return model.fit_score(self.train, self.test, base=self.base)


def run_fit_score_task(task: FitScoreTask) -> float:
    """Module-level runner (process backends need a picklable callable)."""
    return task.run()
