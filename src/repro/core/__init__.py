"""COMET core: the paper's primary contribution (§3).

``Comet`` orchestrates the three modules of Figure 2 — the Polluter
(incremental pollution, §3.1), the Estimator (cleaning-impact estimation,
§3.2), and the Recommender (optimal feature selection, §3.3) — around a
Cleaner and a cleaning budget. It is a
:class:`~repro.session.CleaningSession`; its run state lives in
``comet.state``.
"""

from repro.core.comet import Comet
from repro.core.config import CometConfig
from repro.core.estimator import CometEstimator, Prediction
from repro.core.recommender import CometRecommender, ScoredCandidate
from repro.core.report import session_report
from repro.core.trace import CleaningTrace, IterationRecord

__all__ = [
    "Comet",
    "CometConfig",
    "CometEstimator",
    "Prediction",
    "CometRecommender",
    "ScoredCandidate",
    "CleaningTrace",
    "IterationRecord",
    "session_report",
]
