"""Evaluation baselines (§4.5).

* :class:`RandomCleaner` (RR) — random feature selection each step.
* :class:`FeatureImportanceCleaner` (FIR) — Shapley ranking on the dirty
  data, cleaned top-down.
* :class:`CometLight` (CL) — COMET's Estimator run once; the resulting
  static ranking drives all subsequent steps (a
  :class:`~repro.session.CleaningSession`, so revert, buffer replay and
  fallback are COMET's own).
* :class:`ActiveClean` (AC) — gradient-based record selection per Krishnan
  et al. (VLDB 2016), adapted to the feature-wise budget accounting.
* :class:`OracleCleaner` — the step-wise local optimum used as an upper
  reference.
"""

from repro.baselines.activeclean import ActiveClean
from repro.baselines.base import BaseCleaningStrategy
from repro.baselines.comet_light import CometLight
from repro.baselines.feature_importance import FeatureImportanceCleaner
from repro.baselines.oracle import OracleCleaner
from repro.baselines.random_rec import RandomCleaner

__all__ = [
    "BaseCleaningStrategy",
    "RandomCleaner",
    "FeatureImportanceCleaner",
    "CometLight",
    "ActiveClean",
    "OracleCleaner",
]
