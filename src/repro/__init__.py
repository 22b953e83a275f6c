"""COMET reproduction: step-by-step data cleaning recommendations for ML.

Reproduces Mohammed, Naumann & Harmouch, "Step-by-Step Data Cleaning
Recommendations to Improve ML Prediction Accuracy" (EDBT 2025), including
every substrate the paper relies on: a mini dataframe, from-scratch ML
algorithms, Bayesian regression, Shapley values, the JENGA-style error
injector, cost models, the COMET loop itself, and all evaluation baselines.

Quickstart::

    from repro import load_dataset, pollute, Comet

    dataset = pollute(load_dataset("cmc", rng=0), error_types=["missing"], rng=0)
    comet = Comet(dataset, algorithm="svm", error_types=["missing"], budget=20, rng=0)
    trace = comet.run()
    print(trace.initial_f1, "->", trace.final_f1)
"""

from repro.cache import cache_stats, clear_shared_cache, set_cache_budget
from repro.cleaning import Budget, CostModel, paper_cost_model, uniform_cost_model
from repro.core import CleaningTrace, Comet, CometConfig
from repro.datasets import dataset_summaries, load_dataset, pollute
from repro.errors import PollutedDataset, Polluter, PrePollution
from repro.frame import Column, DataFrame
from repro.kernels import kernel_mode, set_kernel_mode, use_kernels
from repro.runtime import available_backends, make_backend
from repro.security import TransportSecurity, generate_token, load_token
from repro.service import CometClient, CometService, SessionQuotas
from repro.session import (
    CheckpointVersionError,
    CleaningSession,
    SessionObserver,
    SessionState,
)
from repro.store import DirectorySessionStore, SessionStore

__version__ = "1.0.0"

__all__ = [
    "Comet",
    "CometConfig",
    "CleaningSession",
    "SessionState",
    "SessionObserver",
    "CheckpointVersionError",
    "CometService",
    "CometClient",
    "SessionQuotas",
    "SessionStore",
    "DirectorySessionStore",
    "CleaningTrace",
    "Budget",
    "CostModel",
    "paper_cost_model",
    "uniform_cost_model",
    "PrePollution",
    "PollutedDataset",
    "Polluter",
    "DataFrame",
    "Column",
    "load_dataset",
    "pollute",
    "dataset_summaries",
    "make_backend",
    "available_backends",
    "kernel_mode",
    "set_kernel_mode",
    "use_kernels",
    "cache_stats",
    "set_cache_budget",
    "clear_shared_cache",
    "TransportSecurity",
    "generate_token",
    "load_token",
    "__version__",
]


def _keep_freed_memory_in_heap() -> None:
    """Stop glibc from returning freed model matrices to the OS.

    Every fit allocates and frees design matrices of a megabyte or more.
    glibc serves such blocks with ``mmap`` or trims them off the heap top
    on ``free``, so the next fit page-faults the same memory back in:
    over a million minor faults in a 20-second sweep of lir fits on a
    wide one-hot matrix. Fixing the trim threshold (64 MiB) and the mmap
    threshold (32 MiB, glibc's maximum) keeps freed blocks in the heap
    for reuse. Both must be set: fixing only the mmap threshold turns off
    glibc's dynamic trim tuning and faults more. Elsewhere a no-op.
    """
    import ctypes
    import os

    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_trim_threshold, 64 << 20)
    mallopt(m_mmap_threshold, 32 << 20)


_keep_freed_memory_in_heap()
