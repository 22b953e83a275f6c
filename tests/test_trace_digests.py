"""Pinned trace digests for COMET, CL, and the pick-and-clean baselines.

Each digest is the sha256 of ``json.dumps(trace.to_dict(), sort_keys=True)``
for a small seeded run. A refactor of the cleaning loop, the session
constructors, or the baseline setup must leave every digest unchanged; a
deliberate behavior change updates them together with the figures.
"""

import hashlib
import json

import pytest

from repro import load_dataset, pollute
from repro.baselines import (
    ActiveClean,
    CometLight,
    FeatureImportanceCleaner,
    OracleCleaner,
    RandomCleaner,
)
from repro.core import Comet, CometConfig


def _digest(trace):
    payload = json.dumps(trace.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _polluted(name, rows, errors, seed):
    dataset = load_dataset(name, n_rows=rows, rng=0)
    return pollute(dataset, error_types=list(errors), rng=seed)


# (dataset, algorithm, rows, error types, pollution seed, budget, step)
CL_RUNS = {
    # a buffered step is replayed for free
    "cmc-lor-buffer": (
        ("cmc", "lor", 160, ("missing",), 1, 8.0, 0.03),
        "4012d2954c1a65e53f69f34619a442de2f219d82aaea730bc23b6bd4615cd3b6",
    ),
    # rejected steps and a fallback
    "cmc-lor-fallback": (
        ("cmc", "lor", 160, ("missing",), 3, 8.0, 0.03),
        "ab1c3f7caaafbdc03e7dab2c1bf367ca4ee6775ebe90ca69fc601d7b15a7da3e",
    ),
    "cmc-lor-multi": (
        ("cmc", "lor", 160, ("missing", "categorical"), 4, 6.0, 0.03),
        "887531b799639ff62b6758f7e85a4be96e2fbd146f697320d325b038f8d852e0",
    ),
    "eeg-mlp": (
        ("eeg", "mlp", 120, ("missing",), 3, 6.0, 0.05),
        "734f2b218d227f24bb552b147d10c736efbf48d1f8c5c23101a681e0073b73c6",
    ),
}

BASELINE_DIGESTS = {
    RandomCleaner: "b9960e9beedc7f2fda977fa38747d4dbab801ef2c3e53f5e34532ee622cd4be6",
    FeatureImportanceCleaner: "5e32d1ef19fb5859247ec5b8dfa58e30083102f60cf5b6f2d4a5fe4e7ec445b6",
    OracleCleaner: "b1b9c3173e1b06aff8191570791129ffa04a44ad24f9e1d6c02181cfbe81d709",
    ActiveClean: "c0be9dae7f145d84878fbda17711f86af56267d24db1bd587026d85b0057fec8",
}


@pytest.fixture(scope="module")
def cmc_missing():
    return _polluted("cmc", 160, ("missing",), 1)


@pytest.mark.parametrize("key", sorted(CL_RUNS))
def test_comet_light_trace_pinned(key):
    (name, algorithm, rows, errors, seed, budget, step), expected = CL_RUNS[key]
    trace = CometLight(
        _polluted(name, rows, errors, seed),
        algorithm=algorithm,
        error_types=list(errors),
        budget=budget,
        step=step,
        rng=0,
        config=CometConfig(step=step),
    ).run()
    assert _digest(trace) == expected


def test_comet_trace_pinned(cmc_missing):
    with Comet(cmc_missing, algorithm="lor", error_types=["missing"], budget=8.0,
               config=CometConfig(step=0.03), rng=0) as comet:
        trace = comet.run()
    assert _digest(trace) == (
        "1046a4289bc9a265f34af38502a362467e8ce18b82c0f5303ace5e94efaac885"
    )


@pytest.mark.parametrize(
    "cls", list(BASELINE_DIGESTS), ids=lambda cls: cls.__name__
)
def test_baseline_trace_pinned(cls, cmc_missing):
    trace = cls(cmc_missing, algorithm="lor", error_types=["missing"],
                budget=6.0, step=0.03, rng=0).run()
    assert _digest(trace) == BASELINE_DIGESTS[cls]
