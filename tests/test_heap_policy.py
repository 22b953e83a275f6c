"""The heap policy set at import keeps model fits from page-faulting.

``import repro`` fixes glibc's trim and mmap thresholds so the design
matrices each fit allocates and frees stay in the heap for the next fit
instead of being returned to the OS and faulted back in. The test counts
minor page faults (``ru_minflt``) rather than timing anything, so it
cannot flake on a slow or busy host.
"""

import os
import sys

import pytest

from repro.datasets import load_dataset, pollute
from repro.ml import TabularModel, make_classifier


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and _on_glibc()),
    reason="the heap policy applies to glibc on Linux only",
)

#: Without the heap policy these fits took about 10,700 minor faults.
MAX_FAULTS = 500
FITS = 20


def test_repeated_fits_do_not_fault_the_design_matrix_back_in():
    import resource

    polluted = pollute(
        load_dataset("churn", n_rows=3000),
        error_types=["missing", "categorical"],
        rng=0,
    )
    model = TabularModel(make_classifier("lir"), label=polluted.label)
    model.fit_score(polluted.train, polluted.test)  # warm caches and heap
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FITS):
        model.fit_score(polluted.train, polluted.test)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < MAX_FAULTS, f"{FITS} fits took {faults} minor faults"
