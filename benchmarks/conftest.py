"""Benchmark-suite configuration: pin BLAS to one thread, make the helpers
importable.

The figure suites fan settings out over a process pool sized to the CPU
count. A multi-threaded BLAS inside every pool worker oversubscribes the
host (two workers × two BLAS threads on two CPUs ran a Figure-3 case
about 6× slower). The pin is set before numpy loads, so forked and
spawned workers inherit it; an explicit setting in the environment wins.
"""

import os
import sys
from pathlib import Path

for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_variable, "1")

sys.path.insert(0, str(Path(__file__).parent))
