"""A minimal typed column-store dataframe with copy-on-write sharing.

The environment that hosts this reproduction does not ship pandas, so this
subpackage provides the small slice of dataframe functionality that COMET
needs: typed columns (numeric and categorical) with missing-value masks,
row/column selection, copying, and CSV round-tripping.

Frame copies are copy-on-write: polluted/cleaned states share untouched
column storage with their parents, and each column content state carries a
process-unique ``(token, version)`` identity that changes only on mutation.
Per-column integer codes (:meth:`Column.codes`) and the FD pair-stats
cache are keyed on those tokens, so mostly-shared data states reuse them.
"""

from repro.frame.column import Column, ColumnKind
from repro.frame.dataframe import DataFrame
from repro.frame.io import read_csv, write_csv

__all__ = ["Column", "ColumnKind", "DataFrame", "read_csv", "write_csv"]
