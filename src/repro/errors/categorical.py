"""Categorical-shift errors (§3.4): categories swapped for wrong ones."""

from __future__ import annotations

import numpy as np

from repro.errors.base import ErrorType, register_error
from repro.frame import Column

__all__ = ["CategoricalShift"]


@register_error
class CategoricalShift(ErrorType):
    """Swap each selected cell's category for a different one.

    The replacement is drawn uniformly from the column's other observed
    categories; single-category columns cannot shift, so cells keep their
    value in that degenerate case.
    """

    name = "categorical"

    def applies_to(self, column: Column) -> bool:
        """Whether this error type can occur in ``column``."""
        return column.is_categorical and len(column.categories()) >= 2

    def corrupt(
        self, column: Column, rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        codes, cats = column.codes()
        m = len(cats)
        if m < 2:
            return column.values[rows].copy()
        sel = codes[rows]
        # One draw per row, bounded per row: a missing cell (code -1)
        # draws from all m categories, a known one from the m - 1 others.
        # An array bound consumes the stream as per-row scalar draws do.
        # A draw of j for a known cell picks the j-th category of the
        # sorted list with the cell's own category removed.
        draws = rng.integers(np.where(sel < 0, m, m - 1))
        return np.array(cats, dtype=object)[draws + ((sel >= 0) & (draws >= sel))]
