"""A minimal column-store dataframe."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.frame.column import Column, ColumnKind

__all__ = ["DataFrame"]


class DataFrame:
    """An ordered collection of equal-length :class:`Column` objects.

    Supports exactly the operations COMET and its baselines need: column
    access and replacement, row selection, copying, and conversion of the
    label column into a numpy array. Construction accepts either columns or
    a mapping of name → values.

    Frames are copy-on-write: ``copy``/``select``/``drop``/``with_column``
    share untouched column storage with the source frame instead of
    deep-copying it, and the first in-place mutation of a shared column
    materializes private arrays (see :class:`Column`). Mutation through
    one frame is therefore never visible through another, while a
    polluted or cleaned frame that differs from its parent in one column
    costs one column — not one frame — of memory.
    """

    def __init__(self, columns: Iterable[Column] | Mapping[str, Iterable]) -> None:
        if isinstance(columns, Mapping):
            cols = []
            for name, values in columns.items():
                if isinstance(values, Column):
                    # Share, never deep-copy: renaming happens on the
                    # share, so the caller's column keeps its own name.
                    cols.append(values.share(name=name))
                else:
                    cols.append(Column(name, values))
        else:
            cols = list(columns)
        if not cols:
            raise ValueError("a DataFrame needs at least one column")
        lengths = {len(c) for c in cols}
        if len(lengths) != 1:
            raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")
        self._columns: dict[str, Column] = {c.name: c for c in cols}
        self._n_rows = lengths.pop()

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        return self._columns[name]

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns.values())

    def __repr__(self) -> str:
        return f"DataFrame({self.n_rows} rows x {self.n_columns} columns)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataFrame):
            return NotImplemented
        return self.column_names == other.column_names and all(
            self[n] == other[n] for n in self.column_names
        )

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def column_names(self) -> list[str]:
        """Column names, in order."""
        return list(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_columns)``."""
        return (self._n_rows, self.n_columns)

    def numeric_columns(self) -> list[str]:
        """Names of the numeric columns."""
        return [c.name for c in self if c.kind is ColumnKind.NUMERIC]

    def categorical_columns(self) -> list[str]:
        """Names of the categorical columns."""
        return [c.name for c in self if c.kind is ColumnKind.CATEGORICAL]

    # ------------------------------------------------------------------ #
    # selection and mutation
    # ------------------------------------------------------------------ #
    def select(self, names: Sequence[str]) -> "DataFrame":
        """Return a dataframe with only the given columns (COW shares)."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise KeyError(f"unknown columns: {missing}")
        return DataFrame([self._columns[n].share() for n in names])

    def drop(self, names: Sequence[str] | str) -> "DataFrame":
        """Return a dataframe without the given columns (COW shares)."""
        if isinstance(names, str):
            names = [names]
        keep = [n for n in self.column_names if n not in set(names)]
        if len(keep) == self.n_columns:
            raise KeyError(f"none of {list(names)} are columns of this frame")
        return self.select(keep)

    def take(self, indices: Sequence[int] | np.ndarray) -> "DataFrame":
        """Return a dataframe with the given rows, in order (copied)."""
        idx = np.asarray(indices)
        return DataFrame([c.take(idx) for c in self])

    def copy(self) -> "DataFrame":
        """An independent frame (copy-on-write shares, O(columns)).

        Mutating either frame never affects the other; untouched columns
        keep sharing storage (and identity tokens) until first write.
        """
        return DataFrame([c.share() for c in self])

    def with_column(self, column: Column) -> "DataFrame":
        """Return a copy with ``column`` replacing or appending by name.

        The untouched sibling columns are shared, not copied — the new
        frame costs one column. ``column`` itself is adopted by
        reference; the caller hands over ownership.
        """
        if len(column) != self._n_rows:
            raise ValueError(
                f"column {column.name!r} has {len(column)} rows, frame has {self._n_rows}"
            )
        cols = [column if c.name == column.name else c.share() for c in self]
        if column.name not in self._columns:
            cols.append(column)
        return DataFrame(cols)

    def set_column(self, column: Column) -> None:
        """Replace or append ``column`` in place."""
        if len(column) != self._n_rows:
            raise ValueError(
                f"column {column.name!r} has {len(column)} rows, frame has {self._n_rows}"
            )
        self._columns[column.name] = column

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #
    def label_array(self, label: str) -> np.ndarray:
        """Encode the label column as an int array of class indices."""
        col = self._columns[label]
        if col.n_missing:
            raise ValueError(f"label column {label!r} contains missing values")
        if col.is_numeric:
            return np.unique(col.values, return_inverse=True)[1].astype(int)
        return col.codes()[0].astype(int)

    def to_dict(self) -> dict[str, list]:
        """Plain-python representation (used by the CSV writer and tests)."""
        out: dict[str, list] = {}
        for col in self:
            if col.is_numeric:
                out[col.name] = [
                    None if m else float(v) for v, m in zip(col.values, col.missing_mask)
                ]
            else:
                out[col.name] = list(col.values)
        return out
