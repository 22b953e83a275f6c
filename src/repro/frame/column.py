"""Typed columns with explicit missing-value masks and version tokens.

Columns are *structurally shared* across frames: :meth:`Column.copy` (and
every frame-level copy built on it) returns a new ``Column`` object that
shares the underlying value/mask arrays with the original, and the
in-place mutators materialize private arrays on first write — classic
copy-on-write. Each content state carries a process-unique identity
``(token, version)`` that changes *only* on mutation, so downstream code
(the integer-codes cache below, the FD pair-stats cache in
:mod:`repro.detect.fd`) can decide "same content as last time?" in O(1)
instead of re-digesting the bytes.

The integer-codes cache is keyed on the token, so a mutation cannot
leave stale codes behind. A categorical write whose cells all name
existing string categories (or are missing) *carries* the codes to the
new token instead of dropping them: the written cells are looked up in
the category table and categories that no longer occur are compacted
out, which equals a from-scratch rebuild. Any other write drops the
cache and the next :meth:`Column.codes` call rebuilds it.

Token safety rules, which together make ``token == token`` imply
"identical content" everywhere a token can travel:

* tokens are minted from a per-process random salt plus a monotonic
  counter, so two processes (or a parent and its forked worker — the
  salt is re-drawn ``after_in_child``) can never mint the same token;
* every mutation mints a fresh token, so a token never survives a
  content change;
* pickling preserves tokens, which is safe *because* of the two rules
  above — a frame shipped to a process-pool worker keeps its identity,
  and worker-side caches hit across tasks that share columns.
"""

from __future__ import annotations

import enum
import itertools
import os
from typing import Iterable, Sequence

import numpy as np

__all__ = ["ColumnKind", "Column"]


# ---------------------------------------------------------------------- #
# identity tokens
# ---------------------------------------------------------------------- #
_TOKEN_SALT = os.urandom(16)
#: ``count().__next__`` is atomic under the GIL, so minting is thread-safe.
_TOKEN_COUNTER = itertools.count()


def _mint_token() -> bytes:
    """A process-unique 24-byte identity for one column content state."""
    return _TOKEN_SALT + next(_TOKEN_COUNTER).to_bytes(8, "little")


def _reseed_token_salt() -> None:
    global _TOKEN_SALT
    _TOKEN_SALT = os.urandom(16)


if hasattr(os, "register_at_fork"):  # forked workers must not reuse our salt
    os.register_at_fork(after_in_child=_reseed_token_salt)


class ColumnKind(enum.Enum):
    """The two column types COMET distinguishes.

    The paper's error types are kind-specific: Gaussian noise and scaling
    apply to numeric columns, categorical shift applies to categorical
    columns, and missing values apply to both.
    """

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


class Column:
    """A single dataframe column: values plus a missing mask.

    Categorical columns additionally expose :meth:`codes` — a cached
    integer encoding of the values used by the vectorized cleaning
    kernels and the preprocessor — keyed on the ``(token, version)``
    identity and carried through writes that add no new category (see
    the module docstring), so it is sorted from scratch at most once per
    content state and usually once per column lineage.

    Numeric columns store ``float64`` values; missing cells additionally hold
    ``nan`` so that downstream numeric code never reads a stale value.
    Categorical columns store object values (typically strings); missing
    cells hold ``None``.

    Parameters
    ----------
    name:
        Column name, unique within a :class:`~repro.frame.DataFrame`.
    values:
        Cell values. ``nan``/``None`` entries are recorded as missing.
    kind:
        Explicit kind; inferred from the values' dtype when omitted.
    """

    def __init__(
        self,
        name: str,
        values: Iterable,
        kind: ColumnKind | None = None,
    ) -> None:
        self.name = name
        raw = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if kind is None:
            kind = _infer_kind(raw)
        self.kind = kind
        if kind is ColumnKind.NUMERIC:
            self._values = raw.astype(float)
            self._missing = np.isnan(self._values)
        else:
            self._values = raw.astype(object)
            self._missing = np.array([_is_missing_value(v) for v in self._values], dtype=bool)
            self._values[self._missing] = None
        self._token = _mint_token()
        self._version = 0
        self._shared = False

    #: Per-content-state integer-codes cache ``(token, codes, categories)``.
    #: A class-level default keeps legacy pickles and ``__new__``-built
    #: instances consistent without touching ``__setstate__``.
    _codes_cache: tuple | None = None

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, kind={self.kind.value}, n={len(self)}, missing={int(self.n_missing)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind != other.kind or len(self) != len(other):
            return False
        if not np.array_equal(self._missing, other._missing):
            return False
        present = ~self._missing
        if self.kind is ColumnKind.NUMERIC:
            return bool(np.allclose(self._values[present], other._values[present]))
        return bool(np.array_equal(self._values[present], other._values[present]))

    def __getstate__(self) -> dict:
        # The codes cache is derived data and stays out of pickles; a
        # receiving process rebuilds it (one object sort per categorical
        # column) on first use.
        state = self.__dict__.copy()
        state.pop("_codes_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickles carry tokens (safe: salted minting makes them unique
        # across processes, and pickle's memo rebuilds array sharing).
        # Legacy pickles from before column versioning lack an identity —
        # mint one so every live Column has an O(1) identity.
        self.__dict__.update(state)
        if "_token" not in state:
            self._token = _mint_token()
            self._version = 0
            self._shared = False

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The raw value array (read it, do not mutate it in place).

        Under copy-on-write the array may be shared with other columns;
        writing through this view would corrupt them *and* stale the
        version token. Use :meth:`set_values` / :meth:`with_values`.
        """
        return self._values

    @property
    def missing_mask(self) -> np.ndarray:
        """Boolean mask of missing cells (shared; do not mutate)."""
        return self._missing

    @property
    def n_missing(self) -> int:
        """Number of missing cells."""
        return int(self._missing.sum())

    @property
    def is_numeric(self) -> bool:
        """True for numeric columns."""
        return self.kind is ColumnKind.NUMERIC

    @property
    def is_categorical(self) -> bool:
        """True for categorical columns."""
        return self.kind is ColumnKind.CATEGORICAL

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def token(self) -> bytes:
        """Process-unique content identity; equal tokens ⇒ equal content."""
        return self._token

    @property
    def version(self) -> int:
        """How many times this column object has been mutated in place."""
        return self._version

    @property
    def shares_storage(self) -> bool:
        """True while the value arrays may be shared with another column."""
        return self._shared

    def categories(self) -> list:
        """Sorted distinct non-missing values (categorical convenience).

        A copy of the category list of :meth:`codes`, so it costs nothing
        once the codes are cached.
        """
        return list(self.codes()[1])

    def codes(self) -> tuple[np.ndarray, list]:
        """Integer codes of the values plus the category list.

        Returns ``(codes, categories)`` where ``codes[i]`` indexes
        ``categories`` (the exact :meth:`categories` ordering) and
        missing cells carry ``-1``. The result is cached per content
        state — the cache key is the column's identity token, so any
        mutation (which mints a fresh token) invalidates it for free,
        and copy-on-write shares inherit the cache along with the
        storage. The returned arrays are owned by the cache: read them,
        do not mutate them.
        """
        cached = self._codes_cache
        if cached is not None and cached[0] == self._token:
            return cached[1], cached[2]
        present = ~self._missing
        values = self._values[present]
        cats = sorted(set(values.tolist()), key=str)
        codes = np.full(len(self._values), -1, dtype=np.intp)
        if cats:
            inverse = None
            try:
                uniques, inverse = np.unique(values, return_inverse=True)
                # np.unique sorts naturally; categories() sorts by str.
                # They coincide for homogeneous string data (the normal
                # case) — verify cheaply and fall back when they differ.
                if len(uniques) != len(cats) or not all(
                    u is c or u == c for u, c in zip(uniques.tolist(), cats)
                ):
                    inverse = None
            except TypeError:  # un-orderable mixed types
                inverse = None
            if inverse is None:
                mapping = {c: i for i, c in enumerate(cats)}
                inverse = np.array([mapping[v] for v in values.tolist()], dtype=np.intp)
            codes[present] = inverse
        self._codes_cache = (self._token, codes, cats)
        return codes, cats

    def take(self, indices: Sequence[int] | np.ndarray) -> "Column":
        """Return a new column containing the given rows, in order."""
        idx = np.asarray(indices)
        # Fancy indexing already allocates fresh arrays — no copy needed.
        return self._rebuild(self._values[idx], self._missing[idx])

    def copy(self) -> "Column":
        """An independent column (copy-on-write share, O(1)).

        Mutating the copy never affects the original and vice versa; the
        backing arrays are shared until either side first mutates.
        """
        return self.share()

    def share(self, name: str | None = None) -> "Column":
        """Structurally share this column under ``name`` (default: same).

        Both columns keep the same ``(token, version)`` identity — they
        are the same content — and both are flagged as shared so the
        first in-place mutation on either side materializes private
        arrays first.
        """
        out = Column.__new__(Column)
        out.name = self.name if name is None else name
        out.kind = self.kind
        out._values = self._values
        out._missing = self._missing
        out._token = self._token
        out._version = self._version
        out._shared = True
        out._codes_cache = self._codes_cache
        self._shared = True
        return out

    def _rebuild(self, values: np.ndarray, missing: np.ndarray) -> "Column":
        """A fresh column (new identity) around already-owned arrays."""
        out = Column.__new__(Column)
        out.name = self.name
        out.kind = self.kind
        out._values = values
        out._missing = missing
        out._token = _mint_token()
        out._version = 0
        out._shared = False
        return out

    # ------------------------------------------------------------------ #
    # mutation (used by the Polluter and the Cleaner)
    # ------------------------------------------------------------------ #
    def _materialize(self) -> None:
        """Copy-on-write barrier: own the arrays before the first write."""
        if self._shared:
            self._values = self._values.copy()
            self._missing = self._missing.copy()
            self._shared = False

    def _bump(self, carried: tuple | None = None) -> None:
        """Mutation happened: mint a fresh token, advance the version.

        ``carried`` is the post-write ``(codes, categories)`` when the
        writer could derive it (:meth:`_carry_codes`); otherwise the
        codes cache is dropped.
        """
        self._token = _mint_token()
        self._version += 1
        self._codes_cache = None if carried is None else (self._token, *carried)

    def _carry_codes(self, idx: np.ndarray, written: np.ndarray | None) -> tuple | None:
        """Post-write ``(codes, categories)`` derived from the cached codes.

        Call after ``written`` (an object array, ``None`` for missing
        cells; ``None`` itself when every written cell is missing) has
        been stored at ``idx`` but before :meth:`_bump`, while
        the cache still matches the token. Returns ``None`` — rebuild
        from scratch — unless the codes are cached and every category and
        every written value is an exact ``str`` already in the table:
        anything else (a new category, ``1`` vs ``1.0`` vs ``True``, a
        ``str`` subclass) could change the from-scratch ordering.
        Categories that no longer occur are compacted out; a subset of a
        str-sorted list stays str-sorted, so the result equals a
        from-scratch :meth:`codes`.
        """
        cached = self._codes_cache
        if cached is None or cached[0] != self._token:
            return None
        __, old_codes, cats = cached
        if any(type(c) is not str for c in cats):
            return None
        if written is None:
            new = -1
        else:
            written = written.tolist()
            if any(type(v) is not str for v in written if v is not None):
                return None
            lookup = {c: i for i, c in enumerate(cats)}
            lookup[None] = -1
            new = np.array([lookup.get(v, -2) for v in written], dtype=np.intp)
            if (new == -2).any():
                return None
        codes = old_codes.copy()
        codes[idx] = new
        # Shift by one so missing cells (code -1) land in a dropped bin.
        counts = np.bincount(codes + 1, minlength=len(cats) + 1)[1:]
        if counts.all():
            return codes, cats
        # Compact: surviving categories keep their order; slot -1 stays -1.
        keep = counts > 0
        remap = np.full(len(cats) + 1, -1, dtype=np.intp)
        remap[:-1][keep] = np.arange(int(keep.sum()))
        return remap[codes], [c for c, k in zip(cats, keep) if k]

    def set_values(self, indices: Sequence[int] | np.ndarray, values: Iterable) -> None:
        """Overwrite cells at ``indices`` with ``values``.

        ``nan``/``None`` values mark the cells as missing; any other value
        clears the missing flag. Copy-on-write: columns sharing storage
        with this one are unaffected.
        """
        idx = np.asarray(indices)
        vals = list(values) if not isinstance(values, np.ndarray) else values
        if len(idx) != len(vals):
            raise ValueError(
                f"got {len(idx)} indices but {len(vals)} values for column {self.name!r}"
            )
        self._materialize()
        # Bump even when a write fails partway (e.g. an out-of-bounds
        # index): content may already have changed, and a token must
        # never survive a content change — a spurious new token only
        # costs a cache miss, a stale one serves wrong statistics.
        carried = None
        try:
            if self.kind is ColumnKind.NUMERIC:
                arr = np.asarray(vals, dtype=float)
                self._values[idx] = arr
                self._missing[idx] = np.isnan(arr)
            else:
                # Bulk masked scatter: normalize to an object array, find
                # the missing entries vectorized, and write values and
                # mask with one fancy assignment each (replacements are
                # prepared first so duplicate indices resolve last-wins
                # for the values *and* the mask consistently).
                arr = np.array(vals, dtype=object, copy=True)
                miss = _missing_object_mask(arr)
                arr[miss] = None
                self._values[idx] = arr
                self._missing[idx] = miss
                carried = self._carry_codes(idx, arr)
        finally:
            self._bump(carried)

    def set_missing(self, indices: Sequence[int] | np.ndarray) -> None:
        """Mark the cells at ``indices`` as missing (copy-on-write)."""
        idx = np.asarray(indices)
        self._materialize()
        carried = None
        try:
            if self.kind is ColumnKind.NUMERIC:
                self._values[idx] = np.nan
            else:
                self._values[idx] = None
            self._missing[idx] = True
            if self.kind is ColumnKind.CATEGORICAL:
                carried = self._carry_codes(idx, None)
        finally:
            self._bump(carried)

    # ------------------------------------------------------------------ #
    # functional variants (leave the receiver untouched)
    # ------------------------------------------------------------------ #
    def with_values(self, indices: Sequence[int] | np.ndarray, values: Iterable) -> "Column":
        """A new column with the cells at ``indices`` overwritten."""
        out = self.share()
        out.set_values(indices, values)
        return out

    def with_missing(self, indices: Sequence[int] | np.ndarray) -> "Column":
        """A new column with the cells at ``indices`` marked missing."""
        out = self.share()
        out.set_missing(indices)
        return out

    def set_scatter(self, mask: np.ndarray, values) -> None:
        """Overwrite the cells selected by a full-length boolean ``mask``.

        ``values`` is either a scalar (broadcast to every selected cell)
        or an array aligned with the selected cells in row order. The
        bulk write shares :meth:`set_values`' missing-value semantics.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self._values),):
            raise ValueError(
                f"mask must have shape ({len(self._values)},), got {mask.shape}"
            )
        indices = np.flatnonzero(mask)
        if np.ndim(values) == 0:
            values = np.full(
                len(indices),
                values,
                dtype=float if self.kind is ColumnKind.NUMERIC else object,
            )
        self.set_values(indices, values)

    def with_scatter(self, mask: np.ndarray, values) -> "Column":
        """A new column with the ``mask``-selected cells overwritten."""
        out = self.share()
        out.set_scatter(mask, values)
        return out


def _infer_kind(values: np.ndarray) -> ColumnKind:
    if values.dtype.kind in "fiub":
        return ColumnKind.NUMERIC
    return ColumnKind.CATEGORICAL


def _is_missing_value(value) -> bool:
    if value is None:
        return True
    if isinstance(value, float) and np.isnan(value):
        return True
    return False


def _missing_object_mask(values: np.ndarray) -> np.ndarray:
    """Vectorized ``_is_missing_value`` over an object array.

    ``v == None`` catches ``None`` and ``v != v`` catches any float nan
    (the only self-unequal value that can appear in a column); both are
    single elementwise passes instead of a Python-level loop.
    """
    with np.errstate(invalid="ignore"):
        return (values == None) | (values != values)  # noqa: E711
