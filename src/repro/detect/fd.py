"""Approximate functional-dependency discovery over categorical columns.

§4.2 motivates categorical-shift detection with "FD discovery algorithms
or association rule mining": a shifted category breaks dependencies that
hold for the clean majority. This module mines pairwise approximate FDs
``X → Y`` (a TANE-style single-attribute restriction: for each value of X,
one Y value dominates) and reports their confidence, so a detector can
flag rows violating high-confidence dependencies.

The mining kernel is vectorized: one factorized pass per ordered column
pair (integer codes from :meth:`~repro.frame.Column.codes`, joint-code
``np.unique``/``np.bincount`` group counting) produces a :class:`_PairStats`
shared by *both* confidence scoring and violation listing — the reference
implementation re-materialized the same ``(lhs, rhs)`` pairs in two
separate Python loops. Pair stats are cached process-wide keyed by the
participating columns' content tokens (the ``(token, version)`` identity
from the frame layer), so FD discovery over unchanged columns is a
dictionary hit instead of a recount; see :func:`fd_cache_stats`. The
row-at-a-time implementations survive behind
``repro.kernels.kernel_mode() == "reference"`` as the equivalence
baseline.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.cache import shared_cache
from repro.frame import Column, DataFrame
from repro.kernels import kernel_mode

__all__ = [
    "ApproximateFD",
    "discover_fds",
    "fd_cache_stats",
    "clear_fd_cache",
]


# ---------------------------------------------------------------------- #
# factorized pair statistics + content-keyed cache
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _PairStats:
    """Grouped ``lhs → rhs`` statistics from one factorized pass.

    ``majority_codes[g]`` is the rhs code dominating lhs group ``g`` with
    the same tie-break as ``Counter.most_common`` (among equal counts, the
    pair first seen in row order wins), so vectorized and reference
    kernels agree bit for bit. Groups are counted over rows where both
    sides are present, exactly like the reference dict-of-Counters.
    """

    n_lhs: int
    n_rhs: int
    group_sizes: np.ndarray
    majority_codes: np.ndarray
    majority_counts: np.ndarray

    def confidence(self, min_group_size: int) -> float | None:
        """Fraction of rows agreeing with their group majority, or None."""
        eligible = (self.group_sizes > 0) & (self.group_sizes >= min_group_size)
        total = int(self.group_sizes[eligible].sum())
        if total == 0:
            return None
        return float(int(self.majority_counts[eligible].sum()) / total)


def _pair_stats_from_codes(
    lhs_codes: np.ndarray, rhs_codes: np.ndarray, n_lhs: int, n_rhs: int
) -> _PairStats:
    valid = (lhs_codes >= 0) & (rhs_codes >= 0)
    lhs = lhs_codes[valid]
    rhs = rhs_codes[valid]
    group_sizes = np.bincount(lhs, minlength=n_lhs).astype(np.int64)
    majority_codes = np.full(n_lhs, -1, dtype=np.intp)
    majority_counts = np.zeros(n_lhs, dtype=np.int64)
    n_joint = n_lhs * n_rhs
    if lhs.size and n_joint <= max(4096, lhs.size):
        # Dense O(n) path for the usual small category domains: bincount
        # over joint codes instead of a sort-based np.unique. The
        # reversed fancy assignment leaves each pair's *first* occurrence
        # index (duplicate indices resolve last-write-wins), giving the
        # Counter.most_common tie-break without sorting.
        joint = lhs * n_rhs + rhs
        counts2d = np.bincount(joint, minlength=n_joint).reshape(n_lhs, n_rhs)
        first = np.full(n_joint, lhs.size, dtype=np.intp)
        first[joint[::-1]] = np.arange(lhs.size - 1, -1, -1, dtype=np.intp)
        first2d = first.reshape(n_lhs, n_rhs)
        best = counts2d.max(axis=1)
        tie_first = np.where(counts2d == best[:, None], first2d, lhs.size)
        nonempty = best > 0
        majority_codes[nonempty] = tie_first.argmin(axis=1)[nonempty]
        majority_counts[nonempty] = best[nonempty]
    elif lhs.size:
        joint = lhs * n_rhs + rhs
        pairs, first_seen, counts = np.unique(
            joint, return_index=True, return_counts=True
        )
        pair_lhs = pairs // n_rhs
        pair_rhs = pairs % n_rhs
        # Sort by (group, count desc, first occurrence asc) and keep the
        # leading entry per group — the Counter.most_common tie-break.
        order = np.lexsort((first_seen, -counts, pair_lhs))
        groups, lead = np.unique(pair_lhs[order], return_index=True)
        majority_codes[groups] = pair_rhs[order][lead]
        majority_counts[groups] = counts[order][lead]
    return _PairStats(
        n_lhs=n_lhs,
        n_rhs=n_rhs,
        group_sizes=group_sizes,
        majority_codes=majority_codes,
        majority_counts=majority_counts,
    )


#: Pair stats live in the ``"fd"`` namespace of the process-wide shared
#: cache (see :mod:`repro.cache`), keyed by the two columns' content
#: tokens. Tokens are minted fresh on every mutation, so a hit proves
#: both columns are byte-identical to when the stats were computed;
#: byte-accounted eviction bounds it under the process-wide budget.
_NS_FD = shared_cache().register("fd", floor_bytes=1 * 1024 * 1024)
#: Semantic counters share the cache's lock so read-and-reset is atomic
#: against lookups from concurrent scheduler workers.
_FD_CACHE_STATS = {"hits": 0, "misses": 0}
_FD_CACHE_LOCK = shared_cache().lock


def fd_cache_stats(reset: bool = False) -> dict[str, int]:
    """Hit/miss counters of the FD pair-stats cache; ``reset=True``
    clears both the counters and the cached entries, atomically — a
    racing lookup either lands before the read (and is reported) or after
    the reset (counting toward the next window); it can no longer slip
    between the two and be lost."""
    with _FD_CACHE_LOCK:
        stats = dict(_FD_CACHE_STATS)
        if reset:
            _clear_locked()
    return stats


def clear_fd_cache() -> None:
    """Drop all cached pair stats and zero the hit/miss counters."""
    with _FD_CACHE_LOCK:
        _clear_locked()


def _clear_locked() -> None:
    shared_cache().clear(_NS_FD)
    _FD_CACHE_STATS["hits"] = 0
    _FD_CACHE_STATS["misses"] = 0


def _pair_stats(lhs: Column, rhs: Column) -> _PairStats:
    key = (lhs.token, rhs.token)
    cache = shared_cache()
    cached = cache.get(_NS_FD, key)
    if cached is not None:
        with _FD_CACHE_LOCK:
            _FD_CACHE_STATS["hits"] += 1
        return cached
    with _FD_CACHE_LOCK:
        _FD_CACHE_STATS["misses"] += 1
    lhs_codes, lhs_cats = lhs.codes()
    rhs_codes, rhs_cats = rhs.codes()
    stats = _pair_stats_from_codes(lhs_codes, rhs_codes, len(lhs_cats), len(rhs_cats))
    nbytes = (
        stats.group_sizes.nbytes
        + stats.majority_codes.nbytes
        + stats.majority_counts.nbytes
    )
    cache.put(_NS_FD, key, stats, nbytes=nbytes)
    return stats


# ---------------------------------------------------------------------- #
# public API
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ApproximateFD:
    """A pairwise approximate functional dependency ``lhs → rhs``.

    ``confidence`` is the fraction of rows whose ``rhs`` value equals the
    majority ``rhs`` value of their ``lhs`` group — 1.0 for an exact FD.
    """

    lhs: str
    rhs: str
    confidence: float

    def violations(self, frame: DataFrame) -> np.ndarray:
        """Row indices whose ``rhs`` value deviates from their group majority."""
        if kernel_mode() == "reference":
            return self._violations_reference(frame)
        lhs_col = frame[self.lhs]
        rhs_col = frame[self.rhs]
        lhs_codes, __ = lhs_col.codes()
        rhs_codes, __ = rhs_col.codes()
        stats = _pair_stats(lhs_col, rhs_col)
        present = lhs_codes >= 0
        expected = np.full(len(lhs_codes), -1, dtype=np.intp)
        expected[present] = stats.majority_codes[lhs_codes[present]]
        flagged = (
            present & (rhs_codes >= 0) & (expected >= 0) & (rhs_codes != expected)
        )
        return np.flatnonzero(flagged).astype(int)

    def _violations_reference(self, frame: DataFrame) -> np.ndarray:
        lhs_values = frame[self.lhs].values
        rhs_values = frame[self.rhs].values
        majority = _group_majorities(lhs_values, rhs_values)
        out = []
        for row in range(frame.n_rows):
            left, right = lhs_values[row], rhs_values[row]
            if left is None or right is None:
                continue
            expected = majority.get(left)
            if expected is not None and right != expected:
                out.append(row)
        return np.array(out, dtype=int)


def discover_fds(
    frame: DataFrame,
    columns: list[str] | None = None,
    min_confidence: float = 0.9,
    min_group_size: int = 3,
) -> list[ApproximateFD]:
    """Mine pairwise approximate FDs among categorical columns.

    Parameters
    ----------
    frame:
        Data to mine.
    columns:
        Candidate columns; defaults to all categorical columns.
    min_confidence:
        Minimum fraction of rows agreeing with their group's majority.
    min_group_size:
        Groups smaller than this are ignored when scoring (their majority
        is not meaningful evidence).

    Returns FDs sorted by decreasing confidence. Under the vectorized
    kernels the per-pair group statistics come from the token-keyed cache
    (see :func:`fd_cache_stats`), so discovery over columns unchanged
    since the last call costs one dictionary lookup per pair.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError("min_confidence must be in (0, 1]")
    names = columns if columns is not None else frame.categorical_columns()
    reference = kernel_mode() == "reference"
    fds = []
    for lhs in names:
        for rhs in names:
            if lhs == rhs:
                continue
            if reference:
                confidence = _fd_confidence(
                    frame[lhs].values, frame[rhs].values, min_group_size
                )
            else:
                confidence = _pair_stats(frame[lhs], frame[rhs]).confidence(
                    min_group_size
                )
            if confidence is not None and confidence >= min_confidence:
                fds.append(ApproximateFD(lhs=lhs, rhs=rhs, confidence=confidence))
    return sorted(fds, key=lambda fd: fd.confidence, reverse=True)


# ---------------------------------------------------------------------- #
# reference (row-at-a-time) kernels
# ---------------------------------------------------------------------- #
def _group_majorities(lhs_values: np.ndarray, rhs_values: np.ndarray) -> dict:
    groups: dict = defaultdict(Counter)
    for left, right in zip(lhs_values.tolist(), rhs_values.tolist()):
        if left is None or right is None:
            continue
        groups[left][right] += 1
    return {left: counts.most_common(1)[0][0] for left, counts in groups.items()}


def _fd_confidence(
    lhs_values: np.ndarray, rhs_values: np.ndarray, min_group_size: int
) -> float | None:
    groups: dict = defaultdict(Counter)
    for left, right in zip(lhs_values.tolist(), rhs_values.tolist()):
        if left is None or right is None:
            continue
        groups[left][right] += 1
    agreeing = 0
    total = 0
    for counts in groups.values():
        size = sum(counts.values())
        if size < min_group_size:
            continue
        agreeing += counts.most_common(1)[0][1]
        total += size
    if total == 0:
        return None
    return agreeing / total
