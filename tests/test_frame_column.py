"""Unit tests for repro.frame.column."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import Column, ColumnKind


class TestConstruction:
    def test_numeric_kind_inferred(self):
        col = Column("x", [1.0, 2.0, 3.0])
        assert col.kind is ColumnKind.NUMERIC
        assert col.is_numeric and not col.is_categorical

    def test_int_values_become_numeric(self):
        col = Column("x", [1, 2, 3])
        assert col.is_numeric
        assert col.values.dtype == float

    def test_string_kind_inferred(self):
        col = Column("c", ["a", "b", "a"])
        assert col.kind is ColumnKind.CATEGORICAL

    def test_nan_marks_numeric_missing(self):
        col = Column("x", [1.0, np.nan, 3.0])
        assert col.n_missing == 1
        assert col.missing_mask.tolist() == [False, True, False]

    def test_none_marks_categorical_missing(self):
        col = Column("c", np.array(["a", None, "b"], dtype=object))
        assert col.n_missing == 1
        assert col.values[1] is None

    def test_explicit_kind_overrides_inference(self):
        col = Column("x", np.array(["1", "2"], dtype=object), kind=ColumnKind.CATEGORICAL)
        assert col.is_categorical

    def test_len(self):
        assert len(Column("x", [1.0, 2.0])) == 2


class TestAccessors:
    def test_categories_sorted_and_distinct(self):
        col = Column("c", np.array(["b", "a", "b", None], dtype=object))
        assert col.categories() == ["a", "b"]

    def test_take_preserves_kind_and_mask(self):
        col = Column("x", [1.0, np.nan, 3.0, 4.0])
        sub = col.take([2, 1])
        assert sub.values[0] == 3.0
        assert sub.missing_mask.tolist() == [False, True]
        assert sub.kind is ColumnKind.NUMERIC

    def test_take_copies(self):
        col = Column("x", [1.0, 2.0])
        sub = col.take([0, 1])
        sub.set_values([0], [9.0])
        assert col.values[0] == 1.0

    def test_copy_equal_but_independent(self):
        col = Column("x", [1.0, np.nan])
        dup = col.copy()
        assert dup == col
        dup.set_values([0], [5.0])
        assert col.values[0] == 1.0


class TestMutation:
    def test_set_values_numeric(self):
        col = Column("x", [1.0, 2.0, 3.0])
        col.set_values([0, 2], [10.0, 30.0])
        assert col.values.tolist() == [10.0, 2.0, 30.0]

    def test_set_values_clears_missing(self):
        col = Column("x", [np.nan, 2.0])
        col.set_values([0], [7.0])
        assert col.n_missing == 0

    def test_set_values_nan_sets_missing(self):
        col = Column("x", [1.0, 2.0])
        col.set_values([1], [np.nan])
        assert col.missing_mask.tolist() == [False, True]

    def test_set_values_categorical(self):
        col = Column("c", ["a", "b"])
        col.set_values([0], ["z"])
        assert col.values[0] == "z"

    def test_set_values_categorical_none_sets_missing(self):
        col = Column("c", ["a", "b"])
        col.set_values([1], [None])
        assert col.n_missing == 1

    def test_set_values_length_mismatch_raises(self):
        col = Column("x", [1.0, 2.0])
        with pytest.raises(ValueError, match="indices"):
            col.set_values([0], [1.0, 2.0])

    def test_set_missing(self):
        col = Column("x", [1.0, 2.0, 3.0])
        col.set_missing([0, 2])
        assert col.n_missing == 2
        assert np.isnan(col.values[0])


class TestCodesCarry:
    """White-box: which writes carry the codes cache to the new token."""

    def _carried(self, col):
        return col._codes_cache is not None and col._codes_cache[0] == col.token

    def test_write_of_known_categories_carries(self):
        col = Column("c", np.array(["a", "b", "c", None], dtype=object))
        col.codes()
        col.set_values([0, 3], ["c", "a"])
        assert self._carried(col)
        col.set_missing([1])
        assert self._carried(col)
        codes, cats = col.codes()
        assert cats == ["a", "c"]
        assert codes.tolist() == [1, -1, 1, 0]

    @pytest.mark.parametrize("value", ["z", 1, np.str_("a")])
    def test_new_or_foreign_value_drops(self, value):
        col = Column("c", np.array(["a", "b"], dtype=object))
        col.codes()
        col.set_values([0], [value])
        assert not self._carried(col)


#: Cell values for the codes property test: a few string categories,
#: missing cells, and values that are equal across types (``1 == 1.0 ==
#: True``) or share a ``str`` form (``"1"``), where a carry must fall back.
_CELLS = st.sampled_from(["a", "b", "c", "d", None, None, 1, 1.0, True, "1"])
_STRING_CELLS = st.sampled_from(["a", "b", "c", "d", None])


def _typed(values):
    return [(type(v), v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_codes_after_writes_equal_a_rebuild(data):
    cells = data.draw(st.sampled_from([_STRING_CELLS, _CELLS]))
    n = data.draw(st.integers(1, 8))
    start = data.draw(st.lists(cells, min_size=n, max_size=n))
    col = Column("c", np.array(start, dtype=object), kind=ColumnKind.CATEGORICAL)
    for __ in range(data.draw(st.integers(1, 6))):
        codes, cats = col.codes()
        sibling = col.share()
        before = codes.copy(), _typed(cats)
        # Duplicate indices are allowed: the last write wins.
        indices = np.array(
            data.draw(st.lists(st.integers(-n, n - 1), max_size=2 * n)), dtype=np.intp
        )
        op = data.draw(
            st.sampled_from(["set_values", "set_missing", "with_values", "with_scatter"])
        )
        if op == "set_missing":
            col.set_missing(indices)
        elif op == "with_scatter":
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            k = int(mask.sum())
            if data.draw(st.booleans()):
                value = data.draw(cells)  # broadcast scalar
            else:
                value = np.array(data.draw(st.lists(cells, min_size=k, max_size=k)), dtype=object)
            col = col.with_scatter(mask, value)
        else:
            values = data.draw(st.lists(cells, min_size=len(indices), max_size=len(indices)))
            if op == "set_values":
                col.set_values(indices, values)
            else:
                col = col.with_values(indices, values)
        # The copy-on-write sibling keeps the pre-write codes.
        sib_codes, sib_cats = sibling.codes()
        assert np.array_equal(sib_codes, before[0]) and _typed(sib_cats) == before[1]
        fresh = Column("c", col.values.copy(), kind=ColumnKind.CATEGORICAL)
        codes, cats = col.codes()
        fresh_codes, fresh_cats = fresh.codes()
        assert np.array_equal(codes, fresh_codes)
        assert _typed(cats) == _typed(fresh_cats)
        assert _typed(col.categories()) == _typed(fresh_cats)


class TestEquality:
    def test_equal_columns(self):
        assert Column("x", [1.0, np.nan]) == Column("x", [1.0, np.nan])

    def test_different_names_unequal(self):
        assert Column("x", [1.0]) != Column("y", [1.0])

    def test_different_values_unequal(self):
        assert Column("x", [1.0]) != Column("x", [2.0])

    def test_different_mask_unequal(self):
        assert Column("x", [np.nan]) != Column("x", [1.0])


@given(st.lists(st.one_of(st.floats(allow_infinity=False), st.none()), min_size=1, max_size=50))
def test_missing_mask_matches_none_and_nan(values):
    col = Column("x", np.array([np.nan if v is None else v for v in values], dtype=float))
    expected = [v is None or (v != v) for v in values]
    assert col.missing_mask.tolist() == expected


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
    st.data(),
)
def test_take_roundtrip_identity(values, data):
    col = Column("x", values)
    indices = data.draw(
        st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=len(values))
    )
    sub = col.take(indices)
    assert sub.values.tolist() == [values[i] for i in indices]
