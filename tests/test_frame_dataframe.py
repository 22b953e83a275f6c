"""Unit tests for repro.frame.dataframe and io."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import Column, DataFrame, read_csv, write_csv


@pytest.fixture
def frame():
    return DataFrame(
        {
            "num": [1.0, 2.0, np.nan, 4.0],
            "cat": np.array(["a", "b", "a", None], dtype=object),
            "label": [0, 1, 0, 1],
        }
    )


class TestConstruction:
    def test_from_mapping(self, frame):
        assert frame.shape == (4, 3)
        assert frame.column_names == ["num", "cat", "label"]

    def test_from_columns(self):
        df = DataFrame([Column("a", [1.0]), Column("b", ["x"])])
        assert df.n_columns == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one column"):
            DataFrame([])

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="unequal"):
            DataFrame([Column("a", [1.0]), Column("b", [1.0, 2.0])])

    def test_duplicate_names_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            DataFrame([Column("a", [1.0]), Column("a", [2.0])])


class TestMetadata:
    def test_numeric_and_categorical_split(self, frame):
        assert frame.numeric_columns() == ["num", "label"]
        assert frame.categorical_columns() == ["cat"]

    def test_contains(self, frame):
        assert "num" in frame
        assert "nope" not in frame


class TestSelection:
    def test_select_subset(self, frame):
        sub = frame.select(["cat", "num"])
        assert sub.column_names == ["cat", "num"]

    def test_select_unknown_raises(self, frame):
        with pytest.raises(KeyError):
            frame.select(["ghost"])

    def test_drop(self, frame):
        assert frame.drop("label").column_names == ["num", "cat"]

    def test_drop_unknown_raises(self, frame):
        with pytest.raises(KeyError):
            frame.drop(["ghost"])

    def test_take_rows(self, frame):
        sub = frame.take([3, 0])
        assert sub.n_rows == 2
        assert sub["num"].values[0] == 4.0
        assert sub["cat"].n_missing == 1

    def test_take_copies(self, frame):
        sub = frame.take([0])
        sub["num"].set_values([0], [99.0])
        assert frame["num"].values[0] == 1.0

    def test_copy_independent(self, frame):
        dup = frame.copy()
        dup["num"].set_values([0], [99.0])
        assert frame["num"].values[0] == 1.0
        assert dup != frame


class TestMutation:
    def test_set_column_replaces(self, frame):
        frame.set_column(Column("num", [9.0, 9.0, 9.0, 9.0]))
        assert frame["num"].values.tolist() == [9.0] * 4

    def test_set_column_wrong_length_raises(self, frame):
        with pytest.raises(ValueError, match="rows"):
            frame.set_column(Column("num", [1.0]))

    def test_with_column_returns_new_frame(self, frame):
        new = frame.with_column(Column("num", [9.0, 9.0, 9.0, 9.0]))
        assert frame["num"].values[0] == 1.0
        assert new["num"].values[0] == 9.0


class TestLabelArray:
    def test_numeric_label_encoded_to_indices(self, frame):
        y = frame.label_array("label")
        assert y.tolist() == [0, 1, 0, 1]

    def test_categorical_label(self):
        df = DataFrame({"c": ["yes", "no", "yes"], "x": [1.0, 2.0, 3.0]})
        assert df.label_array("c").tolist() == [1, 0, 1]

    def test_missing_label_raises(self):
        df = DataFrame({"y": [1.0, np.nan], "x": [0.0, 0.0]})
        with pytest.raises(ValueError, match="missing"):
            df.label_array("y")

    @given(
        st.one_of(
            st.lists(st.sampled_from([-2.5, 0.0, 1.0, 7.0]), min_size=1, max_size=30),
            st.lists(st.sampled_from(["no", "yes", "maybe", "10", "9"]), min_size=1, max_size=30),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_row_lookup(self, labels):
        df = DataFrame({"y": labels, "x": [0.0] * len(labels)})
        classes = sorted(set(labels), key=str if isinstance(labels[0], str) else None)
        lookup = {c: i for i, c in enumerate(classes)}
        y = df.label_array("y")
        assert y.dtype == int
        assert y.tolist() == [lookup[v] for v in labels]


class TestCsvRoundTrip:
    def test_roundtrip(self, frame, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(frame, path)
        loaded = read_csv(path)
        assert loaded.column_names == frame.column_names
        assert loaded["num"].missing_mask.tolist() == frame["num"].missing_mask.tolist()
        assert loaded["cat"].values[0] == "a"
        assert loaded["cat"].n_missing == 1

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)

    def test_header_only_raises(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no rows"):
            read_csv(path)

    def test_na_markers_read_as_missing(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("x,c\n1.5,hello\nNaN,NA\n")
        df = read_csv(path)
        assert df["x"].n_missing == 1
        assert df["c"].n_missing == 1
