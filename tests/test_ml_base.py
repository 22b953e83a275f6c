"""The estimator protocol helpers: class lists, one-hot targets, the bias
column and the per-class cache of hyperparameter names.

``clone(est).get_params() == est.get_params()`` for every registry
algorithm is checked in ``tests/test_ml_classifiers.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis_tiers import DETERMINISM_SETTINGS, STANDARD_SETTINGS

from repro.ml.base import BaseEstimator, check_X, one_hot, unique_labels
from repro.ml.linear import _add_bias

_LABELS = st.one_of(
    hnp.arrays(np.int64, st.integers(0, 60), elements=st.integers(-3, 3)),
    hnp.arrays(np.int32, st.integers(0, 60)),
    hnp.arrays(np.bool_, st.integers(0, 60)),
    hnp.arrays(np.float64, st.integers(0, 60)),  # NaN, ±inf and ±0.0 included
    hnp.arrays(
        np.float64,
        st.integers(0, 60),
        elements=st.sampled_from([np.nan, -np.inf, np.inf, 0.0, -0.0, 1.5]),
    ),
    hnp.arrays(hnp.unicode_string_dtypes(max_len=3), st.integers(0, 60)),
    hnp.arrays(np.int64, st.tuples(st.integers(0, 6), st.integers(0, 6))),
)


@settings(DETERMINISM_SETTINGS, deadline=None)
@given(_LABELS)
def test_unique_labels_equals_np_unique(y):
    got, want = unique_labels(y), np.unique(y)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")


def _lookup_one_hot(y, classes):
    """The indicator matrix built by looking each label up in the sorted
    ``classes``, raising ``KeyError`` on the first unknown one."""
    index = np.searchsorted(classes, y).clip(max=len(classes) - 1)
    unknown = classes[index] != y
    if unknown.any():
        raise KeyError(y[unknown][0])
    out = np.zeros((len(y), len(classes)))
    out[np.arange(len(y)), index] = 1.0
    return out


@settings(STANDARD_SETTINGS, deadline=None)
@given(
    hnp.arrays(np.int64, st.integers(0, 60), elements=st.integers(-4, 4)),
    st.sets(st.integers(-5, 5), min_size=1).map(sorted),
    st.booleans(),
)
def test_one_hot_equals_a_lookup(y, classes, own_labels):
    # Fits pass their own labels' class list; other callers may pass
    # labels outside it and must get the first unknown one back.
    classes = unique_labels(y) if own_labels and len(y) else np.array(classes)
    try:
        want = _lookup_one_hot(y, classes)
    except KeyError as error:
        with pytest.raises(KeyError) as raised:
            one_hot(y, classes)
        assert raised.value.args == error.args
        return
    got = one_hot(y, classes)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _sealed(columns):
    """A read-only C-contiguous copy of ``columns``."""
    buffer = np.ascontiguousarray(np.hstack(columns))
    buffer.setflags(write=False)
    return buffer


@settings(STANDARD_SETTINGS, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.integers(0, 5))))
def test_add_bias_has_the_bytes_of_hstack(X):
    n, d = X.shape
    ones = np.ones((n, 1))
    want = np.hstack([X, ones])
    got = _add_bias(X)
    assert got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # The leading view of a read-only buffer whose last column is ones
    # is biased already: the buffer itself comes back.
    buffer = _sealed([X, ones])
    assert _add_bias(buffer[:, :-1]) is buffer
    assert _add_bias(buffer[:, :-1]).tobytes() == want.tobytes()

    # Anything else is a fresh copy with hstack's bytes: a writable
    # buffer, a last column not all ones, a wider buffer, an offset view.
    writable = np.hstack([X, ones])
    not_ones = _sealed([X, np.arange(n, dtype=float)[:, None] + 1.0])
    wider = _sealed([X, ones, ones])
    shifted = _sealed([ones, X])
    cases = [(writable[:, :-1], writable), (wider[:, :d], wider)]
    if X.size:  # an empty view has no offset to tell apart
        cases += [(shifted[:, 1:], shifted)]
    if n > 1:  # its last column holds 1.0, 2.0, ...
        cases += [(not_ones[:, :-1], not_ones)]
    for view, source in cases:
        copied = _add_bias(view)
        assert copied is not source and not np.shares_memory(copied, source)
        assert copied.flags.c_contiguous and copied.flags.writeable
        assert copied.tobytes() == np.hstack([view, ones]).tobytes()
    # A view whose hidden column holds nan is checked as itself.
    hidden_nan = _sealed([X, np.full((n, 1), np.nan)])
    if np.isfinite(X).all():
        assert check_X(hidden_nan[:, :-1]).tobytes() == X.tobytes()
    else:
        with pytest.raises(ValueError, match="NaN or infinity"):
            check_X(hidden_nan[:, :-1])


class _Parent(BaseEstimator):
    def __init__(self, a: int = 1, b: int = 2) -> None:
        self.a = a
        self.b = b


class _Child(_Parent):
    def __init__(self, c: int = 3, **kwargs) -> None:
        super().__init__(**kwargs)
        self.c = c


class _Grandchild(_Child):
    """Inherits ``_Child.__init__`` and so its names."""


class TestParamNames:
    def test_subclass_gets_its_own_names(self):
        # Warm the parent's cache first: the child must not read it.
        assert _Parent().get_params() == {"a": 1, "b": 2}
        assert _Child(c=5).get_params() == {"c": 5}
        assert _Grandchild().get_params() == {"c": 3}
        assert _Parent().get_params() == {"a": 1, "b": 2}

    def test_set_params_rejects_unknown_names(self):
        model = _Child()
        model.get_params()
        with pytest.raises(ValueError, match="no hyperparameter 'a'"):
            model.set_params(a=4)
        assert model.set_params(c=9).c == 9
        with pytest.raises(ValueError, match="no hyperparameter 'alpha'"):
            _Parent().set_params(alpha=1.0)
