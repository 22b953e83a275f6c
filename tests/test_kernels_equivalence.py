"""The cleaning kernels against the row-at-a-time oracle (``kernel_oracle``).

The library's pollute → detect → repair kernels are numpy bulk
operations, but the contract is stronger than "same answers": every
corrupt call must also *consume the rng stream* exactly like the
oracle's cell-by-cell draws, so seeded traces — including the committed
golden digests — stay byte-stable. This suite pins that contract with
fixed cases and Hypothesis properties for:

* all five error-type injectors (values, dtype AND post-call generator
  state), on numeric columns with NaN and categorical columns with None,
  including empty row sets;
* the polluter's incremental states built on those injectors;
* FD discovery, confidence, and violation listing;
* the four repairers, and the categorical-shift detector built on FDs.

Whole sessions with the oracle swapped in are pinned by the
``AlgorithmicCleaner`` digests in ``tests/test_trace_digests.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_tiers import STANDARD_SETTINGS

import kernel_oracle as oracle
from repro.detect import (
    ApproximateFD,
    CategoricalShiftDetector,
    ConditionalModeRepairer,
    MeanRepairer,
    MedianRepairer,
    ModeRepairer,
    discover_fds,
)
from repro.errors import (
    CategoricalShift,
    GaussianNoise,
    InconsistentRepresentation,
    MissingValues,
    Polluter,
    Scaling,
)
from repro.frame import Column, ColumnKind, DataFrame


def assert_values_equal(a, b):
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    assert len(a) == len(b)
    for x, y in zip(a.tolist(), b.tolist()):
        if isinstance(x, float) and isinstance(y, float):
            assert (np.isnan(x) and np.isnan(y)) or x == y
        else:
            assert type(x) is type(y) and (x is y or x == y)


def assert_corrupt_matches_oracle(error, column, rows, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    values = error.corrupt(column, rows, rng)
    expected = oracle.corrupt(error, column, rows, oracle_rng)
    assert isinstance(values, np.ndarray)
    assert values.dtype == expected.dtype
    assert_values_equal(values, expected)
    # The load-bearing half of the contract: identical generator state
    # afterwards means every downstream seeded draw matches.
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# --------------------------------------------------------------------- #
# Injectors: values, dtype and rng-stream consumption.
# --------------------------------------------------------------------- #
def _numeric_column(n=400, seed=1, with_nan=False):
    rng = np.random.default_rng(seed)
    values = rng.normal(50.0, 5.0, n)
    if with_nan:
        values[rng.choice(n, n // 10, replace=False)] = np.nan
    return Column("num", values)


def _categorical_column(n=400, seed=2, with_none=False,
                        labels=("alpha", "beta", "gamma", "delta")):
    rng = np.random.default_rng(seed)
    values = rng.choice(list(labels), n).astype(object)
    if with_none:
        values[rng.choice(n, n // 10, replace=False)] = None
    return Column("cat", values)


NUMERIC_INJECTORS = [MissingValues(), GaussianNoise(), Scaling()]
CATEGORICAL_INJECTORS = [
    MissingValues(),
    CategoricalShift(),
    InconsistentRepresentation(),
]

ERROR_CASES = [
    pytest.param(MissingValues(), _numeric_column, id="missing-num"),
    pytest.param(MissingValues(), _categorical_column, id="missing-cat"),
    pytest.param(GaussianNoise(), _numeric_column, id="noise"),
    pytest.param(Scaling(), _numeric_column, id="scaling"),
    pytest.param(CategoricalShift(), _categorical_column, id="categorical"),
    pytest.param(InconsistentRepresentation(), _categorical_column, id="inconsistent"),
    pytest.param(
        GaussianNoise(), lambda: _numeric_column(with_nan=True), id="noise-with-nan"
    ),
    pytest.param(
        CategoricalShift(),
        lambda: _categorical_column(with_none=True),
        id="categorical-with-none",
    ),
    pytest.param(
        InconsistentRepresentation(),
        lambda: _categorical_column(with_none=True),
        id="inconsistent-with-none",
    ),
    # Known cells draw from one other category, missing cells from two.
    pytest.param(
        CategoricalShift(),
        lambda: _categorical_column(with_none=True, labels=("alpha", "beta")),
        id="categorical-two-with-none",
    ),
    # 5, 4 and 3 re-spellings: the per-row draw bound varies.
    pytest.param(
        InconsistentRepresentation(),
        lambda: _categorical_column(labels=("alpha", "Beta", "X")),
        id="inconsistent-mixed-variants",
    ),
]


class TestCorruptMatchesOracle:
    @pytest.mark.parametrize("error,make_column", ERROR_CASES)
    def test_values_and_rng_stream(self, error, make_column):
        column = make_column()
        rows = np.sort(np.random.default_rng(9).choice(len(column), 60, replace=False))
        assert_corrupt_matches_oracle(error, column, rows, seed=1234)

    @pytest.mark.parametrize("error,make_column", ERROR_CASES)
    def test_empty_rows(self, error, make_column):
        assert_corrupt_matches_oracle(
            error, make_column(), np.array([], dtype=int), seed=7
        )


_FLOATS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), st.just(np.nan)
)
# 5, 4, 3, 5 and 5 re-spellings (see ``_variants``).
_LABELS = ["a", "Cc", "Q", "d d", "e."]


@st.composite
def _column_and_rows(draw, kind):
    if kind is ColumnKind.NUMERIC:
        values = np.array(draw(st.lists(_FLOATS, min_size=1, max_size=40)))
    else:
        # Columns with and without missing cells take different paths.
        labels = _LABELS + [None] if draw(st.booleans()) else _LABELS
        values = np.array(
            draw(st.lists(st.sampled_from(labels), min_size=1, max_size=40)),
            dtype=object,
        )
    column = Column("col", values, kind=kind)
    picked = draw(st.lists(st.integers(0, len(column) - 1), unique=True))
    return column, np.array(sorted(picked), dtype=int)


_SEEDS = st.integers(0, 2**32 - 1)


class TestCorruptProperties:
    @pytest.mark.parametrize("error", NUMERIC_INJECTORS, ids=repr)
    @settings(STANDARD_SETTINGS, deadline=None)
    @given(case=_column_and_rows(ColumnKind.NUMERIC), seed=_SEEDS)
    def test_numeric_columns(self, error, case, seed):
        assert_corrupt_matches_oracle(error, *case, seed=seed)

    @pytest.mark.parametrize("error", CATEGORICAL_INJECTORS, ids=repr)
    @settings(STANDARD_SETTINGS, deadline=None)
    @given(case=_column_and_rows(ColumnKind.CATEGORICAL), seed=_SEEDS)
    def test_categorical_columns(self, error, case, seed):
        assert_corrupt_matches_oracle(error, *case, seed=seed)


class TestPolluterMatchesOracle:
    @pytest.mark.parametrize(
        "error,feature",
        [
            pytest.param(MissingValues(), "num", id="missing"),
            pytest.param(GaussianNoise(), "num", id="noise"),
            pytest.param(CategoricalShift(), "cat", id="categorical"),
            pytest.param(CategoricalShift(), "cat_none", id="categorical-with-none"),
        ],
    )
    def test_incremental_states_identical(self, monkeypatch, error, feature):
        frame = DataFrame(
            {
                "num": _numeric_column(300).values,
                "cat": _categorical_column(300).values,
                "cat_none": _categorical_column(300, with_none=True).values,
            }
        )

        def run():
            polluter = Polluter(error, step=0.05, n_combinations=2, rng=11)
            trajectories = polluter.incremental_states(frame, feature, n_steps=4)
            return [
                (s.level, s.rows.tolist(), s.frame.to_dict())
                for states in trajectories
                for s in states
            ]

        library = run()
        monkeypatch.setattr(type(error), "corrupt", oracle.corrupt)
        reference = run()
        assert len(library) == len(reference) == 8
        for (ll, lr, lf), (rl, rr, rf) in zip(library, reference):
            assert ll == rl
            assert lr == rr
            assert lf.keys() == rf.keys()
            for name in lf:
                assert_values_equal(lf[name], rf[name])


# --------------------------------------------------------------------- #
# FD mining and repairers on generated frames.
# --------------------------------------------------------------------- #
_FRAME_LABELS = ["x", "y", "z", "w"]


@st.composite
def _frames_and_rows(draw):
    """A frame with an FD-bearing categorical pair (``a → b`` up to
    damage), an independent categorical ``c`` and a numeric ``num``,
    plus a sorted row set to repair (possibly empty)."""
    n = draw(st.integers(1, 60))
    cell = st.sampled_from(_FRAME_LABELS + [None])
    a = draw(st.lists(cell, min_size=n, max_size=n))
    mapping = draw(st.lists(st.sampled_from(_FRAME_LABELS), min_size=4, max_size=4))
    damage = draw(st.lists(st.one_of(st.none(), cell), min_size=n, max_size=n))
    b = [
        (mapping[_FRAME_LABELS.index(left)] if left is not None else None)
        if hit is None else hit
        for left, hit in zip(a, damage)
    ]
    c = draw(st.lists(cell, min_size=n, max_size=n))
    num = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    categorical = ColumnKind.CATEGORICAL
    frame = DataFrame([
        Column("a", np.array(a, dtype=object), kind=categorical),
        Column("b", np.array(b, dtype=object), kind=categorical),
        Column("c", np.array(c, dtype=object), kind=categorical),
        Column("num", np.array(num, dtype=float)),
    ])
    picked = draw(st.lists(st.integers(0, n - 1), unique=True))
    return frame, np.array(sorted(picked), dtype=int)


def _fd_rows(fds):
    return [(fd.lhs, fd.rhs, fd.confidence) for fd in fds]


class TestDetectRepairProperties:
    @settings(STANDARD_SETTINGS, deadline=None)
    @given(
        case=_frames_and_rows(),
        min_confidence=st.sampled_from([0.3, 0.5, 0.9, 1.0]),
        min_group_size=st.integers(1, 4),
    )
    def test_discover_fds(self, case, min_confidence, min_group_size):
        frame, __ = case
        assert _fd_rows(
            discover_fds(frame, min_confidence=min_confidence,
                         min_group_size=min_group_size)
        ) == _fd_rows(
            oracle.discover_fds(frame, min_confidence=min_confidence,
                                min_group_size=min_group_size)
        )

    @settings(STANDARD_SETTINGS, deadline=None)
    @given(case=_frames_and_rows())
    def test_violations(self, case):
        frame, __ = case
        for lhs in ("a", "b", "c"):
            for rhs in ("a", "b", "c"):
                if lhs == rhs:
                    continue
                fd = ApproximateFD(lhs=lhs, rhs=rhs, confidence=1.0)
                assert (
                    fd.violations(frame).tolist()
                    == oracle.violations(fd, frame).tolist()
                )

    @settings(STANDARD_SETTINGS, deadline=None)
    @given(
        case=_frames_and_rows(),
        repairer_and_feature=st.sampled_from([
            (MeanRepairer(), "num"),
            (MedianRepairer(), "num"),
            (ModeRepairer(), "b"),
            (ConditionalModeRepairer(condition_on="a"), "b"),
            (ConditionalModeRepairer(), "b"),
        ]),
    )
    def test_repairers(self, case, repairer_and_feature):
        frame, rows = case
        repairer, feature = repairer_and_feature
        assert_values_equal(
            repairer.repair(frame, feature, rows),
            oracle.repair(repairer, frame, feature, rows),
        )


# --------------------------------------------------------------------- #
# A fixed 600-row frame: FDs, detectors and repairs at a realistic size.
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def detect_frame():
    rng = np.random.default_rng(3)
    n = 600
    group = rng.choice(["g1", "g2", "g3", "g4"], n).astype(object)
    dep = np.array(["d_" + g for g in group], dtype=object)
    dep[rng.choice(n, 30, replace=False)] = rng.choice(["d_g1", "d_g2"], 30)
    dep[rng.choice(n, 15, replace=False)] = None
    num = rng.normal(40.0, 4.0, n)
    num[rng.choice(n, 20, replace=False)] *= 100.0  # scaling-style outliers
    num[rng.choice(n, 10, replace=False)] = np.nan
    return DataFrame({"dep": dep, "group": group, "num": num})


class TestFixedFrame:
    def test_discovery_confidence_and_violations(self, detect_frame):
        fds = discover_fds(detect_frame, min_confidence=0.4, min_group_size=2)
        expected = oracle.discover_fds(
            detect_frame, min_confidence=0.4, min_group_size=2
        )
        assert _fd_rows(fds) == _fd_rows(expected)
        assert fds  # the fixture is built to contain discoverable FDs
        for fd in fds:
            assert (
                fd.violations(detect_frame).tolist()
                == oracle.violations(fd, detect_frame).tolist()
            )

    @pytest.mark.parametrize(
        "repairer,feature",
        [
            pytest.param(MeanRepairer(), "num", id="mean"),
            pytest.param(MedianRepairer(), "num", id="median"),
            pytest.param(ModeRepairer(), "dep", id="mode"),
            pytest.param(
                ConditionalModeRepairer(condition_on="group"), "dep", id="cond-mode"
            ),
            pytest.param(ConditionalModeRepairer(), "dep", id="cond-mode-auto"),
        ],
    )
    def test_repairs(self, detect_frame, repairer, feature):
        rows = np.sort(np.random.default_rng(5).choice(600, 40, replace=False))
        assert_values_equal(
            repairer.repair(detect_frame, feature, rows),
            oracle.repair(repairer, detect_frame, feature, rows),
        )

    def test_categorical_shift_detector(self, detect_frame, monkeypatch):
        detector = CategoricalShiftDetector(min_confidence=0.5)
        library = detector.detect(detect_frame, "dep")
        oracle.use_oracle_kernels(monkeypatch)
        reference = detector.detect(detect_frame, "dep")
        assert library.rows.tolist() == reference.rows.tolist()
        assert library.scores.tolist() == reference.scores.tolist()
