"""Copy-on-write frame layer: sharing, identity tokens, pickling, resume.

The COW refactor has two standing contracts to uphold: mutation through
one frame is never visible through another (structural sharing is an
optimization, not a semantic), and pickling shared frames — checkpoints,
process-backend tasks — rebuilds the sharing on the far side without
correctness loss. These tests pin both, plus the identity-token rules
the token-keyed caches rely on.
"""

import base64
import pickle

import numpy as np
import pytest

from repro.datasets import load_cleanml, load_dataset, pollute
from repro.errors import MissingValues
from repro.errors.polluter import Polluter
from repro.frame import Column, DataFrame
from repro.ml import TabularPreprocessor, make_classifier
from repro.runtime import FitScoreTask, ProcessBackend, run_fit_score_task
from repro.session import CleaningSession
from repro.core.config import CometConfig


#: A ``TabularPreprocessor`` fitted on the ``frame`` fixture, pickled by
#: a release that kept per-instance featurization memo state.
_LEGACY_PREPROCESSOR = (
    "gASVuAIAAAAAAACMFnJlcHJvLm1sLnByZXByb2Nlc3NpbmeUjBNUYWJ1bGFyUHJl"
    "cHJvY2Vzc29ylJOUKYGUfZQojA1mZWF0dXJlX25hbWVzlF2UKIwDbnVtlIwDY2F0"
    "lGWMBWNhY2hllIiMDGNhY2hlX3N0YXRzX5R9lCiMBGhpdHOUSwCMBm1pc3Nlc5RL"
    "AowOdHJhbnNmb3JtX2hpdHOUSwCMEHRyYW5zZm9ybV9taXNzZXOUSwGMCmJsb2Nr"
    "X2hpdHOUSwCMDGJsb2NrX21pc3Nlc5RLAowKZGVsdGFfaGl0c5RLAHWMDm51bWVy"
    "aWNfbmFtZXNflF2UaAdhjBJjYXRlZ29yaWNhbF9uYW1lc1+UXZRoCGGMDm51bWVy"
    "aWNfbWVhbnNflH2UaAdHQAKqqqqqqqtzjAdzY2FsZXJflGgAjA5TdGFuZGFyZFNj"
    "YWxlcpSTlCmBlH2UKIwFbWVhbl+UjBZudW1weS5fY29yZS5tdWx0aWFycmF5lIwM"
    "X3JlY29uc3RydWN0lJOUjAVudW1weZSMB25kYXJyYXmUk5RLAIWUQwFilIeUUpQo"
    "SwFLAYWUaCKMBWR0eXBllJOUjAJmOJSJiIeUUpQoSwOMATyUTk5OSv////9K////"
    "/0sAdJRiiUMIq6qqqqqqAkCUdJRijAZzY2FsZV+UaCFoJEsAhZRoJoeUUpQoSwFL"
    "AYWUaC6JQwhCDMSGL0jxP5R0lGJ1YowIZW5jb2Rlcl+UaACMDU9uZUhvdEVuY29k"
    "ZXKUk5QpgZR9lIwLY2F0ZWdvcmllc1+UXZRdlCiMCTxtaXNzaW5nPpSMAWGUjAFi"
    "lGVhc2KMCF9maXRfa2V5lEMcdG9rAF7hOO45BilgcYDi1ysbbp4AAAAAAAAAAJRD"
    "HHRvawBe4TjuOQYpYHGA4tcrG26eAQAAAAAAAACUhpR1Yi4="
)


@pytest.fixture
def frame():
    return DataFrame(
        {
            "num": [1.0, 2.0, np.nan, 4.0],
            "cat": np.array(["a", "b", "a", None], dtype=object),
            "label": [0, 1, 0, 1],
        }
    )


class TestColumnIdentity:
    def test_signature_is_stable_until_mutation(self):
        col = Column("x", [1.0, 2.0, 3.0])
        before = col.token
        assert col.token == before
        col.set_values([0], [9.0])
        assert col.token != before
        assert col.version == 1

    def test_share_preserves_identity_take_mints_fresh(self):
        col = Column("x", [1.0, 2.0, 3.0])
        assert col.copy().token == col.token
        assert col.take([0, 1]).token != col.token

    def test_each_mutation_mints_a_new_token(self):
        col = Column("x", [1.0, 2.0])
        seen = {col.token}
        for v in (5.0, 6.0, 7.0):
            col.set_values([0], [v])
            assert col.token not in seen
            seen.add(col.token)
        assert col.version == 3

    def test_diverged_copies_never_share_a_signature(self):
        # Both sides of a share mutate: their tokens must differ from
        # each other and from the original (stale-cache hazard).
        base = Column("x", [1.0, 2.0])
        a, b = base.copy(), base.copy()
        a.set_values([0], [10.0])
        b.set_values([0], [20.0])
        assert len({base.token, a.token, b.token}) == 3

    def test_set_missing_changes_identity(self):
        col = Column("c", ["a", "b"])
        before = col.token
        col.set_missing([1])
        assert col.token != before

    def test_failed_partial_write_still_changes_identity(self):
        # A mid-loop failure may leave cells partially overwritten; the
        # old token must not survive, or caches would serve stale stats.
        col = Column("c", ["a", "b", "a", "b"])
        before = col.token
        with pytest.raises(IndexError):
            col.set_values(np.array([0, 99]), ["z", "w"])
        assert col.token != before


class TestMutationIsolation:
    """The explicit COW regressions: mutating a polluted frame never
    alters the clean parent, in either direction, on every share path."""

    def test_init_mapping_shares_but_isolates(self):
        col = Column("x", [1.0, 2.0, 3.0])
        df = DataFrame({"renamed": col})
        assert np.shares_memory(df["renamed"].values, col.values)
        assert col.name == "x"  # renaming happened on the share
        df["renamed"].set_values([0], [9.0])
        assert col.values[0] == 1.0
        col.set_values([1], [8.0])
        assert df["renamed"].values[1] == 2.0

    def test_copy_shares_storage_until_write(self, frame):
        dup = frame.copy()
        assert all(
            np.shares_memory(dup[n].values, frame[n].values)
            for n in frame.column_names
        )
        dup["num"].set_values([0], [99.0])
        assert frame["num"].values[0] == 1.0
        assert not np.shares_memory(dup["num"].values, frame["num"].values)
        # Untouched columns keep sharing.
        assert np.shares_memory(dup["cat"].values, frame["cat"].values)

    def test_with_column_shares_untouched_siblings(self, frame):
        polluted = frame.with_column(Column("num", [9.0, 9.0, 9.0, 9.0]))
        assert np.shares_memory(polluted["cat"].values, frame["cat"].values)
        polluted["cat"].set_missing([0])
        assert frame["cat"].n_missing == 1  # only the original None
        frame["cat"].set_values([0], ["z"])
        assert polluted["cat"].values[0] is None

    def test_select_isolates(self, frame):
        sub = frame.select(["num"])
        sub["num"].set_values([0], [42.0])
        assert frame["num"].values[0] == 1.0

    def test_mutating_polluted_frame_never_alters_clean_parent(self):
        polluted = pollute(
            load_dataset("cmc", n_rows=80), error_types=["missing"], rng=0
        )
        clean_before = {
            n: polluted.clean_train[n].values.copy()
            for n in polluted.clean_train.column_names
        }
        for feature in polluted.feature_names:
            polluted.train[feature].set_missing([0])
        for name, values in clean_before.items():
            got = polluted.clean_train[name].values
            if polluted.clean_train[name].is_numeric:
                assert np.array_equal(got, values, equal_nan=True)
            else:
                assert np.array_equal(got, values)

    def test_polluter_states_share_untouched_columns(self):
        polluted = pollute(
            load_dataset("cmc", n_rows=80), error_types=["missing"], rng=0
        )
        feature = polluted.feature_names[0]
        polluter = Polluter(MissingValues(), step=0.05, rng=3)
        states = polluter.incremental_states(polluted.train, feature, n_steps=2)[0]
        other = [n for n in polluted.train.column_names if n != feature]
        for state in states:
            for name in other:
                assert state.frame[name].token == polluted.train[name].token
            assert state.frame[feature].token != polluted.train[feature].token


class TestPickleRebuildsSharing:
    def test_shared_pair_roundtrip(self, frame):
        polluted = frame.with_column(frame["num"].with_missing([0]))
        blob = pickle.dumps((frame, polluted))
        clean2, polluted2 = pickle.loads(blob)
        assert clean2 == frame and polluted2 == polluted
        # Sharing is rebuilt: the untouched columns reference one array.
        assert np.shares_memory(clean2["cat"].values, polluted2["cat"].values)
        assert clean2["cat"].token == polluted2["cat"].token
        # Tokens survive the trip (salted minting makes that safe).
        assert clean2["cat"].token == frame["cat"].token
        # And COW still guards the rebuilt share.
        polluted2["cat"].set_values([0], ["z"])
        assert clean2["cat"].values[0] == "a"

    def test_legacy_pickle_without_tokens_gets_identity(self, frame):
        state = frame["num"].__dict__.copy()
        for key in ("_token", "_version", "_shared"):
            state.pop(key, None)
        revived = Column.__new__(Column)
        revived.__setstate__(state)
        assert isinstance(revived.token, bytes)
        assert revived.version == 0

    def test_legacy_preprocessor_with_memo_attributes_unpickles(self, frame):
        # Fitted on ``frame`` by a release whose preprocessors carried
        # their own memo switch, counters, and fit key.
        legacy = pickle.loads(base64.b64decode("".join(_LEGACY_PREPROCESSOR)))
        assert {"cache", "_fit_key"} <= set(vars(legacy))
        fresh = TabularPreprocessor(["num", "cat"]).fit(frame)
        assert np.array_equal(legacy.transform(frame), fresh.transform(frame))

    def test_process_backend_roundtrip_matches_serial(self):
        polluted = pollute(
            load_dataset("cmc", n_rows=80), error_types=["missing"], rng=0
        )
        task = FitScoreTask(
            estimator=make_classifier("lor"),
            label=polluted.label,
            train=polluted.train,
            test=polluted.test,
        )
        serial = run_fit_score_task(task)
        with ProcessBackend(2) as backend:
            # Same task twice: a worker that already holds the pickled
            # tokens must still reproduce the serial run.
            first, second = backend.map(run_fit_score_task, [task, task])
        assert first == serial
        assert second == serial


class TestSessionCheckpointWithCOW:
    def _make(self, **kwargs):
        polluted = load_cleanml("titanic", n_rows=150, rng=0)
        return CleaningSession.create(
            polluted,
            algorithm="lor",
            error_types=["missing"],
            budget=3.0,
            config=CometConfig(step=0.05),
            rng=0,
            **kwargs,
        )

    def test_checkpoint_preserves_frame_sharing(self, tmp_path):
        session = self._make()
        state = session.state
        shared = [
            f
            for f in state.dataset.feature_names
            if np.shares_memory(
                state.dataset.train[f].values, state.dataset.clean_train[f].values
            )
        ]
        assert shared, "unpolluted features should share storage with ground truth"
        path = tmp_path / "cow.ckpt"
        session.save(path)
        loaded = CleaningSession.load(path).state
        for f in shared:
            assert np.shares_memory(
                loaded.dataset.train[f].values, loaded.dataset.clean_train[f].values
            )

    def test_midrun_resume_is_bit_identical_on_cleanml(self, tmp_path):
        full = self._make().run()
        session = self._make()
        session.step()
        session.step()
        path = tmp_path / "midrun.ckpt"
        session.save(path)
        del session
        combined = CleaningSession.load(path).run()
        assert combined == full

    def test_resume_from_checkpoint_with_legacy_column_lineage(self, tmp_path):
        full = self._make().run()
        session = self._make()
        session.step()
        # Columns pickled by earlier releases carry row-level lineage and
        # its signature memo; loading must ignore them.
        dataset = session.state.dataset
        for frame in (dataset.train, dataset.test):
            for column in frame:
                column._delta = (column.token, np.zeros(len(column), dtype=bool))
                column._delta_sig_cache = (column.token, bytes(20))
        path = tmp_path / "legacy.ckpt"
        session.save(path)
        del session
        loaded = CleaningSession.load(path)
        some_column = next(iter(loaded.state.dataset.train))
        assert "_delta" in vars(some_column)  # the legacy attribute travelled
        assert loaded.run() == full
