"""Unit tests for the stream engine's cursors, accumulators and checkpoints."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.feeds.base import FeedDataset, FeedRecord, FeedType
from repro.io.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.simtime import MINUTES_PER_DAY
from repro.store import SightingStore
from repro.stream import (
    FeedAccumulator,
    StreamEngine,
    StreamEvent,
    StreamState,
    StreamStateError,
)
from tests.test_stream_equivalence import _assert_same_state


def _records(*times):
    return [FeedRecord(f"d{t}.com", t) for t in times]


def _engine(world, sources):
    datasets = {
        name: FeedDataset(name, FeedType.MX_HONEYPOT, records)
        for name, records in sources.items()
    }
    return StreamEngine(world, datasets, seed=7, feed_order=list(datasets))


#: Sightings as (day, minute of day, domain): the first minute of a day
#: sits exactly on an advance boundary, and few choices make same-time
#: ties within and across feeds common.
_sightings = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from((0, 1, MINUTES_PER_DAY - 1)),
        st.sampled_from(("a.com", "b.com", "c.com")),
    ),
    max_size=12,
)


class TestEngineCursors:
    @settings(max_examples=150, deadline=None)
    @given(
        feeds=st.lists(_sightings, min_size=1, max_size=3),
        days=st.lists(
            st.integers(min_value=0, max_value=7), min_size=1, max_size=6
        ),
    )
    @example(feeds=[[(1, 0, "a.com"), (1, 0, "b.com")]], days=[2, 1, 0])
    def test_advance_in_either_direction_matches_a_fresh_engine(
        self, small_world, feeds, days
    ):
        start = small_world.timeline.start
        sources = {
            f"f{index}": sorted(
                (
                    FeedRecord(domain, start + day * MINUTES_PER_DAY + minute)
                    for day, minute, domain in picks
                ),
                key=lambda record: record.time,
            )
            for index, picks in enumerate(feeds)
        }
        engine = _engine(small_world, sources)
        for day in days:
            before = engine.checkpoint_payload()["cursors"]
            processed = engine.records_processed
            folded = engine.advance_to_day(day)

            fresh = _engine(small_world, sources)
            fresh.advance_to_day(day)
            _assert_same_state(engine.state, fresh.state)

            boundary = start + day * MINUTES_PER_DAY
            cursors = engine.checkpoint_payload()["cursors"]
            for name, records in sources.items():
                assert cursors[name] == sum(
                    1 for record in records if record.time < boundary
                )
            rewound = any(cursors[name] < before[name] for name in sources)
            assert folded == engine.records_processed - (
                0 if rewound else processed
            )

    def test_rewind_never_lands_a_sighting_twice(self, small_world):
        start = small_world.timeline.start
        day = MINUTES_PER_DAY
        sources = {
            "a": _records(start + 1, start + day + 1, start + 2 * day + 1),
            "b": _records(start + 2, start + 2 * day + 2),
        }
        engine = _engine(small_world, sources)
        store = SightingStore.in_memory()
        engine.attach_store(store, "cfg")
        engine.advance_to_day(2)
        engine.advance_to_day(1)
        engine.run()
        landed = {row.feed: row.sightings for row in store.feed_summaries()}
        assert landed == {"a": 3, "b": 2}

    def test_day_boundary_is_exclusive(self, small_world):
        start = small_world.timeline.start
        day = MINUTES_PER_DAY
        times = (start, start + day - 1, start + day, start + day + 1)
        engine = _engine(small_world, {"a": _records(*times)})
        assert engine.advance_to_day(1) == 2
        assert engine.state.clock == start + day - 1
        assert not engine.exhausted

    def test_checkpoint_cursors_roundtrip(self, small_world):
        start = small_world.timeline.start
        day = MINUTES_PER_DAY
        sources = {
            "a": _records(start + 1, start + 4, start + day + 9),
            "b": _records(start + 2, start + day, start + day + 3),
        }
        engine = _engine(small_world, sources)
        engine.advance_to_day(1)
        saved = engine.checkpoint_payload()
        assert saved["cursors"] == {"a": 2, "b": 1}

        fresh = _engine(small_world, sources)
        fresh.restore(saved)
        _assert_same_state(fresh.state, engine.state)
        engine.run()
        fresh.run()
        _assert_same_state(fresh.state, engine.state)

    def test_restore_rejects_unknown_feed_and_bad_range(self, small_world):
        engine = _engine(small_world, {"a": _records(1)})
        with pytest.raises(CheckpointError):
            engine.restore({"seed": 7, "feed_order": [], "cursors": {"zz": 0}})
        with pytest.raises(CheckpointError):
            engine.restore({"seed": 7, "feed_order": [], "cursors": {"a": 5}})

    def test_unordered_dataset_folds_in_time_order(self, small_world):
        start = small_world.timeline.start
        late = FeedRecord("late.com", start + MINUTES_PER_DAY + 5)
        early = FeedRecord("early.com", start + 5)
        engine = _engine(small_world, {"a": [late, early]})
        assert engine.advance_to_day(1) == 1
        assert engine.state.accumulators["a"].unique_domains() == {
            "early.com"
        }

    def test_empty_datasets_rejected(self, small_world):
        with pytest.raises(ValueError):
            StreamEngine(small_world, {})

    def test_exhaustion(self, small_world):
        engine = _engine(small_world, {"a": _records(1)})
        assert not engine.exhausted
        assert engine.run() == 1
        assert engine.exhausted
        assert engine.run() == 0

    def test_chronological_records_sorts_unsorted_dataset(self):
        dataset = FeedDataset(
            "x", FeedType.BOTNET,
            [FeedRecord("b.com", 9), FeedRecord("a.com", 2)],
        )
        ordered = dataset.chronological_records()
        assert [r.time for r in ordered] == [2, 9]
        # The raw record list is untouched.
        assert [r.time for r in dataset.records] == [9, 2]


class TestStreamState:
    def _state(self):
        return StreamState(
            [
                ("a", FeedType.MX_HONEYPOT, True),
                ("b", FeedType.BLACKLIST, False),
            ]
        )

    def test_accumulator_matches_dataset_statistics(self):
        records = [
            FeedRecord("x.com", 5),
            FeedRecord("y.com", 2),
            FeedRecord("x.com", 9),
            FeedRecord("x.com", 1),
        ]
        dataset = FeedDataset("a", FeedType.MX_HONEYPOT, sorted(
            records, key=lambda r: r.time
        ))
        acc = FeedAccumulator("a", FeedType.MX_HONEYPOT)
        for record in dataset.records:
            acc.add(record.domain, record.time)
        assert acc.total_samples == dataset.total_samples
        assert acc.unique_domains() == dataset.unique_domains()
        assert acc.first_seen() == dataset.first_seen()
        assert acc.last_seen() == dataset.last_seen()
        assert (
            dict(acc.domain_counts().items())
            == dict(dataset.domain_counts().items())
        )

    def test_exclusive_tracking(self):
        state = self._state()
        state.update(StreamEvent(1, "a", "only-a.com"))
        state.update(StreamEvent(2, "b", "shared.com"))
        assert state.exclusive_count("a") == 1
        assert state.exclusive_count("b") == 1
        state.update(StreamEvent(3, "a", "shared.com"))
        assert state.exclusive_count("a") == 1
        assert state.exclusive_count("b") == 0
        assert state.union_size == 2
        assert state.pairwise_intersection("a", "b") == 1

    def test_repeat_sightings_do_not_change_cross_feed_counters(self):
        state = self._state()
        for t in (1, 2, 3):
            state.update(StreamEvent(t, "a", "x.com"))
        assert state.union_size == 1
        assert state.exclusive_count("a") == 1
        assert state.accumulators["a"].total_samples == 3

    def test_unknown_feed_rejected(self):
        state = self._state()
        with pytest.raises(StreamStateError):
            state.update(StreamEvent(1, "nope", "x.com"))


class TestCheckpointIo:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "stream-engine", {"x": [1, 2]})
        assert read_checkpoint(path, "stream-engine") == {"x": [1, 2]}

    def test_kind_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "something-else", {})
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, "stream-engine")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all{{{")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path), "stream-engine")

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            '{"format": "repro-checkpoint", "version": 999, '
            '"kind": "stream-engine", "payload": {}}'
        )
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(str(path), "stream-engine")

    def test_no_partial_file_on_success(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "stream-engine", {"n": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]


_FEEDS = ("a", "b")

_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_names = st.sampled_from(_FEEDS + ("zz",))

_payloads = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.just(7) | _json,
        "feed_order": st.lists(_names, max_size=3) | _json,
        "cursors": st.dictionaries(
            _names, st.integers(min_value=-2, max_value=5) | _json
        )
        | _json,
        "state": _json,
    },
)


class TestEngineRestore:
    """Checkpoint payloads are outside input: restore either succeeds
    or raises :class:`CheckpointError`, whatever JSON it is handed."""

    def _engine(self, world):
        datasets = {
            "a": FeedDataset("a", FeedType.MX_HONEYPOT, _records(1, 4, 9)),
            "b": FeedDataset(
                "b", FeedType.BLACKLIST, _records(2, 3), has_volume=False
            ),
        }
        return StreamEngine(world, datasets, seed=7, feed_order=_FEEDS)

    @settings(max_examples=300, deadline=None)
    @given(payload=_payloads)
    @example(payload={"seed": 7, "feed_order": ["b"], "cursors": {"a": 2, "b": 1}})
    @example(payload={"seed": 7, "feed_order": [], "cursors": {"a": True, "b": 0}})
    @example(
        payload={
            "seed": 7,
            "feed_order": ["a", "b"],
            "cursors": {"a": 1, "b": 0},
            "state": {},
        }
    )
    def test_arbitrary_payload_restores_or_raises_checkpoint_error(
        self, small_world, payload
    ):
        engine = self._engine(small_world)
        try:
            engine.restore(payload)
        except CheckpointError:
            return
        cursors = payload["cursors"]
        assert all(type(cursor) is int for cursor in cursors.values())
        assert engine.records_processed == sum(cursors.values())
        assert engine.feed_order == payload["feed_order"]
        engine.run()
        assert engine.records_processed == 5
