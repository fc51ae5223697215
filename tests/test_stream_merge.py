"""Unit tests for the stream merge layer, accumulators and checkpoints."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.feeds.base import FeedDataset, FeedRecord, FeedType
from repro.io.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.stream import (
    FeedAccumulator,
    RecordStream,
    StreamEngine,
    StreamState,
    StreamStateError,
)
from repro.stream.merge import StreamEvent


def _records(*times):
    return [FeedRecord(f"d{t}.com", t) for t in times]


class TestRecordStream:
    def test_time_ordered_interleave(self):
        stream = RecordStream(
            {"a": _records(5, 10, 20), "b": _records(1, 12)}
        )
        times = [event.time for event in stream]
        assert times == sorted(times) == [1, 5, 10, 12, 20]

    def test_tie_broken_by_source_registration_order(self):
        a = [FeedRecord("x.com", 7)]
        b = [FeedRecord("y.com", 7)]
        stream = RecordStream({"b": b, "a": a})
        feeds = [event.feed for event in stream]
        assert feeds == ["b", "a"]

    def test_batch_size_bound(self):
        stream = RecordStream({"a": _records(*range(10))}, batch_size=3)
        batch = stream.next_batch()
        assert len(batch) == 3
        assert stream.emitted == 3
        assert len(stream.next_batch(limit=2)) == 2

    def test_until_time_is_exclusive(self):
        stream = RecordStream({"a": _records(1, 2, 3)})
        batch = stream.next_batch(until_time=3)
        assert [event.time for event in batch] == [1, 2]
        assert not stream.exhausted
        assert stream.peek_time() == 3

    def test_cursors_and_seek_roundtrip(self):
        sources = {"a": _records(1, 4, 9), "b": _records(2, 3)}
        stream = RecordStream(sources)
        stream.next_batch(limit=3)
        saved = stream.cursors
        rest = [event for event in stream]

        fresh = RecordStream(sources)
        fresh.seek(saved)
        assert [event for event in fresh] == rest

    def test_seek_rejects_unknown_feed_and_bad_range(self):
        stream = RecordStream({"a": _records(1)})
        with pytest.raises(ValueError):
            stream.seek({"zz": 0})
        with pytest.raises(ValueError):
            stream.seek({"a": 5})

    def test_unordered_source_rejected(self):
        with pytest.raises(ValueError, match="not time-ordered"):
            RecordStream({"a": [FeedRecord("x.com", 5), FeedRecord("y.com", 1)]})

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            RecordStream({})

    def test_exhaustion(self):
        stream = RecordStream({"a": _records(1)})
        assert not stream.exhausted
        stream.next_batch()
        assert stream.exhausted
        assert stream.next_batch() == []

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
