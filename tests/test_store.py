"""Unit and property tests for the ``repro.store`` subsystem.

Covers the silver validation gate, idempotent run-keyed landing, gold
merge convergence, SQLite durability across reopen, and -- the central
contract -- observational equivalence between :class:`MemoryBackend`
and :class:`SqliteBackend` under arbitrary landing sequences.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    LandingStats,
    MemoryBackend,
    RunWriter,
    SightingStore,
    SqliteBackend,
    StoreError,
    run_key_for,
)
from repro.store.silver import (
    INT64_MAX,
    INT64_MIN,
    REJECT_BAD_TIME,
    REJECT_EMPTY_DOMAIN,
    REJECT_MALFORMED_DOMAIN,
    REJECT_TIME_RANGE,
    validate_sighting,
)


class TestSilverValidation:
    def test_accepts_plain_sighting(self):
        assert validate_sighting("pills.example.com", 1234) is None

    def test_accepts_extreme_but_storable_times(self):
        assert validate_sighting("a.com", INT64_MIN) is None
        assert validate_sighting("a.com", INT64_MAX) is None

    @pytest.mark.parametrize(
        "domain,reason",
        [
            ("", REJECT_EMPTY_DOMAIN),
            (None, REJECT_EMPTY_DOMAIN),
            ("has space.com", REJECT_MALFORMED_DOMAIN),
            ("line\nbreak.com", REJECT_MALFORMED_DOMAIN),
            ("tab\there.com", REJECT_MALFORMED_DOMAIN),
        ],
    )
    def test_rejects_unstorable_domains(self, domain, reason):
        assert validate_sighting(domain, 1) == reason

    @pytest.mark.parametrize(
        "time,reason",
        [
            (None, REJECT_BAD_TIME),
            (True, REJECT_BAD_TIME),
            (1.5, REJECT_BAD_TIME),
            ("7", REJECT_BAD_TIME),
            (INT64_MAX + 1, REJECT_TIME_RANGE),
            (INT64_MIN - 1, REJECT_TIME_RANGE),
        ],
    )
    def test_rejects_unstorable_times(self, time, reason):
        assert validate_sighting("a.com", time) == reason


class TestRunWriter:
    def _writer(self, store):
        return store.open_run(run_key_for("cfg", 7), 7, "cfg", "test")

    def test_landing_splits_tiers(self):
        store = SightingStore.in_memory()
        writer = self._writer(store)
        stats = writer.land_sightings(
            "mx1", [("a.com", 10), ("bad domain", 11), ("a.com", 5)]
        )
        assert (stats.bronze, stats.silver, stats.rejected) == (3, 2, 1)
        (gold,) = store.gold_rows("mx1")
        assert (gold.domain, gold.n_sightings) == ("a.com", 2)
        assert (gold.first_seen, gold.last_seen) == (5, 10)
        # the reject is provenance, never an aggregate
        (summary,) = [b for b in store.bronze_summary() if b.count == 1]
        assert summary.status == "rejected"

    def test_reland_same_run_is_a_noop(self):
        store = SightingStore.in_memory()
        records = [("a.com", 10), ("b.com", 20)]
        self._writer(store).land_sightings("mx1", records)
        stats = self._writer(store).land_sightings("mx1", records)
        assert stats == LandingStats(bronze=0, silver=0, rejected=0, skipped=2)
        assert len(store.sightings()) == 2
        (gold_a, gold_b) = store.gold_rows("mx1")
        assert gold_a.n_sightings == gold_b.n_sightings == 1

    def test_reland_extends_past_landed_prefix(self):
        store = SightingStore.in_memory()
        self._writer(store).land_sightings("mx1", [("a.com", 10)])
        stats = self._writer(store).land_sightings(
            "mx1", [("a.com", 10), ("b.com", 20)]
        )
        assert (stats.skipped, stats.bronze) == (1, 1)
        assert [row.domain for row in store.sightings()] == ["a.com", "b.com"]

    def test_distinct_run_keys_land_independently(self):
        store = SightingStore.in_memory()
        store.open_run("k1", 7, "cfg", "run").land_sightings(
            "mx1", [("a.com", 10)]
        )
        store.open_run("k2", 11, "cfg", "run").land_sightings(
            "mx1", [("a.com", 10)]
        )
        assert len(store.runs()) == 2
        (gold,) = store.gold_rows("mx1")
        assert gold.n_sightings == 2  # gold aggregates across runs

    def test_land_raw_accounting_matches_on_reland(self):
        store = SightingStore.in_memory()
        lines = [
            ("good", "a.com", 10, None),
            ("junk", None, None, "bad_json"),
            ("huge", "b.com", 2**63, None),
        ]
        first_writer = self._writer(store)
        first = [first_writer.land_raw("mx1", *line) for line in lines]
        # one writer per pass; re-landing returns identical reasons
        writer = self._writer(store)
        second = [writer.land_raw("mx1", *line) for line in lines]
        assert [reason for reason, _ in first] == [
            None,
            "bad_json",
            REJECT_TIME_RANGE,
        ]
        assert [reason for reason, _ in second] == [
            reason for reason, _ in first
        ]
        assert all(landed for _, landed in first)
        assert not any(landed for _, landed in second)

    def test_gold_merge_is_batching_invariant(self):
        records = [("a.com", 30), ("b.com", 5), ("a.com", 10), ("a.com", 20)]
        one_shot = SightingStore.in_memory()
        self._writer(one_shot).land_sightings("mx1", records)
        trickle = SightingStore.in_memory()
        writer = self._writer(trickle)
        for record in records:
            writer.land_sightings("mx1", [record])
        assert one_shot.gold_rows() == trickle.gold_rows()
        assert one_shot.sightings() == trickle.sightings()


class TestSqliteDurability:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with SightingStore.open(path) as store:
            writer = store.open_run("k", 7, "cfg", "run")
            writer.land_sightings("mx1", [("a.com", 10), ("b.com", 20)])
            writer.finish()
        with SightingStore.open(path) as store:
            assert [row.domain for row in store.sightings()] == [
                "a.com",
                "b.com",
            ]
            writer = store.open_run("k", 7, "cfg", "run")
            assert not writer.created
            assert writer.cursor("mx1") == 2

    def test_reopen_drops_the_unread_silver_index(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        SightingStore.open(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE INDEX idx_silver_run_feed ON silver(run_id, feed, seq)"
        )
        conn.commit()
        conn.close()
        SightingStore.open(path).close()
        conn = sqlite3.connect(path)
        indexes = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        conn.close()
        assert "idx_silver_run_feed" not in indexes
        assert "idx_silver_feed" in indexes

    def test_refuses_foreign_sqlite_file(self, tmp_path):
        path = str(tmp_path / "foreign.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            SightingStore.open(path)

    def test_refuses_non_sqlite_file(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_text("this is not a database")
        with pytest.raises(StoreError):
            SightingStore.open(str(path))


# ----------------------------------------------------------------------
# Property: the two backends are observationally identical
# ----------------------------------------------------------------------

_DOMAINS = st.sampled_from(
    ["a.com", "b.net", "c.org", "bad domain", "d.biz", ""]
)
_TIMES = st.integers(min_value=-(2**63) - 2, max_value=2**63 + 2)
_FEEDS = st.sampled_from(["mx1", "mx2", "hum"])
_BATCH = st.lists(st.tuples(_DOMAINS, _TIMES), max_size=8)
_SCRIPT = st.lists(
    st.tuples(st.sampled_from(["k1", "k2"]), _FEEDS, _BATCH), max_size=12
)


def _observe(store: SightingStore):
    """Everything a reader can see, as one comparable value."""
    return (
        [(r.run_key, r.seed, r.config_fingerprint) for r in store.runs()],
        store.gold_rows(),
        store.feed_summaries(),
        store.bronze_summary(),
        [(r.feed, r.domain, r.time) for r in store.sightings()],
        store.first_seen("a.com"),
        store.first_seen("nowhere.example"),
    )


class TestBackendEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(script=_SCRIPT)
    def test_memory_and_sqlite_agree(self, script, tmp_path_factory):
        memory = SightingStore.in_memory()
        path = tmp_path_factory.mktemp("store") / "s.sqlite"
        sqlite_store = SightingStore.open(str(path))
        try:
            for run_key, feed, batch in script:
                for store in (memory, sqlite_store):
                    writer = store.open_run(run_key, 7, "cfg", "test")
                    writer.land_sightings(feed, batch)
                    writer.finish()
            assert _observe(memory) == _observe(sqlite_store)
        finally:
            sqlite_store.close()

    @settings(max_examples=30, deadline=None)
    @given(batch=_BATCH)
    def test_writer_stats_agree(self, batch, tmp_path_factory):
        memory = SightingStore.in_memory()
        path = tmp_path_factory.mktemp("store") / "s.sqlite"
        sqlite_store = SightingStore.open(str(path))
        try:
            stats = [
                store.open_run("k", 7, "cfg", "test").land_sightings(
                    "mx1", batch
                )
                for store in (memory, sqlite_store)
            ]
            assert stats[0] == stats[1]
            assert stats[0].bronze == len(batch)
        finally:
            sqlite_store.close()


class TestRunWriterSurface:
    def test_run_key_format(self):
        assert run_key_for("abc", 2012) == "abc:2012"

    def test_memory_backend_is_default_for_in_memory(self):
        assert isinstance(SightingStore.in_memory().backend, MemoryBackend)

    def test_open_gives_sqlite_backend(self, tmp_path):
        store = SightingStore.open(str(tmp_path / "s.sqlite"))
        try:
            assert isinstance(store.backend, SqliteBackend)
        finally:
            store.close()

    def test_writer_type_round_trip(self):
        store = SightingStore.in_memory()
        writer = store.open_run("k", 7, "cfg", "test")
        assert isinstance(writer, RunWriter)
        assert writer.created
        assert not store.open_run("k", 7, "cfg", "test").created
