"""Storage backends for the sighting store.

One :class:`StorageProtocol`, two implementations with identical
observable behavior:

* :class:`MemoryBackend` -- plain dicts and lists; tests, ephemeral
  runs, and anything that should leave no file behind.
* :class:`SqliteBackend` -- one durable SQLite file; batched writes
  inside explicit transactions, so a crash mid-landing leaves the
  previous committed state intact.

The protocol is deliberately dumb: append rows, merge gold aggregates,
answer ordered queries.  All tier logic (validation, natural-key
bookkeeping, idempotent re-landing) lives one layer up in
:class:`~repro.store.sightings.SightingStore`, so backends can be
swapped -- or a server backend added -- without touching semantics.
Every query is ordered by explicit deterministic keys (never
insertion-hash order), which is what makes the two backends
observationally equivalent and keeps query output reproducible.
"""

from __future__ import annotations

import os
import sqlite3
from typing import (
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

#: Store format marker and version, kept in the meta tier of every
#: backend; readers fail loudly on foreign or future files.
STORE_FORMAT = "repro-sighting-store"
STORE_VERSION = 1

#: Column tuples of every store table, in CREATE TABLE order.  This is
#: the schema contract between the SQL below, the row NamedTuples
#: above, and files written by earlier runs: reprolint's REP012 checks
#: every SQL string in this module against these declarations.
STORE_SCHEMA_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "meta": ("key", "value"),
    "runs": ("run_id", "run_key", "seed", "config_fingerprint", "command"),
    "bronze": ("seq", "run_id", "feed", "payload", "status", "reason"),
    "silver": ("seq", "run_id", "feed", "domain", "time"),
    "gold": ("feed", "domain", "n_sightings", "first_seen", "last_seen"),
}

#: Fingerprint pinning (STORE_VERSION, STORE_SCHEMA_COLUMNS).  REP012
#: recomputes this from the declarations above; editing a column tuple
#: without bumping the version (and re-pinning) fails the lint.
#: Regenerate with ``python -m repro lint --store-schema-pin``.
STORE_SCHEMA_PIN = "v1:01f0b9393f24"


class StoreError(ValueError):
    """Raised when a store file or payload is invalid or mismatched."""


class RunRow(NamedTuple):
    """One landed run: the provenance unit of the store."""

    run_id: int
    run_key: str
    seed: int
    config_fingerprint: str
    command: str


class BronzeRow(NamedTuple):
    """One raw record exactly as received (kept even when rejected)."""

    seq: int
    run_id: int
    feed: str
    payload: str
    status: str
    reason: str


class SilverRow(NamedTuple):
    """One validated sighting, in landing order."""

    seq: int
    run_id: int
    feed: str
    domain: str
    time: int


class GoldRow(NamedTuple):
    """Per-(feed, domain) natural-key aggregate the analyses read."""

    feed: str
    domain: str
    n_sightings: int
    first_seen: int
    last_seen: int


class FeedSummary(NamedTuple):
    """Per-feed rollup over the gold tier."""

    feed: str
    sightings: int
    domains: int
    first_seen: int
    last_seen: int


class BronzeSummary(NamedTuple):
    """Count of bronze rows per (feed, status, reason)."""

    feed: str
    status: str
    reason: str
    count: int


class StorageProtocol(Protocol):
    """What a sighting-store backend must provide.

    Write methods are batch-shaped (one call per landing batch);
    read methods return rows in documented deterministic orders.
    ``flush`` makes everything written so far durable; backends
    without durability (memory) treat it as a no-op.
    """

    # -- writes --------------------------------------------------------

    def begin_run(
        self, run_key: str, seed: int, config_fingerprint: str, command: str
    ) -> Tuple[int, bool]:
        """Find or create the run for *run_key*; returns (id, created)."""
        ...

    def append_bronze(
        self, run_id: int, rows: Sequence[Tuple[str, str, str, str]]
    ) -> None:
        """Append raw ``(feed, payload, status, reason)`` rows."""
        ...

    def append_silver(
        self, run_id: int, rows: Sequence[Tuple[str, str, int]]
    ) -> None:
        """Append validated ``(feed, domain, time)`` sightings."""
        ...

    def merge_gold(
        self, entries: Sequence[Tuple[str, str, int, int, int]]
    ) -> None:
        """Merge ``(feed, domain, n, first, last)`` aggregate deltas."""
        ...

    def flush(self) -> None:
        """Commit everything appended so far."""
        ...

    def close(self) -> None:
        """Flush and release any underlying resources."""
        ...

    # -- reads ---------------------------------------------------------

    def runs(self) -> List[RunRow]:
        """Every landed run, ordered by run id."""
        ...

    def run_by_key(self, run_key: str) -> Optional[RunRow]:
        """The run landed under *run_key*, if any."""
        ...

    def bronze_counts(self, run_id: int) -> Dict[str, int]:
        """Bronze rows per feed for one run (the landing cursors)."""
        ...

    def bronze_summary(self) -> List[BronzeSummary]:
        """Counts per (feed, status, reason), ordered by that key."""
        ...

    def silver_rows(
        self,
        feed: Optional[str] = None,
        since: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[SilverRow]:
        """Silver sightings in landing order, optionally filtered."""
        ...

    def gold_rows(self, feed: Optional[str] = None) -> List[GoldRow]:
        """Gold aggregates ordered by (feed, domain)."""
        ...

    def first_seen(self, domain: str) -> List[GoldRow]:
        """Which feeds saw *domain*, ordered by (first_seen, feed)."""
        ...

    def feed_summaries(self) -> List[FeedSummary]:
        """Per-feed gold rollups, ordered by feed."""
        ...


# ----------------------------------------------------------------------
# In-memory backend
# ----------------------------------------------------------------------


class MemoryBackend:
    """Ephemeral backend: everything in plain Python containers."""

    def __init__(self) -> None:
        self._runs: Dict[str, RunRow] = {}
        self._bronze: List[BronzeRow] = []
        self._silver: List[SilverRow] = []
        #: (feed, domain) -> [n, first, last]
        self._gold: Dict[Tuple[str, str], List[int]] = {}

    # -- writes --------------------------------------------------------

    def begin_run(
        self, run_key: str, seed: int, config_fingerprint: str, command: str
    ) -> Tuple[int, bool]:
        existing = self._runs.get(run_key)
        if existing is not None:
            return existing.run_id, False
        row = RunRow(
            run_id=len(self._runs) + 1,
            run_key=run_key,
            seed=seed,
            config_fingerprint=config_fingerprint,
            command=command,
        )
        self._runs[run_key] = row
        return row.run_id, True

    def append_bronze(
        self, run_id: int, rows: Sequence[Tuple[str, str, str, str]]
    ) -> None:
        seq = len(self._bronze)
        for offset, (feed, payload, status, reason) in enumerate(rows):
            self._bronze.append(
                BronzeRow(seq + offset + 1, run_id, feed, payload, status, reason)
            )

    def append_silver(
        self, run_id: int, rows: Sequence[Tuple[str, str, int]]
    ) -> None:
        seq = len(self._silver)
        for offset, (feed, domain, time) in enumerate(rows):
            self._silver.append(
                SilverRow(seq + offset + 1, run_id, feed, domain, time)
            )

    def merge_gold(
        self, entries: Sequence[Tuple[str, str, int, int, int]]
    ) -> None:
        for feed, domain, n, first, last in entries:
            cell = self._gold.get((feed, domain))
            if cell is None:
                self._gold[(feed, domain)] = [n, first, last]
            else:
                cell[0] += n
                if first < cell[1]:
                    cell[1] = first
                if last > cell[2]:
                    cell[2] = last

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    # -- reads ---------------------------------------------------------

    def runs(self) -> List[RunRow]:
        return sorted(self._runs.values(), key=lambda r: r.run_id)

    def run_by_key(self, run_key: str) -> Optional[RunRow]:
        return self._runs.get(run_key)

    def bronze_counts(self, run_id: int) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for row in self._bronze:
            if row.run_id == run_id:
                counts[row.feed] = counts.get(row.feed, 0) + 1
        return {feed: counts[feed] for feed in sorted(counts)}

    def bronze_summary(self) -> List[BronzeSummary]:
        counts: Dict[Tuple[str, str, str], int] = {}
        for row in self._bronze:
            key = (row.feed, row.status, row.reason)
            counts[key] = counts.get(key, 0) + 1
        return [
            BronzeSummary(feed, status, reason, counts[(feed, status, reason)])
            for feed, status, reason in sorted(counts)
        ]

    def silver_rows(
        self,
        feed: Optional[str] = None,
        since: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[SilverRow]:
        rows = [
            row
            for row in self._silver
            if (feed is None or row.feed == feed)
            and (since is None or row.time >= since)
        ]
        if limit is not None:
            rows = rows[:limit]
        return rows

    def gold_rows(self, feed: Optional[str] = None) -> List[GoldRow]:
        keys = [
            key for key in sorted(self._gold) if feed is None or key[0] == feed
        ]
        return [
            GoldRow(f, d, self._gold[(f, d)][0], self._gold[(f, d)][1],
                    self._gold[(f, d)][2])
            for f, d in keys
        ]

    def first_seen(self, domain: str) -> List[GoldRow]:
        rows = [
            GoldRow(f, d, cell[0], cell[1], cell[2])
            for (f, d), cell in self._gold.items()
            if d == domain
        ]
        return sorted(rows, key=lambda r: (r.first_seen, r.feed))

    def feed_summaries(self) -> List[FeedSummary]:
        per_feed: Dict[str, List[int]] = {}
        for (feed, _domain), (n, first, last) in self._gold.items():
            cell = per_feed.get(feed)
            if cell is None:
                per_feed[feed] = [n, 1, first, last]
            else:
                cell[0] += n
                cell[1] += 1
                if first < cell[2]:
                    cell[2] = first
                if last > cell[3]:
                    cell[3] = last
        return [
            FeedSummary(feed, *per_feed[feed]) for feed in sorted(per_feed)
        ]

    def __repr__(self) -> str:
        return (
            f"MemoryBackend(runs={len(self._runs)}, "
            f"bronze={len(self._bronze)}, silver={len(self._silver)}, "
            f"gold={len(self._gold)})"
        )


# ----------------------------------------------------------------------
# SQLite backend
# ----------------------------------------------------------------------

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs(
    run_id INTEGER PRIMARY KEY,
    run_key TEXT NOT NULL UNIQUE,
    seed INTEGER NOT NULL,
    config_fingerprint TEXT NOT NULL,
    command TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS bronze(
    seq INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    feed TEXT NOT NULL,
    payload TEXT NOT NULL,
    status TEXT NOT NULL,
    reason TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS silver(
    seq INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    feed TEXT NOT NULL,
    domain TEXT NOT NULL,
    time INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS gold(
    feed TEXT NOT NULL,
    domain TEXT NOT NULL,
    n_sightings INTEGER NOT NULL,
    first_seen INTEGER NOT NULL,
    last_seen INTEGER NOT NULL,
    PRIMARY KEY(feed, domain)
);
CREATE INDEX IF NOT EXISTS idx_bronze_run_feed ON bronze(run_id, feed);
CREATE INDEX IF NOT EXISTS idx_silver_feed ON silver(feed, seq);
CREATE INDEX IF NOT EXISTS idx_gold_domain ON gold(domain);
"""

_GOLD_UPSERT = """
INSERT INTO gold(feed, domain, n_sightings, first_seen, last_seen)
VALUES(?, ?, ?, ?, ?)
ON CONFLICT(feed, domain) DO UPDATE SET
    n_sightings = n_sightings + excluded.n_sightings,
    first_seen = min(first_seen, excluded.first_seen),
    last_seen = max(last_seen, excluded.last_seen)
"""


class SqliteBackend:
    """Durable single-file backend.

    Writes accumulate inside one SQLite transaction and become visible
    (and durable) at :meth:`flush`; a process killed mid-landing rolls
    back to the previous committed state, so the file never holds a
    half-landed batch.  Opening an existing file validates the embedded
    format marker and version.
    """

    def __init__(self, path: str, cross_thread: bool = False) -> None:
        self.path = path
        existed = path != ":memory:" and os.path.exists(path)
        try:
            # cross_thread drops SQLite's same-thread check for callers
            # (the serve daemon) that open on one thread and query from
            # request threads behind their own lock; the backend itself
            # never synchronizes.
            self._conn = sqlite3.connect(
                path, check_same_thread=not cross_thread
            )
        except sqlite3.Error as exc:
            raise StoreError(f"{path}: cannot open store: {exc}") from exc
        try:
            if existed:
                self._validate_meta()
                self._drop_retired_index()
            else:
                self._conn.executescript(_SCHEMA)
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES(?, ?)",
                    ("format", STORE_FORMAT),
                )
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES(?, ?)",
                    ("version", str(STORE_VERSION)),
                )
                self._conn.commit()
        except BaseException:
            self._conn.close()
            raise

    def _drop_retired_index(self) -> None:
        """Drop ``idx_silver_run_feed`` from files that still carry it.

        No query reads it, yet every silver insert maintained it.  A
        read-only file keeps the index: it costs only insert time.
        """
        try:
            self._conn.execute("DROP INDEX IF EXISTS idx_silver_run_feed")
            self._conn.commit()
        except sqlite3.OperationalError:
            pass

    def _validate_meta(self) -> None:
        try:
            rows = dict(
                self._conn.execute("SELECT key, value FROM meta").fetchall()
            )
        except sqlite3.Error as exc:
            raise StoreError(
                f"{self.path}: not a sighting store: {exc}"
            ) from exc
        if rows.get("format") != STORE_FORMAT:
            raise StoreError(
                f"{self.path}: unrecognized store format "
                f"{rows.get('format')!r}"
            )
        version = rows.get("version")
        if version != str(STORE_VERSION):
            raise StoreError(
                f"{self.path}: unsupported store version {version!r} "
                f"(expected {STORE_VERSION})"
            )
        # Structural check: a file can carry a plausible meta table yet
        # miss (or mangle) the data tables — e.g. a foreign SQLite file
        # or a half-converted store.  Failing here turns what would be
        # a raw OperationalError mid-query into a clean StoreError at
        # open time.
        for table, expected in STORE_SCHEMA_COLUMNS.items():
            try:
                info = self._conn.execute(
                    f"PRAGMA table_info({table})"
                ).fetchall()
            except sqlite3.Error as exc:
                raise StoreError(
                    f"{self.path}: not a sighting store: {exc}"
                ) from exc
            present = tuple(row[1] for row in info)
            if not info:
                raise StoreError(
                    f"{self.path}: not a sighting store: missing "
                    f"table {table!r}"
                )
            if present != expected:
                raise StoreError(
                    f"{self.path}: not a sighting store: table "
                    f"{table!r} has columns {present}, expected "
                    f"{expected}"
                )

    # -- writes --------------------------------------------------------

    def begin_run(
        self, run_key: str, seed: int, config_fingerprint: str, command: str
    ) -> Tuple[int, bool]:
        row = self._conn.execute(
            "SELECT run_id FROM runs WHERE run_key = ?", (run_key,)
        ).fetchone()
        if row is not None:
            return int(row[0]), False
        cursor = self._conn.execute(
            "INSERT INTO runs(run_key, seed, config_fingerprint, command) "
            "VALUES(?, ?, ?, ?)",
            (run_key, seed, config_fingerprint, command),
        )
        run_id = cursor.lastrowid
        assert run_id is not None
        return int(run_id), True

    def append_bronze(
        self, run_id: int, rows: Sequence[Tuple[str, str, str, str]]
    ) -> None:
        self._conn.executemany(
            "INSERT INTO bronze(run_id, feed, payload, status, reason) "
            "VALUES(?, ?, ?, ?, ?)",
            [(run_id, *row) for row in rows],
        )

    def append_silver(
        self, run_id: int, rows: Sequence[Tuple[str, str, int]]
    ) -> None:
        self._conn.executemany(
            "INSERT INTO silver(run_id, feed, domain, time) "
            "VALUES(?, ?, ?, ?)",
            [(run_id, *row) for row in rows],
        )

    def merge_gold(
        self, entries: Sequence[Tuple[str, str, int, int, int]]
    ) -> None:
        self._conn.executemany(_GOLD_UPSERT, entries)

    def flush(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        self._conn.commit()
        self._conn.close()

    # -- reads ---------------------------------------------------------

    def runs(self) -> List[RunRow]:
        rows = self._conn.execute(
            "SELECT run_id, run_key, seed, config_fingerprint, command "
            "FROM runs ORDER BY run_id"
        ).fetchall()
        return [RunRow(int(r[0]), r[1], int(r[2]), r[3], r[4]) for r in rows]

    def run_by_key(self, run_key: str) -> Optional[RunRow]:
        row = self._conn.execute(
            "SELECT run_id, run_key, seed, config_fingerprint, command "
            "FROM runs WHERE run_key = ?",
            (run_key,),
        ).fetchone()
        if row is None:
            return None
        return RunRow(int(row[0]), row[1], int(row[2]), row[3], row[4])

    def bronze_counts(self, run_id: int) -> Dict[str, int]:
        rows = self._conn.execute(
            "SELECT feed, COUNT(*) FROM bronze WHERE run_id = ? "
            "GROUP BY feed ORDER BY feed",
            (run_id,),
        ).fetchall()
        return {r[0]: int(r[1]) for r in rows}

    def bronze_summary(self) -> List[BronzeSummary]:
        rows = self._conn.execute(
            "SELECT feed, status, reason, COUNT(*) FROM bronze "
            "GROUP BY feed, status, reason ORDER BY feed, status, reason"
        ).fetchall()
        return [BronzeSummary(r[0], r[1], r[2], int(r[3])) for r in rows]

    def silver_rows(
        self,
        feed: Optional[str] = None,
        since: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[SilverRow]:
        clauses: List[str] = []
        params: List[object] = []
        if feed is not None:
            clauses.append("feed = ?")
            params.append(feed)
        if since is not None:
            clauses.append("time >= ?")
            params.append(since)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        tail = ""
        if limit is not None:
            tail = " LIMIT ?"
            params.append(limit)
        rows = self._conn.execute(
            "SELECT seq, run_id, feed, domain, time FROM silver"
            + where + " ORDER BY seq" + tail,
            params,
        ).fetchall()
        return [
            SilverRow(int(r[0]), int(r[1]), r[2], r[3], int(r[4]))
            for r in rows
        ]

    def gold_rows(self, feed: Optional[str] = None) -> List[GoldRow]:
        if feed is None:
            rows = self._conn.execute(
                "SELECT feed, domain, n_sightings, first_seen, last_seen "
                "FROM gold ORDER BY feed, domain"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT feed, domain, n_sightings, first_seen, last_seen "
                "FROM gold WHERE feed = ? ORDER BY domain",
                (feed,),
            ).fetchall()
        return [
            GoldRow(r[0], r[1], int(r[2]), int(r[3]), int(r[4])) for r in rows
        ]

    def first_seen(self, domain: str) -> List[GoldRow]:
        rows = self._conn.execute(
            "SELECT feed, domain, n_sightings, first_seen, last_seen "
            "FROM gold WHERE domain = ? ORDER BY first_seen, feed",
            (domain,),
        ).fetchall()
        return [
            GoldRow(r[0], r[1], int(r[2]), int(r[3]), int(r[4])) for r in rows
        ]

    def feed_summaries(self) -> List[FeedSummary]:
        rows = self._conn.execute(
            "SELECT feed, SUM(n_sightings), COUNT(*), MIN(first_seen), "
            "MAX(last_seen) FROM gold GROUP BY feed ORDER BY feed"
        ).fetchall()
        return [
            FeedSummary(r[0], int(r[1]), int(r[2]), int(r[3]), int(r[4]))
            for r in rows
        ]

    def __repr__(self) -> str:
        return f"SqliteBackend({self.path!r})"
