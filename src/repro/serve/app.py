"""The serve daemon's request logic, transport-free.

:class:`ServeApp` maps ``(path, query)`` to a :class:`Response` using a
:class:`~repro.serve.worlds.WorldCache`; the HTTP layer in
:mod:`repro.serve.server` only parses requests and writes bytes.  The
split keeps every endpoint unit-testable without a socket and keeps the
answer surface honest: each endpoint is a pure function of its
parameters plus the deterministic world they select.

Endpoints (all GET):

* ``/healthz`` -- liveness probe, never touches a world.
* ``/v1/tables`` -- every table and figure, byte-identical to
  ``python -m repro run`` stdout for the same config and seed.
* ``/v1/table/{1,2,3}`` -- one paper table.
* ``/v1/feeds`` -- per-feed purity and coverage as JSON.
* ``/v1/snapshot?day=D`` -- Table 1/2/3 as of the start of day D.
* ``/v1/recommend?question=Q`` -- Section 5 feed ranking as JSON.
* ``/v1/first-seen?domain=X`` -- cross-run first-seen from the
  daemon's sighting store.
* ``/v1/stats`` -- daemon counters, resident worlds, uptime.

World-selecting endpoints share three query parameters: ``seed``
(default from the CLI), ``small`` (0/1) and ``scale`` (float) -- the
same knobs the batch CLI exposes, resolved to the same configs.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.recommend import Question, rank_feeds
from repro.ecosystem import (
    EcosystemConfig,
    paper_config,
    scaled_config,
    small_config,
)
from repro.io.artifacts import fingerprint
from repro.serve.worlds import ServeStats, WorldCache, WorldEntry
from repro.store.backend import StoreError
from repro.store.sightings import SightingStore


@dataclasses.dataclass
class Response:
    """One finished answer, ready for any transport."""

    status: int
    content_type: str
    body: bytes
    #: Key of the world that answered (manifest provenance), if any.
    config_fingerprint: str = ""
    seed: Optional[int] = None

    @classmethod
    def text(cls, text: str, status: int = 200, **meta: Any) -> "Response":
        return cls(
            status, "text/plain; charset=utf-8", text.encode("utf-8"), **meta
        )

    @classmethod
    def json(cls, payload: Any, status: int = 200, **meta: Any) -> "Response":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return cls(status, "application/json", body.encode("utf-8"), **meta)

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message}, status=status)


class BadRequest(ValueError):
    """A malformed or unanswerable request (becomes a 400)."""


def _first(query: Mapping[str, List[str]], name: str) -> Optional[str]:
    values = query.get(name)
    return values[0] if values else None


class ServeApp:
    """Routes requests over one world cache and one optional store."""

    def __init__(
        self,
        worlds: WorldCache,
        stats: ServeStats,
        default_seed: int = 2012,
        default_small: bool = False,
        store: Optional[SightingStore] = None,
    ):
        self.worlds = worlds
        self.stats = stats
        self.default_seed = default_seed
        self.default_small = default_small
        #: Daemon-held read connection for first-seen queries, guarded
        #: by the store lock in :mod:`repro.serve.server` handlers via
        #: :meth:`first_seen_rows`.
        self._store = store
        self._store_lock = threading.Lock()
        self._routes: Dict[str, Callable[..., Response]] = {
            "/healthz": self._healthz,
            "/v1/tables": self._tables,
            "/v1/table/1": self._one_table,
            "/v1/table/2": self._one_table,
            "/v1/table/3": self._one_table,
            "/v1/feeds": self._feeds,
            "/v1/snapshot": self._snapshot,
            "/v1/recommend": self._recommend,
            "/v1/first-seen": self._first_seen,
            "/v1/stats": self._stats,
        }

    # -- parameter resolution ------------------------------------------

    def resolve_config(
        self, query: Mapping[str, List[str]]
    ) -> Tuple[EcosystemConfig, int]:
        """The (config, seed) a request's query parameters select."""
        seed_raw = _first(query, "seed")
        try:
            seed = self.default_seed if seed_raw is None else int(seed_raw)
        except ValueError:
            raise BadRequest(
                f"seed must be an integer, got {seed_raw!r}"
            ) from None
        small_raw = _first(query, "small")
        if small_raw is None:
            small = self.default_small
        elif small_raw in ("0", "1"):
            small = small_raw == "1"
        else:
            raise BadRequest(f"small must be 0 or 1, got {small_raw!r}")
        config = small_config() if small else paper_config()
        scale_raw = _first(query, "scale")
        if scale_raw is not None:
            try:
                scale = float(scale_raw)
            except ValueError:
                raise BadRequest(
                    f"scale must be a number, got {scale_raw!r}"
                ) from None
            if scale != 1.0:
                try:
                    config = scaled_config(config, scale)
                except ValueError as exc:
                    raise BadRequest(str(exc)) from None
        return config, seed

    # -- dispatch ------------------------------------------------------

    def endpoints(self) -> List[str]:
        """Every routable path, sorted (the 404 body lists them)."""
        return sorted(self._routes)

    def handle(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        """Answer one parsed request (transport-independent)."""
        self.stats.add("serve.requests")
        route = self._routes.get(path)
        if route is None:
            self.stats.add("serve.not_found")
            return Response.json(
                {"error": f"no such endpoint: {path}",
                 "endpoints": self.endpoints()},
                status=404,
            )
        try:
            return route(path, query)
        except BadRequest as exc:
            self.stats.add("serve.bad_requests")
            return Response.error(400, str(exc))

    # -- endpoints -----------------------------------------------------

    def _healthz(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        return Response.text("ok\n")

    def _entry(self, query: Mapping[str, List[str]]) -> WorldEntry:
        config, seed = self.resolve_config(query)
        return self.worlds.entry(config, seed)

    def _tables(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        entry = self._entry(query)
        # print() in the batch CLI appends one newline; matching it
        # here is what makes `GET /v1/tables` byte-identical to
        # `python -m repro run` stdout.
        text = self.worlds.render(entry, "all") + "\n"
        return Response.text(
            text, config_fingerprint=entry.key[0], seed=entry.seed
        )

    def _one_table(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        number = path.rsplit("/", 1)[1]
        entry = self._entry(query)
        text = self.worlds.render(entry, f"table{number}") + "\n"
        return Response.text(
            text, config_fingerprint=entry.key[0], seed=entry.seed
        )

    def _feeds(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        entry = self._entry(query)
        pipeline = entry.pipeline

        def compute() -> dict:
            purity = {
                row.feed: {
                    "dns": row.dns,
                    "http": row.http,
                    "tagged": row.tagged,
                    "odp": row.odp,
                    "alexa": row.alexa,
                    "n_domains": row.n_domains,
                }
                for row in pipeline.table2()
            }
            coverage = {
                row.feed: {
                    "total_all": row.total_all,
                    "exclusive_all": row.exclusive_all,
                    "total_live": row.total_live,
                    "exclusive_live": row.exclusive_live,
                    "total_tagged": row.total_tagged,
                    "exclusive_tagged": row.exclusive_tagged,
                }
                for row in pipeline.table3()
            }
            return {
                "seed": entry.seed,
                "config_fingerprint": entry.key[0],
                "feeds": list(pipeline.feed_order),
                "purity": purity,
                "coverage": coverage,
            }

        return Response.json(
            self.worlds.payload(entry, "feeds", compute),
            config_fingerprint=entry.key[0],
            seed=entry.seed,
        )

    def _snapshot(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        day_raw = _first(query, "day")
        if day_raw is None:
            raise BadRequest("snapshot requires a day parameter")
        try:
            day = int(day_raw)
        except ValueError:
            raise BadRequest(
                f"day must be an integer, got {day_raw!r}"
            ) from None
        entry = self._entry(query)
        total = entry.total_days()
        if not 0 <= day <= total:
            raise BadRequest(
                f"day must be between 0 and {total}, got {day}"
            )
        text = self.worlds.snapshot(entry, day) + "\n"
        return Response.text(
            text, config_fingerprint=entry.key[0], seed=entry.seed
        )

    def _recommend(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        question_raw = _first(query, "question")
        if question_raw is None:
            raise BadRequest(
                "recommend requires a question parameter; one of: "
                + ", ".join(q.value for q in Question)
            )
        try:
            question = Question(question_raw)
        except ValueError:
            raise BadRequest(
                f"unknown question {question_raw!r}; one of: "
                + ", ".join(q.value for q in Question)
            ) from None
        entry = self._entry(query)

        def compute() -> dict:
            ranking = rank_feeds(entry.pipeline.comparison, question)
            return {
                "seed": entry.seed,
                "config_fingerprint": entry.key[0],
                "question": question.value,
                "ranking": [
                    {
                        "rank": rank,
                        "feed": score.feed,
                        "score": score.score,
                        "rationale": score.rationale,
                    }
                    for rank, score in enumerate(ranking, start=1)
                ],
            }

        return Response.json(
            self.worlds.payload(
                entry, f"recommend:{question.value}", compute
            ),
            config_fingerprint=entry.key[0],
            seed=entry.seed,
        )

    def _first_seen(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        if self._store is None:
            raise BadRequest(
                "the daemon has no sighting store; restart serve with "
                "--store PATH to enable first-seen queries"
            )
        domain = _first(query, "domain")
        if not domain:
            raise BadRequest("first-seen requires a domain parameter")
        with self._store_lock:
            try:
                rows = self._store.first_seen(domain)
            except StoreError as exc:
                raise BadRequest(str(exc)) from exc
        return Response.json(
            {
                "domain": domain,
                "sightings": [
                    {
                        "feed": row.feed,
                        "first_seen": row.first_seen,
                        "last_seen": row.last_seen,
                        "n_sightings": row.n_sightings,
                    }
                    for row in rows
                ],
            }
        )

    def _stats(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        return Response.json(
            {
                "metrics": self.stats.snapshot(),
                "worlds": self.worlds.resident(),
                "store": self.worlds.store_path,
            }
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop the daemon store connection (the server closes worlds)."""
        if self._store is not None:
            self._store.close()
            self._store = None


def default_config_fingerprint(small: bool) -> str:
    """Fingerprint of the daemon's default config (manifest provenance)."""
    return fingerprint(small_config() if small else paper_config())


__all__ = ["BadRequest", "Response", "ServeApp"]
