"""Time the program's layers from outside its code.

    python perfbench/layertrace.py EVENTS -- ARGS...

runs ``python -m repro ARGS...`` after wrapping the public entry points
of each layer (world build, feed collection, the worker pool, the
comparison, renders, the artifact cache, the stream engine and the
serve app) in timers.  Nothing under ``src/`` changes: the wrappers
are installed on the imported modules and classes, so forked pool
workers inherit them.

Each process appends JSON lines to EVENTS with ``O_APPEND`` (one
``write`` per line, so lines from concurrent processes never
interleave).  A line carries the calls, seconds and counts the process
accumulated since its previous line, plus the interval of the
outermost call that just ended; ``layers.py`` folds them into the
per-layer metrics.  Nested calls of one seam are timed once, at the
outermost call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

ARTIFACTS = ["table1", "table2", "table3"] + [
    f"figure{n}" for n in range(1, 13)
]

_events_path: Optional[str] = None
_lock = threading.Lock()
_local = threading.local()
#: seam -> [calls, seconds] since the last flush
_agg: Dict[str, List[float]] = {}
#: summed counts and quantities since the last flush
_counts: Dict[str, float] = {}
#: largest value seen (artifact sizes)
_maxima: Dict[str, float] = {}
#: artifact cache key -> kind, learned from artifact_key()
_kinds: Dict[str, str] = {}


def _reset_after_fork() -> None:
    global _lock, _local, _agg, _counts, _maxima
    _lock = threading.Lock()
    _local = threading.local()
    _agg, _counts, _maxima = {}, {}, {}


def _write(record: Dict[str, Any]) -> None:
    line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
    fd = os.open(_events_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def flush(interval: Optional[List[Any]] = None) -> None:
    global _agg, _counts, _maxima
    with _lock:
        record: Dict[str, Any] = {
            "pid": os.getpid(), "agg": _agg, "cnt": _counts, "max": _maxima,
        }
        _agg, _counts, _maxima = {}, {}, {}
    if interval is not None:
        record["iv"] = interval
    _write(record)


def count(name: str, value: float = 1) -> None:
    with _lock:
        _counts[name] = _counts.get(name, 0) + value


def note_max(name: str, value: float) -> None:
    with _lock:
        _maxima[name] = max(_maxima.get(name, value), value)


def timed(
    seam: Any,
    fn: Callable[..., Any],
    detail: Optional[Callable[[tuple], str]] = None,
) -> Callable[..., Any]:
    """Wrap *fn* so each outermost call of its seam is timed.

    *seam* is a name or a function of the call's arguments.  The
    outermost traced call on a thread also flushes this process's
    totals with its own interval (and *detail*, e.g. a request path).
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        name = seam(args) if callable(seam) else seam
        active = _local.__dict__.setdefault("active", set())
        if name in active:
            return fn(*args, **kwargs)
        depth = _local.__dict__.get("depth", 0)
        active.add(name)
        _local.depth = depth + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            active.discard(name)
            _local.depth = depth
            with _lock:
                totals = _agg.setdefault(name, [0, 0.0])
                totals[0] += 1
                totals[1] += end - start
            if depth == 0:
                flush([
                    name, start, end, threading.get_ident(),
                    detail(args) if detail else None,
                ])

    return wrapper


def counted(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        count(name)
        return fn(*args, **kwargs)

    return wrapper


def _rss_mib() -> float:
    with open("/proc/self/statm") as handle:
        resident = int(handle.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def _patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install(events_path: str) -> None:
    """Wrap every layer seam the benchmark reports on."""
    global _events_path
    _events_path = events_path
    os.register_at_fork(after_in_child=_reset_after_fork)

    from repro.analysis.context import FeedComparison
    from repro.feeds import standard_feed_suite
    from repro.io.artifacts import ArtifactCache
    from repro.oracles.crawler import CrawlOracle
    from repro.oracles.dns_zone import ZoneOracle
    from repro.oracles.mail_oracle import IncomingMailOracle
    from repro.parallel.pool import WorkerPool
    from repro.pipeline import runner
    from repro.serve.app import ServeApp
    from repro.stream.engine import StreamEngine, StreamSnapshot

    # -- ecosystem ------------------------------------------------------
    def build_world(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = _rss_mib()
            world = fn(*args, **kwargs)
            count("ecosystem.build_rss_mib", _rss_mib() - before)
            count("ecosystem.campaigns", len(world.campaigns))
            count(
                "ecosystem.placements",
                sum(len(c.placements) for c in world.campaigns),
            )
            return world

        return timed("ecosystem.build", wrapper)

    _patch(runner, "build_world", build_world)

    # -- feeds ----------------------------------------------------------
    def collect_all(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            datasets = fn(*args, **kwargs)
            count(
                "feeds.records",
                sum(d.total_samples for d in datasets.values()),
            )
            return datasets

        return timed("feeds.collect", wrapper)

    _patch(runner, "collect_all", collect_all)
    for klass in {
        k
        for collector in standard_feed_suite()
        for k in type(collector).__mro__
        if "collect" in k.__dict__
    }:
        _patch(klass, "collect", lambda fn: timed(
            lambda args: f"feeds.collect:{args[0].name}", fn
        ))

    # -- parallel -------------------------------------------------------
    _patch(WorkerPool, "__init__", lambda fn: timed("parallel.fork", fn))

    # -- analysis and oracles -------------------------------------------
    _patch(FeedComparison, "__init__",
           lambda fn: timed("analysis.comparison", fn))
    _patch(FeedComparison, "crawl_results",
           lambda fn: timed("analysis.crawl", fn))
    _patch(FeedComparison, "union_first_seen",
           lambda fn: timed("analysis.union_first_seen", fn))
    _patch(CrawlOracle, "crawl",
           lambda fn: counted("oracles.crawl_calls", fn))
    _patch(ZoneOracle, "in_zone",
           lambda fn: counted("oracles.in_zone_calls", fn))
    _patch(IncomingMailOracle, "message_volume",
           lambda fn: counted("oracles.message_volume_calls", fn))

    # -- reporting / pipeline -------------------------------------------
    for artifact in ARTIFACTS:
        _patch(runner.PaperPipeline, f"render_{artifact}",
               lambda fn, a=artifact: timed(f"render.{a}", fn))
    _patch(runner.PaperPipeline, "run", lambda fn: timed("pipeline.run", fn))
    _patch(runner.PaperPipeline, "render_all",
           lambda fn: timed("pipeline.render_all", fn))

    # -- artifact cache -------------------------------------------------
    def artifact_key(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(kind: str, *args: Any, **kwargs: Any) -> str:
            key = fn(kind, *args, **kwargs)
            _kinds[key] = kind
            return key

        return wrapper

    _patch(runner, "artifact_key", artifact_key)

    def kind_of(args: tuple) -> str:
        return _kinds.get(args[1], "other")

    def note_size(cache: Any, key: str) -> None:
        try:
            size = os.path.getsize(cache.path_for(key))
        except OSError:
            return
        note_max(f"cache.bytes.{_kinds.get(key, 'other')}", size)

    def cache_load(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: Any, key: str) -> Any:
            payload = fn(self, key)
            count("cache.hits" if payload is not None else "cache.misses")
            if payload is not None:
                note_size(self, key)
            return payload

        return timed(lambda args: f"cache.load:{kind_of(args)}", wrapper)

    def cache_store(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: Any, key: str, payload: Any) -> Any:
            path = fn(self, key, payload)
            note_size(self, key)
            return path

        return timed(lambda args: f"cache.store:{kind_of(args)}", wrapper)

    _patch(ArtifactCache, "load", cache_load)
    _patch(ArtifactCache, "store", cache_store)

    # -- stream ---------------------------------------------------------
    _patch(runner.PaperPipeline, "stream_engine",
           lambda fn: timed("stream.engine_build", fn))

    def advance(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            consumed = fn(*args, **kwargs)
            count("stream.records_replayed", consumed)
            return consumed

        return timed("stream.advance", wrapper)

    _patch(StreamEngine, "advance_to_day", advance)
    _patch(StreamEngine, "snapshot", lambda fn: timed("stream.snapshot", fn))
    _patch(StreamSnapshot, "render_tables",
           lambda fn: timed("stream.render", fn))

    # -- serve ----------------------------------------------------------
    _patch(ServeApp, "handle", lambda fn: timed(
        "serve.handle", fn, detail=lambda args: args[1]
    ))


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    install(argv[1])
    _write({"pid": os.getpid(), "main": True, "t": time.perf_counter()})
    import atexit

    from repro.__main__ import main as repro_main

    atexit.register(flush)
    return repro_main(argv[3:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
