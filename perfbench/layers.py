"""Per-layer metrics: names, units, and how they are folded from the
event lines ``layertrace.py`` writes."""

from __future__ import annotations

import dataclasses
import json
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

import stats
from layertrace import ARTIFACTS

#: The ten feeds in the paper's order.
FEEDS = ("Hu", "uribl", "dbl", "mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot",
         "Hyb")
#: Endpoint label -> request path prefix, for serve.handle_ms.<label>.
ENDPOINTS = {"snapshot": "/v1/snapshot"}
CACHE_KINDS = ("pipeline-state", "render-all")
WORKERS = 2

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        ("ecosystem.build_s", "s", "lower"),
        ("ecosystem.build_rss_mib", "MiB", "lower"),
        ("ecosystem.campaigns", "count", "lower"),
        ("ecosystem.placements", "count", "lower"),
        ("feeds.collect_s", "s", "lower"),
    ]
    + [(f"feeds.collect_s.{feed}", "s", "lower") for feed in FEEDS]
    + [
        ("feeds.records", "count", "lower"),
        ("parallel.fork_s", "s", "lower"),
    ]
    + [(f"parallel.tasks.worker{n}", "count", "higher")
       for n in range(WORKERS)]
    + [
        ("parallel.imbalance", "ratio", "lower"),
        ("analysis.comparison_s", "s", "lower"),
        ("analysis.crawl_s", "s", "lower"),
        ("analysis.union_first_seen_s", "s", "lower"),
        ("oracles.crawl_calls", "count", "lower"),
        ("oracles.in_zone_calls", "count", "lower"),
        ("oracles.message_volume_calls", "count", "lower"),
    ]
    + [(f"render.{a}_s", "s", "lower") for a in ARTIFACTS]
    + [
        ("pipeline.run_s", "s", "lower"),
        ("pipeline.render_all_s", "s", "lower"),
    ]
    + [(f"cache.store_s.{k}", "s", "lower") for k in CACHE_KINDS]
    + [(f"cache.load_s.{k}", "s", "lower") for k in CACHE_KINDS]
    + [(f"cache.bytes.{k}", "B", "lower") for k in CACHE_KINDS]
    + [
        ("cache.hits", "count", "higher"),
        ("cache.misses", "count", "lower"),
        ("stream.engine_build_s", "s", "lower"),
        ("stream.advance_s", "s", "lower"),
        ("stream.snapshot_s", "s", "lower"),
        ("stream.records_replayed", "count", "lower"),
        ("stream.rewinds", "count", "lower"),
    ]
    + [(f"serve.handle_ms.{e}", "ms", "lower") for e in ENDPOINTS]
    + [
        ("serve.transport_ms", "ms", "lower"),
        ("serve.hit_ratio", "ratio", "higher"),
        ("serve.lock_wait_ms", "ms", "lower"),
        ("unattributed_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


@dataclasses.dataclass
class Events:
    """Everything the traced processes of one session wrote."""

    calls: Dict[str, float]  # seam -> seconds
    counts: Dict[str, float]
    maxima: Dict[str, float]
    #: (seam, start, end, pid, thread, detail) of every outermost call
    intervals: List[Tuple[str, float, float, int, int, Any]]
    #: pids of the traced CLI / daemon processes, in start order
    mains: List[int]
    #: (start of the flushing call or None, seam -> [calls, seconds])
    flushes: List[Tuple[Optional[float], Dict[str, List[float]]]]


def read_events(path: str) -> Events:
    calls: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    intervals = []
    mains = []
    flushes = []
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        lines = []
    for line in lines:
        record = json.loads(line)
        if record.get("main"):
            mains.append(record["pid"])
            continue
        for seam, (_, seconds) in record["agg"].items():
            calls[seam] = calls.get(seam, 0.0) + seconds
        flushes.append(
            (record["iv"][1] if "iv" in record else None, record["agg"])
        )
        for name, value in record["cnt"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in record["max"].items():
            maxima[name] = max(maxima.get(name, value), value)
        if "iv" in record:
            seam, start, end, thread, detail = record["iv"]
            intervals.append(
                (seam, start, end, record["pid"], thread, detail)
            )
    return Events(calls, counts, maxima, intervals, mains, flushes)


def endpoint_of(path: str) -> Optional[str]:
    for label, prefix in ENDPOINTS.items():
        if path == prefix or path.startswith(prefix + "?"):
            return label
    return None


def worker_load(events: Events) -> Tuple[List[int], List[float]]:
    """Task counts and busy seconds of each pool worker (pids that are
    not a traced main process), in pid order."""
    tasks: Dict[int, int] = {}
    busy: Dict[int, float] = {}
    for _, start, end, pid, _, _ in events.intervals:
        if pid in events.mains:
            continue
        tasks[pid] = tasks.get(pid, 0) + 1
        busy[pid] = busy.get(pid, 0.0) + (end - start)
    pids = sorted(tasks)
    return [tasks[p] for p in pids], [busy[p] for p in pids]


#: Time metrics -> the seams whose seconds they sum.
SEAM_SECONDS: Dict[str, Tuple[str, ...]] = {
    "ecosystem.build_s": ("ecosystem.build",),
    "feeds.collect_s": ("feeds.collect",),
    **{f"feeds.collect_s.{f}": (f"feeds.collect:{f}",) for f in FEEDS},
    "parallel.fork_s": ("parallel.fork",),
    "analysis.comparison_s": ("analysis.comparison",),
    "analysis.crawl_s": ("analysis.crawl",),
    "analysis.union_first_seen_s": ("analysis.union_first_seen",),
    **{f"render.{a}_s": (f"render.{a}",) for a in ARTIFACTS},
    "pipeline.run_s": ("pipeline.run",),
    "pipeline.render_all_s": ("pipeline.render_all",),
    **{f"cache.store_s.{k}": (f"cache.store:{k}",) for k in CACHE_KINDS},
    **{f"cache.load_s.{k}": (f"cache.load:{k}",) for k in CACHE_KINDS},
    "stream.engine_build_s": ("stream.engine_build",),
    "stream.advance_s": ("stream.advance",),
    "stream.snapshot_s": ("stream.snapshot", "stream.render"),
}
#: Metrics that are counts (or sums) the wrappers record by name.
COUNTED = (
    "ecosystem.build_rss_mib", "ecosystem.campaigns", "ecosystem.placements",
    "feeds.records", "oracles.crawl_calls", "oracles.in_zone_calls",
    "oracles.message_volume_calls", "cache.hits", "cache.misses",
    "stream.records_replayed",
)


def layer_metrics(
    events: Events,
    op_windows: Sequence[Tuple[float, float]],
    op_pid: Optional[int],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Fold one traced session into every per-layer metric.

    Times are summed over every traced process, so work a pool repeats
    in each worker counts once per worker.  *op_windows* are the timed
    operations (a CLI run from exec to exit, or a request from send to
    answer); ``unattributed_s`` is the time inside them not covered by
    an outermost layer call of *op_pid*.  *extra* carries what only the
    workload knows (serve and load-generator metrics, overhead).
    """
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, seams in SEAM_SECONDS.items():
        values[name] = sum(events.calls.get(seam, 0.0) for seam in seams)
    for name in COUNTED:
        values[name] = events.counts.get(name, 0)
    for kind in CACHE_KINDS:
        values[f"cache.bytes.{kind}"] = events.maxima.get(
            f"cache.bytes.{kind}", 0
        )
    tasks, busy = worker_load(events)
    for n, count in enumerate(tasks[:WORKERS]):
        values[f"parallel.tasks.worker{n}"] = count
    if busy and statistics.fmean(busy) > 0:
        values["parallel.imbalance"] = max(busy) / statistics.fmean(busy)
    own = [
        (start, end)
        for _, start, end, pid, _, _ in events.intervals
        if pid == op_pid
    ]
    values["unattributed_s"] = stats.unattributed(op_windows, own)
    values.update(extra)
    return values


def cache_reads(events: Events) -> Dict[str, float]:
    """The cache-read metrics of a traced warm run."""
    reads: Dict[str, float] = {
        f"cache.load_s.{kind}": events.calls.get(f"cache.load:{kind}", 0.0)
        for kind in CACHE_KINDS
    }
    reads["cache.hits"] = events.counts.get("cache.hits", 0)
    return reads


def handle_times(
    events: Events, window: Tuple[float, float]
) -> Dict[str, List[float]]:
    """ServeApp.handle durations (s) per endpoint, for calls that
    started inside *window*."""
    per: Dict[str, List[float]] = {}
    for seam, start, end, _, _, detail in events.intervals:
        if seam != "serve.handle" or not window[0] <= start <= window[1]:
            continue
        label = endpoint_of(detail or "")
        if label is not None:
            per.setdefault(label, []).append(end - start)
    return per


def window_totals(
    events: Events, window: Tuple[float, float]
) -> Dict[str, Tuple[float, float]]:
    """``seam -> (calls, seconds)`` flushed by outermost calls that
    started inside *window*: the work nested under the requests sent
    then, whose totals are flushed when each request's handle ends."""
    totals: Dict[str, Tuple[float, float]] = {}
    for start, by_seam in events.flushes:
        if start is None or not window[0] <= start <= window[1]:
            continue
        for seam, (calls, seconds) in by_seam.items():
            old = totals.get(seam, (0, 0.0))
            totals[seam] = (old[0] + calls, old[1] + seconds)
    return totals
