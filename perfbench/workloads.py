"""The two workloads: set-up, timed operations, output checks, traces.

Every workload runs the paper's own world: paper scale, world seed
2012.  The workload seed drives every request schedule.  It does not
pick the world, because worlds of other seeds differ in size (peak RSS
moved 8-10% across seeds 1-5) by more than the bounds are meant to
catch.  Load comes from this one process, with no more pool workers or
connections than there are CPUs (at most two).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import layers
import loadgen
import program
import stats

WORLD_SEED = 2012

#: Pool workers per run and connections per serve workload.
WIDTH = max(1, min(2, program.available_cpus()))

#: serve-asof asks for every day 1..ASOF_DAYS once per pass, each pass
#: on a fresh daemon (a daemon keeps every snapshot it answered), and
#: makes passes until the run's seconds are spent.  Later days cost
#: more, so the days stay in the first three weeks, where a pass takes
#: about 8 s at the seed commit.  The engine lock makes the two
#: clients' requests alternate, so with client 0 first (ASOF_STAGGER_S)
#: the order the engine sees is fixed by the schedule; each run checks
#: it.  That order repeats blocks of (late, early, early, late) days:
#: the late days (the second half) ascend, and the seed deals the early
#: days out in pairs, higher first, so both early requests of a block
#: rewind the engine and each client gets late and early days alike.
#: Every pass thus answers the same days, rewinds to every early day
#: once and to no late day, and the seed varies only which early days
#: share a block.  Earlier schedules varied more: a fully random order
#: varied the rewind count; a time-cut schedule the days answered; one
#: client per half split the latencies into two clusters with the
#: median between them; and shuffled late days changed which of the
#: costly late days were replayed.
ASOF_DAYS = 20
#: Passes per run, at least; the median set-up is over them.
ASOF_MIN_PASSES = 2
#: A pass that runs this long stops sending.
ASOF_PASS_DEADLINE_S = 90.0
#: Client N starts N x this many seconds after client 0, so client 0's
#: first request holds the engine lock before any other arrives (it
#: advances the engine to a late day, which takes far longer).  Started
#: together, either client could take the lock first, and the engine
#: would see every pair swapped and a different number of rewinds.
ASOF_STAGGER_S = 0.2
#: Reference outputs kept across runs (see _kept).
REFERENCES = os.path.join(program.ROOT, ".perfbench", "reference")

T = TypeVar("T")


@dataclasses.dataclass
class Context:
    seed: int
    seconds: float
    scratch: str

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")


@dataclasses.dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    details: Dict[str, Any]


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _latency_summary(latencies_ms: Sequence[float]) -> Dict[str, Any]:
    found = stats.tail(latencies_ms)
    return {
        "samples": len(latencies_ms),
        "latency_p50_ms": stats.median(latencies_ms),
        "latency_tail_ms": found[1] if found else None,
        "latency_tail_pct": found[0] if found else None,
        "latency_tail_beyond": found[2] if found else None,
    }


def _repeat(ctx: Context, op: Callable[[], T], minimum: int) -> List[T]:
    """Run *op* back to back until the run's seconds are spent, and at
    least *minimum* times."""
    results: List[T] = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < ctx.seconds:
        results.append(op())
    return results


# -- batch ---------------------------------------------------------------


def _run_args(*extra: str) -> List[str]:
    return ["-q", "--seed", str(WORLD_SEED), "run", *extra]


def _cold_args(cache_dir: str) -> List[str]:
    return _run_args("--jobs", str(WIDTH), "--cache-dir", cache_dir)


def _kept(name: str, compute: Callable[[], bytes]) -> bytes:
    """A reference output, computed once per source tree and kept.

    References come from another mode of the same program on the same
    world, so every run of one source tree shares them; keeping them
    spares each run a paper-scale recomputation after its timed part.
    """
    digest = program.source_digest().split(":")[-1]
    path = os.path.join(REFERENCES, f"{digest}.{name}")
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        pass
    data = compute()
    os.makedirs(REFERENCES, exist_ok=True)
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "wb") as handle:
        handle.write(data)
    os.replace(partial, path)
    return data


def _reference(ctx: Context) -> bytes:
    """Batch output from another mode: serial, with no cache at all."""

    def compute() -> bytes:
        run = program.run_cli(
            _run_args("--jobs", "1", "--no-cache"), ctx.scratch
        )
        if run.returncode != 0:
            raise program.ProgramError(
                f"reference run exited {run.returncode}"
            )
        return run.stdout

    return _kept("run-serial", compute)


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


#: batch-cold's set-up is this many start-ups of ``repro --help``
#: (about 0.3 s each); their median is its ``setup_s``, so that one
#: start-up slowed by the host does not set it.
PROBES = 9


def batch_cold(ctx: Context) -> Outcome:
    setup_s = stats.median(
        [program.probe(ctx.scratch) for _ in range(PROBES)]
    )

    def op() -> program.CliRun:
        cache = _fresh(ctx.path("cold-cache"))
        return program.run_cli(_cold_args(cache), ctx.scratch)

    runs = _repeat(ctx, op, minimum=2)
    reference = _reference(ctx)
    walls = [r.wall_s for r in runs]
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "latency_p50_ms": _ms(stats.median(walls)),
            "peak_rss_mib": stats.median([r.peak_rss_mib for r in runs]),
        },
        attempted=len(runs),
        failed=sum(
            1 for r in runs if r.returncode != 0 or r.stdout != reference
        ),
        details={"run_s": walls, "runs": len(runs)},
    )


# -- serve ---------------------------------------------------------------


def _serve_args() -> List[str]:
    return ["-q", "--seed", str(WORLD_SEED), "serve", "--jobs", str(WIDTH),
            "--no-cache"]


def _get(port: int, paths: Sequence[str]) -> Dict[str, bytes]:
    conn = loadgen.Connection(port)
    try:
        bodies = {}
        for path in paths:
            status, body = conn.send(path)
            if status != 200:
                raise program.ProgramError(f"{path} answered {status}")
            bodies[path] = body
        return bodies
    finally:
        conn.close()


def _serve_stats(port: int) -> Dict[str, float]:
    body = _get(port, ["/v1/stats"])["/v1/stats"]
    return json.loads(body)["metrics"]["counters"]


def _asof_order(ctx: Context) -> List[int]:
    """The days in the order the engine should see them (see above)."""
    half = ASOF_DAYS // 2
    early = list(range(1, half + 1))
    ctx.rng("serve-asof").shuffle(early)
    late = iter(range(half + 1, 2 * half + 1))
    order = []
    for block in range(half // 2):
        high, low = sorted(early[2 * block:2 * block + 2], reverse=True)
        order += [next(late), high, low, next(late)]
    return order


def _asof_schedule(ctx: Context) -> List[List[str]]:
    """Per-client request paths, dealt so the lock's alternation
    replays _asof_order."""
    paths = [f"/v1/snapshot?day={d}" for d in _asof_order(ctx)]
    return [paths[client::WIDTH] for client in range(WIDTH)]


def _start_asof(
    ctx: Context, events: Optional[str] = None
) -> Tuple[program.Daemon, float]:
    start = time.perf_counter()
    daemon = program.Daemon(_serve_args(), ctx.scratch, events)
    try:
        # Table 1 builds the world and collects the feeds; day 0 builds
        # the stream engine.  Nothing the timed part asks for is warm.
        _get(daemon.port, ["/v1/table/1", "/v1/snapshot?day=0"])
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


def _closed_loop(port: int, schedule: List[List[str]]) -> List[loadgen.Sample]:
    deadline = time.perf_counter() + ASOF_PASS_DEADLINE_S
    conns = [loadgen.Connection(port) for _ in schedule]
    try:
        per_client = loadgen.run_threads([
            (lambda c=conn, p=paths, i=index: loadgen.closed_loop_client(
                p, c.send, deadline, delay=i * ASOF_STAGGER_S))
            for index, (conn, paths) in enumerate(zip(conns, schedule))
        ])
    finally:
        for conn in conns:
            conn.close()
    return sorted(
        (s for samples in per_client for s in samples), key=lambda s: s.sent
    )


def _day_of(path: str) -> int:
    return int(path.rsplit("=", 1)[1])


def _engine_order(samples: Sequence[loadgen.Sample]) -> List[int]:
    """The days in the order the engine answered them: the engine lock
    serialises the snapshots, so answers complete in that order."""
    return [_day_of(s.path) for s in sorted(samples, key=lambda s: s.done)]


def _rewinds(days: Sequence[int]) -> int:
    """Requests for an earlier day than the engine's (it starts at 0)."""
    return sum(1 for before, day in zip([0, *days], days) if day < before)


def _replayed_snapshots(last: int) -> Dict[int, bytes]:
    """Snapshot bodies for days 1..*last* from an in-process stream
    engine replay (another mode than the daemon's), kept per tree."""

    def compute() -> bytes:
        if program.SRC not in sys.path:
            sys.path.insert(0, program.SRC)
        from repro.pipeline import PaperPipeline

        pipeline = PaperPipeline(seed=WORLD_SEED, jobs=WIDTH)
        try:
            engine = pipeline.stream_engine()
            bodies = {}
            for day in range(1, last + 1):
                engine.advance_to_day(day)
                snapshot = engine.snapshot()
                bodies[day] = (
                    f"{snapshot.header()}\n\n{snapshot.render_tables()}\n"
                )
            return json.dumps(bodies).encode()
        finally:
            pipeline.close()

    kept = json.loads(_kept(f"snapshots-1-{last}", compute))
    return {int(day): text.encode() for day, text in kept.items()}


def _asof_mismatches(
    samples: Sequence[loadgen.Sample], last: int
) -> int:
    """Every snapshot must equal the in-process replay of its day."""
    replay = _replayed_snapshots(last)
    return sum(
        1 for s in samples
        if s.status != 200 or s.body != replay[_day_of(s.path)]
    )


@dataclasses.dataclass
class Pass:
    """One serve-asof pass: a fresh daemon answering the schedule."""

    setup_s: float
    samples: List[loadgen.Sample]
    peak_rss_mib: float


def serve_asof(ctx: Context) -> Outcome:
    schedule = _asof_schedule(ctx)
    planned = _asof_order(ctx)

    def one_pass() -> Pass:
        daemon, setup_s = _start_asof(ctx)
        with daemon:
            answered = _closed_loop(daemon.port, schedule)
        return Pass(setup_s, answered, daemon.peak_rss_mib)

    passes = _repeat(ctx, one_pass, minimum=ASOF_MIN_PASSES)
    samples = [s for p in passes for s in p.samples]
    orders = [_engine_order(p.samples) for p in passes]
    latencies = [_ms(s.latency) for s in samples]
    return Outcome(
        metrics={
            "setup_s": stats.median([p.setup_s for p in passes]),
            "latency_p50_ms": stats.median(latencies),
            "peak_rss_mib": max(p.peak_rss_mib for p in passes),
        },
        attempted=len(samples),
        failed=_asof_mismatches(samples, max(planned)),
        details={
            **_latency_summary(latencies),
            "passes": len(passes),
            "setups_s": [p.setup_s for p in passes],
            "rewinds": [_rewinds(order) for order in orders],
            "planned_rewinds": _rewinds(planned),
            "engine_order_as_planned": all(
                order == planned[:len(order)] for order in orders
            ),
        },
    )


# -- traced runs ---------------------------------------------------------


def _overhead_pct(traced: float, plain: float) -> float:
    return (traced - plain) / plain * 100.0


def batch_cold_trace(ctx: Context, events: str) -> Outcome:
    """An untraced and a traced cold run, then a traced warm run on the
    cache the traced one filled, which gives the cache reads."""
    cache = ctx.path("cold-cache")
    plain = program.run_cli(_cold_args(_fresh(cache)), ctx.scratch)
    traced = program.run_cli(_cold_args(_fresh(cache)), ctx.scratch, events)
    warm_events = events + ".warm"
    warm = program.run_cli(_cold_args(cache), ctx.scratch, warm_events)
    runs = (plain, traced, warm)
    if any(r.returncode for r in runs):
        raise program.ProgramError("a batch run failed under tracing")
    reference = _reference(ctx)
    recorded = layers.read_events(events)
    extra = layers.cache_reads(layers.read_events(warm_events))
    extra["trace.overhead_pct"] = _overhead_pct(traced.wall_s, plain.wall_s)
    return Outcome(
        metrics=layers.layer_metrics(
            recorded,
            [(traced.start, traced.end)],
            recorded.mains[-1] if recorded.mains else None,
            extra,
        ),
        attempted=len(runs),
        failed=sum(1 for r in runs if r.stdout != reference),
        details={
            "plain_s": plain.wall_s,
            "traced_s": traced.wall_s,
            "traced_warm_s": warm.wall_s,
        },
    )


#: Snapshot requests per client in a traced serve-asof session.
ASOF_TRACED_PER_CLIENT = 4


def _serve_extra(
    recorded: layers.Events,
    samples: Sequence[loadgen.Sample],
    before: Dict[str, float],
    after: Dict[str, float],
) -> Dict[str, float]:
    """Serve metrics of a traced window: in-process handle time, what
    transport adds to it, the lock wait inside it, and the memo hit
    ratio from the daemon's own counters."""
    window = (min(s.sent for s in samples), max(s.done for s in samples))
    handles = layers.handle_times(recorded, window)["snapshot"]
    totals = layers.window_totals(recorded, window)
    stream_s = sum(
        totals.get(seam, (0, 0.0))[1]
        for seam in ("stream.engine_build", "stream.advance",
                     "stream.snapshot", "stream.render")
    )
    memos = ("render", "payload", "snapshot")

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    hits = sum(delta(f"serve.{m}_hits") for m in memos)
    misses = sum(
        delta(f"serve.{m}s_built") + delta(f"serve.coalesced_{m}s")
        for m in memos
    )
    return {
        "serve.handle_ms.snapshot": _ms(statistics.fmean(handles)),
        "serve.transport_ms": _ms(
            statistics.fmean(s.latency for s in samples)
            - statistics.fmean(handles)
        ),
        "serve.lock_wait_ms": _ms((sum(handles) - stream_s) / len(handles)),
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0,
        "stream.rewinds": totals.get("stream.engine_build", (0, 0.0))[0],
    }


def serve_asof_trace(ctx: Context, events: str) -> Outcome:
    """The same snapshot requests against an untraced and then a
    traced daemon."""
    schedule = [
        paths[:ASOF_TRACED_PER_CLIENT] for paths in _asof_schedule(ctx)
    ]

    def session(traced: bool):
        daemon, _ = _start_asof(ctx, events if traced else None)
        with daemon:
            before = _serve_stats(daemon.port)
            samples = _closed_loop(daemon.port, schedule)
            after = _serve_stats(daemon.port)
        return samples, before, after

    plain, _, _ = session(False)
    samples, before, after = session(True)
    recorded = layers.read_events(events)
    extra = _serve_extra(recorded, samples, before, after)
    extra["trace.overhead_pct"] = _overhead_pct(
        stats.median([s.latency for s in samples]),
        stats.median([s.latency for s in plain]),
    )
    return Outcome(
        metrics=layers.layer_metrics(
            recorded,
            [(s.sent, s.done) for s in samples],
            recorded.mains[-1] if recorded.mains else None,
            extra,
        ),
        attempted=len(samples) + len(plain),
        failed=_asof_mismatches(plain + samples, max(_asof_order(ctx))),
        details={},
    )


#: name -> (timed run, traced run)
WORKLOADS: Dict[str, Tuple[Callable[..., Outcome], Callable[..., Outcome]]] = {
    "batch-cold": (batch_cold, batch_cold_trace),
    "serve-asof": (serve_asof, serve_asof_trace),
}
