"""Command-line interface: ``python -m repro``.

Subcommands:

* ``run``       -- build the world, collect the feeds, print/write every
                   table and figure.
* ``stream``    -- consume the feeds incrementally in simulation-time
                   order, with windowed snapshots and checkpoint/resume.
* ``query``     -- answer cross-run questions (first-seen, feed stats,
                   sighting listings) from a persisted sighting store.
* ``serve``     -- long-lived query daemon over a local HTTP socket:
                   worlds build once (coalesced) and answer many.
* ``recommend`` -- rank feeds for a research question (Section 5).
* ``filter``    -- evaluate feeds as blocking oracles.
* ``lint``      -- run the reprolint determinism analyzer (REP001..008)
                   over the source tree.
* ``manifest``  -- validate a ``--trace`` run manifest and summarize it.

All progress chatter goes to stderr through one ``--quiet``-aware
helper; stdout carries only the analysis artifacts.  Observability
(``--trace``/``--metrics``) is a side channel: the manifest goes to
its own file and the summary tables to stderr, so a traced run's
stdout is byte-identical to an untraced one.

Interrupts are part of the CLI contract: SIGINT exits 130 and SIGTERM
exits 143, both after ``finally`` blocks have reaped worker pools and
closed stores -- an interrupted run never leaves orphan processes or a
half-landed store visible.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Optional, Sequence

from repro import obs
from repro.analysis.filtering import evaluate_all_filters
from repro.analysis.recommend import Question, rank_feeds
from repro.ecosystem import (
    EcosystemConfig,
    paper_config,
    scaled_config,
    small_config,
)
from repro.io.artifacts import ArtifactCache, default_cache_dir, fingerprint
from repro.io.checkpoint import CheckpointError, read_checkpoint
from repro.obs.hosttime import Stopwatch
from repro.obs.manifest import (
    ManifestError,
    build_manifest,
    manifest_stage_names,
    read_manifest,
    write_manifest,
)
from repro.pipeline import PaperPipeline
from repro.reporting.report import write_report
from repro.reporting.run_summary import render_run_summary
from repro.reporting.tables import Table, format_percent
from repro.store import SightingStore, StoreError
from repro.store.query import (
    open_store_file,
    render_feed_stats,
    render_first_seen,
    render_runs,
    render_sightings,
)
from repro.stream import CHECKPOINT_KIND, build_stream_engine


def _progress(args, message: str) -> None:
    """Print one progress line to stderr unless ``--quiet`` was given."""
    if not args.quiet:
        print(message, file=sys.stderr)


def _artifact_cache(args) -> Optional[ArtifactCache]:
    """The artifact cache the flags ask for (None with ``--no-cache``)."""
    if getattr(args, "no_cache", True):
        return None
    root = getattr(args, "cache_dir", None) or default_cache_dir()
    return ArtifactCache(root)


def _sighting_store(args) -> Optional[SightingStore]:
    """The durable sighting store ``--store`` asks for, if any."""
    path = getattr(args, "store", None)
    if not path:
        return None
    return SightingStore.open(path)


def _observability_tracer(args) -> Optional[obs.Tracer]:
    """A tracer when ``--trace`` or ``--metrics`` asks for one."""
    if getattr(args, "trace", None) or getattr(args, "metrics", False):
        return obs.Tracer()
    return None


def _finish_observability(
    args,
    tracer: Optional[obs.Tracer],
    command: str,
    config: EcosystemConfig,
) -> None:
    """Write the manifest and/or print the run summary, as requested.

    Both outputs are side channels: the manifest goes to the ``--trace``
    path and the summary to stderr, never into the analysis artifacts
    on stdout.
    """
    if tracer is None:
        return
    trace_path = getattr(args, "trace", None)
    if trace_path:
        manifest = build_manifest(
            tracer,
            command=command,
            seed=args.seed,
            config_fingerprint=fingerprint(config),
            jobs=getattr(args, "jobs", None),
            scale=getattr(args, "scale", None),
            shards=getattr(args, "shards", None),
        )
        write_manifest(trace_path, manifest)
        _progress(args, f"Run manifest written to {trace_path}")
    truncated = tracer.metrics.counter("feeds.truncated_records")
    if truncated:
        placements = tracer.metrics.counter("feeds.truncated_placements")
        print(
            f"warning: {truncated:,} captured records dropped by the "
            f"per-placement safety cap across {placements:,} "
            "placement(s); volume analyses undercount those placements",
            file=sys.stderr,
        )
    if getattr(args, "metrics", False):
        print(
            render_run_summary(
                tracer.span_payloads(), tracer.metrics.snapshot()
            ),
            file=sys.stderr,
        )


def _resolved_config(args) -> EcosystemConfig:
    """The ecosystem config the flags describe.

    ``--scale`` multiplies the spam-side population (campaign-class
    counts, DGA pool, webspam/junk pools).  The scaled config has its
    own fingerprint, so cached artifacts and sighting-store runs never
    cross scales.
    """
    config = small_config() if args.small else paper_config()
    scale = getattr(args, "scale", None)
    if scale is not None and scale != 1.0:
        config = scaled_config(config, scale)
    return config


def _build_pipeline(
    args, store: Optional[SightingStore] = None
) -> PaperPipeline:
    config = _resolved_config(args)
    pipeline = PaperPipeline(
        config,
        seed=args.seed,
        jobs=getattr(args, "jobs", None),
        cache=_artifact_cache(args),
        store=store,
        shards=getattr(args, "shards", None),
    )
    _progress(args, "Building world and collecting feeds...")
    pipeline.run()
    return pipeline


def _cmd_run(args) -> int:
    tracer = _observability_tracer(args)
    store = _sighting_store(args)
    pipeline = None
    try:
        with obs.activate(tracer):
            pipeline = _build_pipeline(args, store=store)
            if args.output:
                files = write_report(pipeline, args.output)
                print(f"Wrote {len(files)} artifacts to {args.output}:")
                for name in files:
                    print(f"  {name}")
            else:
                print(pipeline.render_all())
        if store is not None:
            _progress(args, f"Sightings landed in {args.store}")
    finally:
        if pipeline is not None:
            pipeline.close()
        if store is not None:
            store.close()
    _finish_observability(args, tracer, "run", pipeline.config)
    return 0


def _cmd_stream(args) -> int:
    tracer = _observability_tracer(args)
    store = _sighting_store(args)
    try:
        with obs.activate(tracer):
            status = _stream_body(args, store)
    finally:
        if store is not None:
            store.close()
    if status == 0:
        _finish_observability(args, tracer, "stream", _resolved_config(args))
    return status


def _stream_body(args, store: Optional[SightingStore] = None) -> int:
    config = _resolved_config(args)
    _progress(args, "Building world and collecting feed sources...")
    engine = build_stream_engine(
        config,
        seed=args.seed,
        jobs=args.jobs,
        cache=_artifact_cache(args),
        shards=getattr(args, "shards", None),
    )

    def save_checkpoint() -> bool:
        try:
            engine.save_checkpoint(args.checkpoint)
        except OSError as exc:
            print(
                f"error: cannot write checkpoint {args.checkpoint}: {exc}",
                file=sys.stderr,
            )
            return False
        return True

    if args.resume:
        try:
            engine.restore(read_checkpoint(args.resume, CHECKPOINT_KIND))
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _progress(
            args,
            f"Resumed from {args.resume}: "
            f"{engine.records_processed:,} records already processed",
        )

    if store is not None:
        # Attach after any resume so the replayed prefix lands first.
        engine.attach_store(store, fingerprint(config))

    timeline = engine.world.timeline
    total_days = int(timeline.duration_days)
    stop_day = total_days if args.until_day is None else min(
        args.until_day, total_days
    )

    watch = Stopwatch()
    resumed_records = engine.records_processed

    def throughput() -> float:
        elapsed = watch.elapsed()
        done = engine.records_processed - resumed_records
        return done / elapsed if elapsed > 0 else 0.0

    clock = engine.state.clock
    current_day = -1 if clock is None else timeline.day_of(clock)
    if args.snapshot_every:
        day = args.snapshot_every
        while day <= current_day:
            day += args.snapshot_every
        while day < stop_day:
            engine.advance_to_day(day)
            union = engine.state.union_size
            exclusive = sum(
                row.exclusive for row in engine.online_coverage()
            )
            _progress(
                args,
                f"[stream] day {day}/{total_days}: "
                f"{engine.records_processed:,} records, "
                f"{union:,} distinct domains "
                f"({exclusive:,} single-feed), "
                f"{throughput():,.0f} records/s",
            )
            if args.tables:
                snapshot = engine.snapshot()
                print(snapshot.header())
                print(snapshot.render_tables())
                print()
            if args.checkpoint and not save_checkpoint():
                return 2
            day += args.snapshot_every

    if stop_day >= total_days:
        engine.run()
    else:
        engine.advance_to_day(stop_day)

    _progress(
        args,
        f"[stream] done: {engine.records_processed:,} records at "
        f"{throughput():,.0f} records/s",
    )
    if args.checkpoint:
        if not save_checkpoint():
            return 2
        _progress(args, f"Checkpoint written to {args.checkpoint}")

    if store is not None:
        engine.finish_store()
        _progress(args, f"Sightings landed in {args.store}")

    snapshot = engine.snapshot()
    if not engine.exhausted:
        _progress(args, snapshot.header())
    print(snapshot.render_tables())
    return 0


def _cmd_query(args) -> int:
    try:
        store = open_store_file(args.store)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.query_command == "first-seen":
            print(render_first_seen(store, args.domain))
        elif args.query_command == "feed-stats":
            print(render_feed_stats(store))
        elif args.query_command == "sightings":
            limit = None if args.limit == 0 else args.limit
            print(
                render_sightings(
                    store, feed=args.feed, since_day=args.since, limit=limit
                )
            )
        else:  # runs
            print(render_runs(store))
    except StoreError as exc:
        # Belt and braces behind open-time validation: a store that
        # turns malformed mid-query still reports cleanly instead of
        # dumping a traceback.
        print(f"error: {args.store}: {exc}", file=sys.stderr)
        return 2
    finally:
        store.close()
    return 0


def _cmd_lint(args) -> int:
    """Exit codes are a documented contract: 0 = clean, 1 = findings
    (errors always; warnings too under --strict), 2 = usage or I/O
    problems (unknown rule, unreadable/unparsable input, bad --sarif
    path)."""
    import repro
    from repro.devtools import (
        LintConfig,
        lint_paths,
        render_json,
        render_text,
        write_sarif,
    )
    from repro.devtools.lint import LintError, has_errors
    from repro.io.artifacts import ArtifactCache, default_cache_dir

    if args.schema_pin:
        from repro.devtools.rules import compute_schema_pin
        from repro.io import checkpoint

        print(
            compute_schema_pin(
                checkpoint.CHECKPOINT_VERSION, checkpoint.CHECKPOINT_SCHEMAS
            )
        )
        return 0
    if args.store_schema_pin:
        from repro.devtools.rules import compute_schema_pin
        from repro.store import backend

        print(
            compute_schema_pin(
                backend.STORE_VERSION, backend.STORE_SCHEMA_COLUMNS
            )
        )
        return 0

    paths = args.paths or [os.path.dirname(os.path.abspath(repro.__file__))]
    try:
        config = LintConfig.with_disabled(tuple(args.disable))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache = ArtifactCache(args.cache_dir or default_cache_dir())
    try:
        findings = lint_paths(paths, config, jobs=args.jobs, cache=cache)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.sarif is not None:
        try:
            write_sarif(args.sarif, findings, base_dir=os.getcwd())
        except OSError as exc:
            print(
                f"error: cannot write {args.sarif}: {exc}", file=sys.stderr
            )
            return 2
    print(render_json(findings) if args.json else render_text(findings))
    if findings and (args.strict or has_errors(findings)):
        return 1
    return 0


def _cmd_manifest(args) -> int:
    try:
        manifest = read_manifest(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except ManifestError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2
    stages = manifest_stage_names(manifest)
    print(
        f"{args.path}: valid {manifest['format']} v{manifest['version']} "
        f"(command={manifest['command']}, seed={manifest['seed']}, "
        f"{len(stages)} stages)"
    )
    if args.min_stages is not None and len(stages) < args.min_stages:
        print(
            f"error: {len(stages)} distinct stages "
            f"({', '.join(stages)}), need at least {args.min_stages}",
            file=sys.stderr,
        )
        return 1
    if args.summary:
        print(render_run_summary(manifest["spans"], manifest["metrics"]))
    return 0


def _cmd_recommend(args) -> int:
    with _build_pipeline(args) as pipeline:
        question = Question(args.question)
        ranking = rank_feeds(pipeline.comparison, question)
        print(f"Feed ranking for question: {question.value}")
        for rank, score in enumerate(ranking, start=1):
            print(f"  {rank:2}. {score}")
    return 0


def _cmd_filter(args) -> int:
    with _build_pipeline(args) as pipeline:
        return _filter_body(pipeline)


def _filter_body(pipeline: PaperPipeline) -> int:
    reports = evaluate_all_filters(pipeline.comparison)
    table = Table(
        ["Feed", "Listed", "Precision", "Vol. recall", "Timely recall",
         "Collateral"],
        title="Feeds as blocking oracles",
    )
    for name in pipeline.feed_order:
        if name not in reports:
            continue
        report = reports[name]
        table.add_row(
            name,
            f"{report.listed:,}",
            format_percent(report.precision),
            format_percent(report.volume_recall),
            format_percent(report.timely_volume_recall),
            format_percent(report.collateral_fraction),
        )
    print(table.render())
    return 0


def _cmd_serve(args) -> int:
    # Imported here so batch subcommands never pay for the HTTP stack.
    from repro.serve import ServeApp, ServeDaemon, ServeStats, WorldCache

    store = None
    if args.store:
        # The daemon answers /v1/first-seen from request threads but
        # opens the store on the main thread: cross-thread connection,
        # serialized by the app's store lock.
        store = SightingStore.open(args.store, cross_thread=True)
    stats = ServeStats()
    worlds = WorldCache(
        stats,
        jobs=args.jobs,
        shards=args.shards,
        cache=_artifact_cache(args),
        store_path=args.store or None,
        max_worlds=args.max_worlds,
    )
    app = ServeApp(
        worlds,
        stats,
        default_seed=args.seed,
        default_small=args.small,
        store=store,
    )
    try:
        daemon = ServeDaemon(
            app,
            host=args.host,
            port=args.port,
            manifest_dir=args.manifest_dir,
            verbose=not args.quiet,
        )
    except OSError as exc:
        print(
            f"error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        worlds.close()
        app.close()
        return 2
    daemon.start()
    # Drain handlers must be live before readiness is announced: a
    # supervisor may signal the instant it reads the line, and that
    # signal must mean "drain and exit 0", never the batch CLI's
    # exit-with-status handlers.
    daemon.install_signal_handlers()
    # The readiness line is a contract: tests and the load harness
    # parse the port out of it, so it is printed (and flushed) even
    # under --quiet.
    print(
        f"[serve] listening on {daemon.address} (pid {os.getpid()})",
        file=sys.stderr,
        flush=True,
    )
    _progress(
        args,
        "[serve] Ctrl-C or SIGTERM drains in-flight requests and exits",
    )
    try:
        return daemon.wait_for_signal()
    except BaseException:
        daemon.drain()
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Taster's Choice spam-feed comparison reproduction",
    )
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument(
        "--small", action="store_true", help="use the miniature world"
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress progress output on stderr",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Performance flags shared by the expensive subcommands.  Neither
    # worker count nor caching changes a byte of any artifact.
    perf_parser = argparse.ArgumentParser(add_help=False)
    perf_parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for collection/rendering "
             "(default 1 = serial, 0 = all cores); output is identical "
             "at any value",
    )
    perf_parser.add_argument(
        "--scale", type=float, default=None, metavar="X",
        help="multiply the spam-side world size (campaign counts, DGA "
             "and junk pools) by X; the scaled config gets its own "
             "cache fingerprint",
    )
    perf_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="build the world in N parallel shards (default 1 = "
             "serial); the world is byte-identical at any value",
    )
    perf_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    perf_parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything; neither read nor write the "
             "artifact cache",
    )
    perf_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a versioned JSON run manifest (span tree + metrics) "
             "to PATH; analysis output on stdout is unchanged",
    )
    perf_parser.add_argument(
        "--metrics", action="store_true",
        help="print a per-stage timing and metrics summary to stderr",
    )
    perf_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="land every sighting in a durable SQLite sighting store at "
             "PATH (created if absent; re-landing the same run is a "
             "no-op); analysis output on stdout is unchanged",
    )

    run_parser = subparsers.add_parser(
        "run", parents=[perf_parser],
        help="regenerate every table and figure",
    )
    run_parser.add_argument(
        "--output", "-o", default=None,
        help="write artifacts to this directory instead of stdout",
    )
    run_parser.set_defaults(handler=_cmd_run)

    stream_parser = subparsers.add_parser(
        "stream", parents=[perf_parser],
        help="incremental streaming analysis with checkpoint/resume",
    )
    stream_parser.add_argument(
        "--snapshot-every", type=int, default=0, metavar="DAYS",
        help="emit a progress snapshot every N simulated days "
             "(0, the default, emits none)",
    )
    stream_parser.add_argument(
        "--tables", action="store_true",
        help="print full Table 1/2/3 at every snapshot, not just at the end",
    )
    stream_parser.add_argument(
        "--until-day", type=int, default=None, metavar="DAY",
        help="stop after consuming records before this simulated day",
    )
    stream_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable checkpoint here (updated at snapshots)",
    )
    stream_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a checkpoint written by --checkpoint",
    )
    stream_parser.set_defaults(handler=_cmd_stream)

    query_parser = subparsers.add_parser(
        "query",
        help="answer cross-run questions from a persisted sighting store",
    )
    query_parser.add_argument(
        "--store", required=True, metavar="PATH",
        help="sighting store file written by run/stream --store",
    )
    query_sub = query_parser.add_subparsers(
        dest="query_command", required=True
    )
    first_seen_parser = query_sub.add_parser(
        "first-seen",
        help="which feeds saw a domain, earliest sighting first",
    )
    first_seen_parser.add_argument("domain", metavar="DOMAIN")
    query_sub.add_parser(
        "feed-stats",
        help="per-feed sighting/domain totals and drop accounting",
    )
    sightings_parser = query_sub.add_parser(
        "sightings", help="list stored sightings in landing order"
    )
    sightings_parser.add_argument(
        "--feed", default=None, metavar="FEED",
        help="only sightings from this feed",
    )
    sightings_parser.add_argument(
        "--since", type=int, default=None, metavar="DAY",
        help="only sightings at or after this simulated day",
    )
    sightings_parser.add_argument(
        "--limit", type=int, default=50, metavar="N",
        help="print at most N sightings (0 = unlimited; default 50)",
    )
    query_sub.add_parser("runs", help="list the runs landed in the store")
    query_parser.set_defaults(handler=_cmd_query)

    manifest_parser = subparsers.add_parser(
        "manifest",
        help="validate a --trace run manifest and summarize it",
    )
    manifest_parser.add_argument(
        "path", metavar="PATH", help="manifest file written by --trace"
    )
    manifest_parser.add_argument(
        "--min-stages", type=int, default=None, metavar="N",
        help="fail unless the span tree covers at least N distinct stages",
    )
    manifest_parser.add_argument(
        "--summary", action="store_true",
        help="print the per-stage summary tables",
    )
    manifest_parser.set_defaults(handler=_cmd_manifest)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the reprolint determinism analyzer (REP001..REP012)",
        description="Exit codes: 0 = no qualifying findings, "
                    "1 = findings (errors always; warnings too with "
                    "--strict), 2 = usage or input errors. Findings "
                    "are sorted (file, line, rule), so output is "
                    "byte-stable at any --jobs value.",
    )
    lint_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit the versioned JSON report instead of text",
    )
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any finding, warnings included",
    )
    lint_parser.add_argument(
        "--disable", action="append", default=[], metavar="REPxxx",
        help="disable a rule (repeatable)",
    )
    lint_parser.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write a SARIF 2.1.0 report to PATH (for CI "
             "annotation); stdout output is unchanged",
    )
    lint_parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for the per-file summary phase "
             "(default 1 = serial, 0 = all cores); findings are "
             "byte-identical at any value",
    )
    lint_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache for incremental re-linting "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    lint_parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every file summary; neither read nor write "
             "the artifact cache",
    )
    lint_parser.add_argument(
        "--schema-pin", action="store_true",
        help="print the expected CHECKPOINT_SCHEMA_PIN and exit",
    )
    lint_parser.add_argument(
        "--store-schema-pin", action="store_true",
        help="print the expected STORE_SCHEMA_PIN and exit",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    rec_parser = subparsers.add_parser(
        "recommend", help="rank feeds for a research question"
    )
    rec_parser.add_argument(
        "question",
        choices=[q.value for q in Question],
    )
    rec_parser.set_defaults(handler=_cmd_recommend)

    filter_parser = subparsers.add_parser(
        "filter", help="evaluate feeds as blocking oracles"
    )
    filter_parser.set_defaults(handler=_cmd_filter)

    serve_parser = subparsers.add_parser(
        "serve",
        help="long-lived analysis query daemon over a local HTTP socket",
        description="Worlds build (or cache-load) on demand, keyed by "
                    "(config fingerprint, seed), stay resident with "
                    "their worker pools, and answer concurrent queries; "
                    "identical in-flight requests coalesce into one "
                    "computation. GET / for the endpoint list. "
                    "Responses are byte-identical to the batch CLI for "
                    "the same parameters.",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1; the daemon is "
             "unauthenticated, keep it local)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="bind port (default 0 = pick a free port; the readiness "
             "line on stderr names it)",
    )
    serve_parser.add_argument(
        "--max-worlds", type=int, default=4, metavar="N",
        help="keep at most N worlds resident (LRU eviction; default 4)",
    )
    serve_parser.add_argument(
        "--manifest-dir", default=None, metavar="DIR",
        help="write one repro-run-manifest JSON per request into DIR",
    )
    serve_parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes per resident world "
             "(default 1 = serial, 0 = all cores)",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="build worlds in N parallel shards",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="build every world from scratch; neither read nor write "
             "the artifact cache",
    )
    serve_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="durable sighting store: builds land sightings into it "
             "and /v1/first-seen answers from it",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    args = parser.parse_args(argv)
    if getattr(args, "scale", None) is not None:
        try:
            _resolved_config(args)
        except ValueError as exc:
            parser.error(f"argument --scale: {exc}")
    for flag in ("snapshot_every", "until_day"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            parser.error(
                f"argument --{flag.replace('_', '-')}: must be a "
                f"non-negative day count, got {value}"
            )

    def on_sigterm(signum: int, frame: object) -> None:
        # Raising (not exiting) unwinds through every finally block:
        # pools reaped, stores closed, then the conventional 128+15.
        raise SystemExit(143)

    try:
        signal.signal(signal.SIGTERM, on_sigterm)
    except ValueError:  # pragma: no cover - main() called off-main-thread
        pass
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
