"""Folding traced events into per-layer metrics."""

import json
import os
import subprocess
import sys

import layers
import program


def write_events(path, lines):
    with open(path, "w") as handle:
        for line in lines:
            handle.write(json.dumps(line) + "\n")


def flush(pid, agg, iv=None, cnt=None):
    line = {"pid": pid, "agg": agg, "cnt": cnt or {}, "max": {}}
    if iv is not None:
        line["iv"] = iv
    return line


def test_fold_sums_processes_and_leaves_unattributed_time(tmp_path):
    events = tmp_path / "events.jsonl"
    write_events(events, [
        {"pid": 10, "main": True, "t": 0.0},
        # two pool workers, each timing collect tasks
        flush(11, {"feeds.collect:Hu": [1, 1.0]},
              ["feeds.collect:Hu", 1.0, 2.0, 1, None]),
        flush(12, {"feeds.collect:Bot": [1, 3.0]},
              ["feeds.collect:Bot", 1.0, 4.0, 1, None],
              cnt={"oracles.crawl_calls": 5}),
        flush(12, {"feeds.collect:Hu": [1, 1.0]},
              ["feeds.collect:Hu", 4.0, 5.0, 1, None]),
        # the main process: one outermost call covering 1..6 s
        flush(10, {"pipeline.run": [1, 5.0], "ecosystem.build": [1, 0.5]},
              ["pipeline.run", 1.0, 6.0, 1, None],
              cnt={"oracles.crawl_calls": 2}),
    ])
    recorded = layers.read_events(str(events))
    values = layers.layer_metrics(recorded, [(0.0, 8.0)], 10, {})
    assert values["feeds.collect_s.Hu"] == 2.0
    assert values["feeds.collect_s.Bot"] == 3.0
    assert values["pipeline.run_s"] == 5.0
    assert values["ecosystem.build_s"] == 0.5
    assert values["oracles.crawl_calls"] == 7
    # the CLI ran 8 s, of which its outermost call covered 5
    assert values["unattributed_s"] == 3.0
    assert values["parallel.tasks.worker0"] == 1
    assert values["parallel.tasks.worker1"] == 2
    assert values["parallel.imbalance"] == 4.0 / 2.5
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}


def test_handle_times_and_window_totals(tmp_path):
    events = tmp_path / "events.jsonl"
    write_events(events, [
        flush(10, {"serve.handle": [1, 0.5], "stream.advance": [1, 0.3]},
              ["serve.handle", 10.0, 10.5, 2, "/v1/snapshot?day=3"]),
        # a set-up request, before the window
        flush(10, {"serve.handle": [1, 2.0], "stream.engine_build": [1, 1.5]},
              ["serve.handle", 1.0, 3.0, 2, "/v1/snapshot?day=0"]),
        flush(10, {"serve.handle": [1, 0.001]},
              ["serve.handle", 11.0, 11.001, 3, "/healthz"]),
    ])
    recorded = layers.read_events(str(events))
    handles = layers.handle_times(recorded, (9.0, 12.0))
    # only snapshot requests have a label; /healthz is not timed
    assert handles == {"snapshot": [0.5]}
    totals = layers.window_totals(recorded, (9.0, 12.0))
    assert totals["stream.advance"] == (1, 0.3)
    assert "stream.engine_build" not in totals


def test_cache_reads_come_from_the_load_seams(tmp_path):
    events = tmp_path / "events.jsonl"
    write_events(events, [
        flush(10, {"cache.load:pipeline-state": [1, 1.25]},
              ["pipeline.run", 0.0, 1.5, 1, None], cnt={"cache.hits": 2}),
    ])
    reads = layers.cache_reads(layers.read_events(str(events)))
    assert reads == {
        "cache.load_s.pipeline-state": 1.25,
        "cache.load_s.render-all": 0.0,
        "cache.hits": 2,
    }


def test_traced_run_matches_untraced_and_times_every_batch_layer(tmp_path):
    """layertrace.py against the real program on the small world."""
    args = ["--small", "-q", "--seed", "7", "run", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache")]
    env = dict(os.environ, PYTHONPATH=program.SRC)
    plain = subprocess.run(
        [sys.executable, "-m", "repro", *args[:-2], "--no-cache"],
        capture_output=True, env=env, check=True,
    )
    events = tmp_path / "events.jsonl"
    traced = subprocess.run(
        [sys.executable, program.LAYERTRACE, str(events), "--", *args],
        capture_output=True, env=env, check=True,
    )
    assert traced.stdout == plain.stdout
    recorded = layers.read_events(str(events))
    for seam in ["ecosystem.build", "feeds.collect", "parallel.fork",
                 "analysis.crawl", "pipeline.run", "pipeline.render_all",
                 "render.table2", "feeds.collect:Hyb",
                 "cache.store:pipeline-state", "cache.store:render-all"]:
        assert recorded.calls.get(seam, 0) > 0, seam
    assert recorded.counts["oracles.crawl_calls"] > 0
    assert recorded.counts["feeds.records"] > 0
    assert len(recorded.mains) == 1
