"""BENCHMARK.json agrees with the code that produces its metrics."""

import json
import os
import re

import layers
import loadgen
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def test_top_level_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_per_layer_metrics_match_the_code():
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == layers.PER_LAYER


def test_end_to_end_metrics():
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25


def test_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(
        UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"]
    )


def test_every_layer_metric_has_a_source():
    """Each per-layer metric is summed from seams, counted by name, or
    computed by layer_metrics / the workloads; none is left at 0 by an
    oversight in the tables."""
    computed = {
        "parallel.tasks.worker0", "parallel.tasks.worker1",
        "parallel.imbalance", "unattributed_s", "trace.overhead_pct",
        "stream.rewinds", "serve.transport_ms", "serve.hit_ratio",
        "serve.lock_wait_ms",
    }
    computed |= {f"cache.bytes.{k}" for k in layers.CACHE_KINDS}
    computed |= {f"serve.handle_ms.{e}" for e in layers.ENDPOINTS}
    sources = set(layers.SEAM_SECONDS) | set(layers.COUNTED) | computed
    assert sources == {name for name, _, _ in layers.PER_LAYER}


def test_asof_order_rewinds_to_each_early_day_and_mixes_clients():
    for seed in range(20):
        ctx = workloads.Context(seed, 10.0, "")
        order = workloads._asof_order(ctx)
        assert sorted(order) == list(range(1, len(order) + 1))
        half = len(order) // 2
        # every early day is asked for by a rewind, no late day is
        rewound = [d for before, d in zip([0, *order], order) if d < before]
        assert sorted(rewound) == list(range(1, half + 1))
        for paths in workloads._asof_schedule(ctx):
            days = [int(p.rsplit("=", 1)[1]) for p in paths]
            assert sum(d <= half for d in days) == len(days) // 2


def test_engine_order_follows_completion_and_a_swap_changes_rewinds():
    ctx = workloads.Context(0, 20.0, "")
    order = workloads._asof_order(ctx)
    # the engine lock serialises requests, so answers complete in order
    samples = [
        loadgen.Sample(f"/v1/snapshot?day={day}", 0.0, float(i), 200, b"")
        for i, day in reversed(list(enumerate(order)))
    ]
    assert workloads._engine_order(samples) == order
    # were client 1 first, the engine would take every pair swapped and
    # rewind 6 times instead of 10
    swapped = [order[i ^ 1] for i in range(len(order))]
    assert (workloads._rewinds(order), workloads._rewinds(swapped)) == (10, 6)
