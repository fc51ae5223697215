"""Compare two sets of benchmark records (``run.py --compare OLD NEW``).

OLD and NEW are files, or directories of files, holding the JSON
record lines ``run.py`` prints (its saved stdout).  For every workload
and end-to-end metric it prints each side's median and quartiles, the
inter-quartile distance as a share of the median (the spread the bounds
are set against), the change of the medians, and whether the change
stays within the metric's bound; then the per-layer deltas of the traced
records.  Records whose CPU counts differ are flagged.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List, Sequence, Tuple

import stats

Records = List[Dict[str, Any]]


def load(path: str) -> Records:
    files = (
        [os.path.join(path, n) for n in sorted(os.listdir(path))]
        if os.path.isdir(path)
        else [path]
    )
    records = []
    for name in files:
        with open(name) as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and "stamp" in record:
                    records.append(record)
    return records


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _side(values: Sequence[float]) -> str:
    """``median [q1, q3] spread`` of one side's values."""
    q1, q2, q3 = quartiles(values)
    spread = (
        f"{stats.quartile_spread(values):.0%}" if len(values) > 1 else "-"
    )
    return f"{_fmt(q2):>10} [{_fmt(q1)}, {_fmt(q3)}] {spread:>4}"


def values_of(
    records: Records, workload: str, trace: bool, metric: str
) -> List[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload
        and bool(r["trace"]) == trace
        and metric in r["metrics"]
    ]


def scalars(record: Dict[str, Any]) -> Dict[str, float]:
    """Numbers a record carries beside its metrics: error rate, tail
    latency, rewinds, run times."""
    found = {"error_rate": record["error_rate"]}
    for name, value in record.get("details", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            found[name] = value
    return found


def verdict(old: float, new: float, better: str, bound: float) -> str:
    """``ok`` when NEW is no worse than OLD by more than *bound* (a
    share of OLD), ``REGRESSION`` otherwise."""
    if old == 0:
        return "ok" if new == old else "n/a"
    worse = (new - old) / old if better == "lower" else (old - new) / old
    return "ok" if worse <= bound else "REGRESSION"


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def main(old_path: str, new_path: str, benchmark_json: str) -> int:
    with open(benchmark_json) as handle:
        spec = json.load(handle)
    old, new = load(old_path), load(new_path)
    if not old or not new:
        print("error: no benchmark records found")
        return 2
    cpus_old = {r["stamp"]["available_cpus"] for r in old}
    cpus_new = {r["stamp"]["available_cpus"] for r in new}
    if cpus_old != cpus_new or len(cpus_old) > 1:
        print(
            f"WARNING: available_cpus differ (old {sorted(cpus_old)}, "
            f"new {sorted(cpus_new)}); timings are not comparable"
        )
    commits = (
        sorted({r["stamp"]["commit"] for r in old}),
        sorted({r["stamp"]["commit"] for r in new}),
    )
    print(f"old: {len(old)} records, commit {', '.join(commits[0])}")
    print(f"new: {len(new)} records, commit {', '.join(commits[1])}")
    regressions = 0
    bounded = [m["name"] for m in spec["end_to_end"]]
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"\n== {workload} ==")
        print(f"{'metric':28} {'old median [q1, q3] spread':42} "
              f"{'new median [q1, q3] spread':42} {'delta':>9}  bound")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = values_of(old, workload, False, name)
            b = values_of(new, workload, False, name)
            if not a or not b:
                print(f"{name:28} (missing: old {len(a)}, new {len(b)})")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / ma * 100 if ma else 0.0
            word = verdict(ma, mb, metric["better"], metric["bound"])
            regressions += word == "REGRESSION"
            print(
                f"{name:28} {_side(a):42} {_side(b):42} "
                f"{delta:+8.1f}%  {word} ({metric['bound']:.0%}, "
                f"n={len(a)}/{len(b)})"
            )
        sides = [
            [scalars(r) for r in records
             if r["workload"] == workload and not r["trace"]]
            for records in (old, new)
        ]
        shared = set.intersection(*(set(x) for side in sides for x in side))
        if sides[0] and sides[1]:
            for name in sorted(shared - set(bounded)):
                a, b = ([x[name] for x in side] for side in sides)
                print(f"{name:28} {_fmt(statistics.median(a)):>10}".ljust(64)
                      + f" {_fmt(statistics.median(b)):>10}   (no bound)")
        layer_rows = []
        for metric in spec["per_layer"]:
            a = values_of(old, workload, True, metric["name"])
            b = values_of(new, workload, True, metric["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            if ma == mb == 0:
                continue
            layer_rows.append((metric, ma, mb))
        if layer_rows:
            print("-- per-layer (traced runs) --")
            for metric, ma, mb in layer_rows:
                delta = f"{(mb - ma) / ma * 100:+8.1f}%" if ma else "     new"
                print(f"  {metric['name']:38} {_fmt(ma):>12} -> "
                      f"{_fmt(mb):>12} {metric['unit']:6} {delta}")
    print(f"\n{regressions} regression(s) beyond the bounds")
    return 1 if regressions else 0
