"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD NEW

A run sets its workload up, measures it for about S seconds, checks
every output against a reference, prints a one-line JSON record (with
the stamp and every detail) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones from a separate traced run.  ``--compare`` reads the saved stdout
of runs of two commits and prints the deltas.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from typing import Any, Dict, List, Optional

import compare
import layers
import program
import workloads

BENCHMARK_JSON = os.path.join(program.ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(program.ROOT, ".perfbench")


def _units(trace: bool) -> Dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in layers.PER_LAYER}
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def measure(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Run one workload; returns the full record."""
    if not os.path.isdir(os.path.join(program.SRC, "repro")):
        raise program.ProgramError(f"no repro package under {program.SRC}")
    units = _units(trace)
    scratch = os.path.join(SCRATCH, f"{workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    stamp = program.stamp()
    started = time.perf_counter()
    try:
        ctx = workloads.Context(seed, seconds, scratch)
        timed, traced = workloads.WORKLOADS[workload]
        if trace:
            outcome = traced(ctx, os.path.join(scratch, "events.jsonl"))
        else:
            outcome = timed(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    stamp["loadavg_end"] = list(os.getloadavg())
    stamp["elapsed_s"] = time.perf_counter() - started
    missing = set(units) - set(outcome.metrics)
    if missing:
        raise program.ProgramError(f"metrics not measured: {sorted(missing)}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stamp": stamp,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / max(1, outcome.attempted),
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "details": outcome.details,
    }


def result_line(record: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def _report(record: Dict[str, Any]) -> None:
    """Human-readable metrics on stderr."""
    print(
        f"{record['workload']} seed={record['seed']} "
        f"trace={int(record['trace'])}: {record['attempted']} attempted, "
        f"{record['failed']} failed",
        file=sys.stderr,
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:40} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    for name, value in record["details"].items():
        if not isinstance(value, (list, dict)):
            print(f"  {name:40} {value}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two sets of saved records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], BENCHMARK_JSON)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated benchmark unwinds like an interrupted one, so the
    # finally blocks stop the daemon and CLI runs it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (program.ProgramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _report(record)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
