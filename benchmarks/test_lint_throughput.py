"""reprolint v2 throughput over the real ``src/repro`` tree.

Three benches around the summary cache and the parallel summarizer:

* cold serial lint (every file summarized from source, fresh cache);
* warm lint (every summary served from the content-hash cache); and
* cold parallel lint (summaries on a ``WorkerPool``, one worker per
  core up to four), timed against a cold serial lint in the same test.

Every bench asserts its findings are empty (the tree is lint-clean)
and identical across paths, so a fast-but-divergent engine cannot
slip through as a throughput win.  The parallel bench records its
speedup over serial, which CI's "parallel must beat serial" step
checks on multi-core runners: that measurement is what justifies
lint's ``--jobs``.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import time

import pytest

from repro.devtools.lint import iter_python_files, lint_paths
from repro.io.artifacts import ArtifactCache

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src" / "repro")


def _available_cpus() -> int:
    return os.cpu_count() or 1  # reprolint: disable=REP007 -- reporting only


def _render(findings):
    return [f.to_dict() for f in findings]


def test_lint_cold_serial(benchmark, tmp_path, show):
    n_files = len(list(iter_python_files([SRC])))
    dirs = iter(str(tmp_path / f"cold{i}") for i in itertools.count())

    def cold():
        return lint_paths([SRC], cache=ArtifactCache(next(dirs)))

    findings = benchmark.pedantic(cold, rounds=3)
    assert findings == []
    rate = n_files / benchmark.stats.stats.mean
    benchmark.extra_info["files"] = n_files
    benchmark.extra_info["files_per_sec"] = round(rate, 1)
    show(f"[lint] cold serial: {n_files} files, {rate:,.1f} files/s")


def test_lint_warm_cache(benchmark, tmp_path, show):
    n_files = len(list(iter_python_files([SRC])))
    cache = ArtifactCache(str(tmp_path / "warm"))
    cold = lint_paths([SRC], cache=cache)

    def warm():
        return lint_paths([SRC], cache=cache)

    findings = benchmark.pedantic(warm, rounds=3)
    assert _render(findings) == _render(cold)
    rate = n_files / benchmark.stats.stats.mean
    benchmark.extra_info["files"] = n_files
    benchmark.extra_info["files_per_sec"] = round(rate, 1)
    show(f"[lint] warm cache: {n_files} files, {rate:,.1f} files/s")


def test_lint_cold_parallel(benchmark, tmp_path, show):
    cpus = _available_cpus()
    if cpus <= 1:
        pytest.skip(
            f"parallel bench needs more than one core; host has {cpus}"
        )
    jobs = min(4, cpus)
    n_files = len(list(iter_python_files([SRC])))
    dirs = iter(str(tmp_path / f"cold{i}") for i in itertools.count())
    # The first lint of a process also pays one-off costs (the engine
    # fingerprint); keep them out of the serial time the speedup uses.
    serial = lint_paths([SRC], cache=ArtifactCache(next(dirs)))
    start = time.perf_counter()
    lint_paths([SRC], cache=ArtifactCache(next(dirs)))
    serial_seconds = time.perf_counter() - start

    def parallel():
        return lint_paths([SRC], jobs=jobs, cache=ArtifactCache(next(dirs)))

    findings = benchmark.pedantic(parallel, rounds=3)
    assert _render(findings) == _render(serial)
    mean = benchmark.stats.stats.mean
    speedup = serial_seconds / mean
    benchmark.extra_info["files"] = n_files
    benchmark.extra_info["pool"] = True
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["available_cpus"] = cpus
    benchmark.extra_info["files_per_sec"] = round(n_files / mean, 1)
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 3)
    show(
        f"[lint] cold pool jobs={jobs}: {n_files} files, {mean:.2f}s vs "
        f"serial {serial_seconds:.2f}s ({speedup:.2f}x on {cpus} cpu)"
    )
