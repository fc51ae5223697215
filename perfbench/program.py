"""Running the program under test: CLI runs, the serve daemon, stamps.

The program is the checkout's own ``src/repro`` package, run by the
same interpreter as the benchmark in fresh processes, exactly as a user
runs ``python -m repro``.  Every file it writes goes under a scratch
directory inside the checkout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERTRACE = os.path.join(HERE, "layertrace.py")


class ProgramError(RuntimeError):
    """The program is missing or failed outside a measured operation."""


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def program_env(scratch: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Never touch the user's default cache, even if a flag is missed.
    env["REPRO_CACHE_DIR"] = os.path.join(scratch, "default-cache")
    return env


def repro_argv(args: Sequence[str], events: Optional[str] = None) -> List[str]:
    """``python -m repro ARGS``, or the layer-traced equivalent."""
    if events is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, LAYERTRACE, events, "--", *args]


@dataclasses.dataclass
class CliRun:
    start: float
    end: float
    returncode: int
    stdout: bytes
    peak_rss_mib: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_cli(
    args: Sequence[str], scratch: str, events: Optional[str] = None
) -> CliRun:
    """One CLI run, timed from exec to exit, with its peak RSS."""
    with open(os.path.join(scratch, "cli.stderr"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            repro_argv(args, events),
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=program_env(scratch),
            cwd=scratch,
        )
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(start, end, proc.returncode, stdout, usage.ru_maxrss / 1024)


def probe(scratch: str) -> float:
    """Check that the program runs at all; returns the time it took."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=program_env(scratch),
        cwd=scratch,
    )
    if result.returncode != 0:
        raise ProgramError(
            "python -m repro does not run from "
            f"{SRC}: {result.stderr.decode(errors='replace')[-300:]}"
        )
    return time.perf_counter() - start


_READY = re.compile(r"\[serve\] listening on http://[^:]+:(\d+)")


class Daemon:
    """A ``python -m repro serve`` process on a free local port."""

    def __init__(
        self, args: Sequence[str], scratch: str, events: Optional[str] = None
    ):
        self._stderr_tail: List[str] = []
        self.proc = subprocess.Popen(
            repro_argv(args, events),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=program_env(scratch),
            cwd=scratch,
            text=True,
        )
        self.port = self._await_ready()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        self.peak_rss_mib = 0.0

    def _await_ready(self) -> int:
        for line in self.proc.stderr:
            self._stderr_tail = (self._stderr_tail + [line])[-20:]
            match = _READY.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        raise ProgramError(
            "serve exited before listening: " + "".join(self._stderr_tail)
        )

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr_tail = (self._stderr_tail + [line])[-20:]

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (the daemon drains and exits 0), SIGKILL after
        *timeout*; waits for the process and records its peak RSS."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        # os.kill, not Popen.send_signal: the latter reaps an exited
        # child itself, and wait4 below needs to reap it for its rusage.
        os.kill(self.proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.05)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mib = usage.ru_maxrss / 1024
        return self.proc.returncode

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def source_digest() -> str:
    """Digest of every file under ``src``."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def commit() -> str:
    """The commit when the checkout is a git work tree with a clean
    ``src``, else the source digest (an exported tree has no history)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src"],
                capture_output=True, text=True, timeout=10,
            )
            if head.returncode == 0 and not dirty.stdout.strip():
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return source_digest()


def stamp() -> Dict[str, object]:
    return {
        "commit": commit(),
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }
