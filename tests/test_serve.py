"""Tests for the serve daemon: coalescing, byte-identity, lifecycle.

Three contracts from the issue, each pinned here:

* **Single-flight**: N identical concurrent cold requests cause
  exactly one world build (asserted via the daemon's own counters).
* **Byte-identity**: the bytes ``GET /v1/tables`` serves equal the
  bytes ``python -m repro run`` prints for the same config and seed.
* **Graceful shutdown**: a drain initiated mid-request still delivers
  the in-flight response, and a SIGTERM'd daemon process exits 0 with
  no surviving children.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.__main__ import main
from repro.serve import (
    ServeApp,
    ServeDaemon,
    ServeStats,
    SingleFlight,
    WorldCache,
)

SMALL_SEED = 7


# ----------------------------------------------------------------------
# The single-flight primitive
# ----------------------------------------------------------------------


class TestSingleFlight:
    def test_concurrent_callers_share_one_execution(self):
        flights = SingleFlight()
        calls = []
        release = threading.Event()

        def slow():
            calls.append(1)
            release.wait(timeout=10)
            return "answer"

        results = []

        def worker():
            results.append(flights.do("k", slow))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Wait until the leader is inside slow(), then release it.
        deadline = time.monotonic() + 10
        while not calls and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(calls) == 1
        assert len(results) == 8
        assert {value for value, _ in results} == {"answer"}
        assert sum(1 for _, leader in results if leader) == 1

    def test_key_forgotten_after_completion(self):
        flights = SingleFlight()
        flights.do("k", lambda: 1)
        value, leader = flights.do("k", lambda: 2)
        # Not a cache: the second sequential call recomputes.
        assert value == 2 and leader
        assert flights.in_flight() == 0

    def test_leader_error_propagates_to_waiters(self):
        flights = SingleFlight()
        release = threading.Event()
        outcomes = []

        def boom():
            release.wait(timeout=10)
            raise RuntimeError("build failed")

        def worker():
            try:
                flights.do("k", boom)
            except RuntimeError as exc:
                outcomes.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert outcomes == ["build failed"] * 4
        # A failed flight is forgotten too: the next call retries.
        value, _ = flights.do("k", lambda: "recovered")
        assert value == "recovered"

    def test_distinct_keys_do_not_coalesce(self):
        flights = SingleFlight()
        assert flights.do("a", lambda: 1)[0] == 1
        assert flights.do("b", lambda: 2)[0] == 2


# ----------------------------------------------------------------------
# In-process daemon fixtures
# ----------------------------------------------------------------------


def _make_app(**kwargs) -> ServeApp:
    stats = ServeStats()
    worlds = WorldCache(stats, cache=None, **kwargs)
    return ServeApp(
        worlds, stats, default_seed=SMALL_SEED, default_small=True
    )


@pytest.fixture(scope="module")
def daemon():
    served = ServeDaemon(_make_app(), port=0)
    served.start()
    yield served
    served.drain()


def _get(daemon, path):
    try:
        with urllib.request.urlopen(
            daemon.address + path, timeout=120
        ) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


# ----------------------------------------------------------------------
# Coalescing through the full daemon
# ----------------------------------------------------------------------


class TestCoalescing:
    def test_concurrent_identical_requests_build_once(self, daemon):
        n = 6
        results = [None] * n

        def hit(index):
            results[index] = _get(daemon, "/v1/tables")

        threads = [
            threading.Thread(target=hit, args=(index,)) for index in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert all(status == 200 for status, _ in results)
        assert len({body for _, body in results}) == 1

        status, body = _get(daemon, "/v1/stats")
        assert status == 200
        counters = json.loads(body)["metrics"]["counters"]
        # The issue's acceptance criterion: N identical concurrent
        # requests -> exactly one world build, visible in the counters.
        assert counters["serve.worlds_built"] == 1
        coalesced = counters.get("serve.coalesced_builds", 0)
        hits = counters.get("serve.world_hits", 0)
        assert coalesced + hits == n - 1
        # Rendering coalesced the same way: one render, n-1 shared.
        assert counters.get("serve.renders_built", 0) == 1

    def test_warm_requests_are_lru_hits(self, daemon):
        before = json.loads(_get(daemon, "/v1/stats")[1])
        built_before = before["metrics"]["counters"]["serve.worlds_built"]
        status, _ = _get(daemon, "/v1/table/2")
        assert status == 200
        after = json.loads(_get(daemon, "/v1/stats")[1])
        assert (
            after["metrics"]["counters"]["serve.worlds_built"]
            == built_before
        )

    def test_snapshot_endpoint_reuses_the_stream_engine(self, daemon):
        status, day3 = _get(daemon, "/v1/snapshot?day=3")
        assert status == 200
        assert day3.startswith(b"[stream] as of day 3:")
        status, day5 = _get(daemon, "/v1/snapshot?day=5")
        assert status == 200
        # Rewind: earlier day after a later one replays, same bytes.
        status, day3_again = _get(daemon, "/v1/snapshot?day=3")
        assert status == 200
        assert day3_again == day3
        counters = json.loads(_get(daemon, "/v1/stats")[1])["metrics"][
            "counters"
        ]
        assert counters["serve.snapshots_built"] == 2
        assert counters["serve.snapshot_hits"] >= 1

    def test_rewinding_snapshots_reuse_one_engine(self, monkeypatch):
        from repro.ecosystem import small_config
        from repro.pipeline import PaperPipeline

        build = PaperPipeline.stream_engine
        built = []

        def counted(pipeline):
            built.append(pipeline.seed)
            return build(pipeline)

        monkeypatch.setattr(PaperPipeline, "stream_engine", counted)
        app = _make_app()
        days = [9, 3, 12, 1, 3, 0]
        try:
            bodies = {}
            for day in days:
                response = app.handle("/v1/snapshot", {"day": [str(day)]})
                assert response.status == 200
                bodies.setdefault(day, response.body)
                assert response.body == bodies[day]
            # Three rewinds (9->3, 12->1, 1->0), one engine.
            assert built == [SMALL_SEED]

            entry = app.worlds.entry(small_config(), SMALL_SEED)
            forward = build(entry.pipeline)
            for day in sorted(bodies):
                forward.advance_to_day(day)
                snapshot = forward.snapshot()
                expected = f"{snapshot.header()}\n\n{snapshot.render_tables()}\n"
                assert bodies[day] == expected.encode("utf-8")
        finally:
            app.worlds.close()

    def test_bad_requests_are_400_not_500(self, daemon):
        assert _get(daemon, "/v1/tables?seed=x")[0] == 400
        assert _get(daemon, "/v1/snapshot")[0] == 400
        assert _get(daemon, "/v1/snapshot?day=100000")[0] == 400
        assert _get(daemon, "/v1/recommend?question=nope")[0] == 400
        assert _get(daemon, "/v1/first-seen?domain=x.com")[0] == 400
        status, body = _get(daemon, "/v1/does-not-exist")
        assert status == 404
        assert "/v1/tables" in json.loads(body)["endpoints"]

    def test_recommend_matches_batch_ranking(self, daemon):
        status, body = _get(daemon, "/v1/recommend?question=coverage")
        assert status == 200
        payload = json.loads(body)
        assert payload["question"] == "coverage"
        ranks = [entry["rank"] for entry in payload["ranking"]]
        assert ranks == sorted(ranks)
        assert len(payload["ranking"]) >= 5


@pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0", "1e308"])
def test_hostile_scale_is_a_clean_rejection(scale, capsys):
    # Regression: these escaped scaled_config as ValueError or
    # OverflowError, so the daemon dropped the connection and the CLI
    # exited 1 with a traceback.
    response = _make_app().handle("/v1/feeds", {"scale": [scale]})
    assert response.status == 400
    assert "scale" in json.loads(response.body)["error"]
    with pytest.raises(SystemExit) as exited:
        main(["--small", "run", f"--scale={scale}"])
    assert exited.value.code == 2
    assert "--scale" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Byte-identity against the batch CLI
# ----------------------------------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("seed", [7, 11, 2012])
    def test_served_tables_equal_batch_stdout(
        self, daemon, seed, capsys
    ):
        status, served = _get(daemon, f"/v1/tables?seed={seed}")
        assert status == 200
        code = main(["-q", "--small", "--seed", str(seed), "run"])
        assert code == 0
        batch = capsys.readouterr().out
        assert served.decode("utf-8") == batch

    def test_single_table_matches_full_render(self, daemon):
        status, full = _get(daemon, "/v1/tables")
        status2, table1 = _get(daemon, "/v1/table/1")
        assert status == 200 and status2 == 200
        assert table1.rstrip(b"\n") in full


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


class TestGracefulShutdown:
    def test_drain_delivers_in_flight_response(self):
        served = ServeDaemon(_make_app(), port=0)
        served.start()
        result = {}

        def slow_request():
            result["response"] = _get(served, "/v1/tables")

        requester = threading.Thread(target=slow_request)
        requester.start()
        # Give the request time to reach the (slow, cold) build, then
        # drain while it is still in flight.
        time.sleep(0.3)
        served.drain()
        requester.join(timeout=300)
        status, body = result["response"]
        assert status == 200
        assert b"Table 1" in body
        # Draining twice is a no-op.
        served.drain()

    def test_drained_daemon_refuses_new_connections(self):
        served = ServeDaemon(_make_app(), port=0)
        served.start()
        port = served.port
        served.drain()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1)


# ----------------------------------------------------------------------
# The CLI subcommand end to end (subprocess: real signals, real exit)
# ----------------------------------------------------------------------


def _spawn_serve(*extra: str) -> "subprocess.Popen[str]":
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "--small", "--seed", "7",
         "serve", "--no-cache", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _alive_non_zombie(pid: str) -> bool:
    """True while ``pid`` exists and has not yet exited.

    A worker that died at parent exit lingers as a zombie until init
    reaps it; only a *running* leftover process is a reaping failure.
    """
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _await_no_survivors(pids, timeout: float = 10.0):
    """Poll until every pid is gone (or a zombie); return stragglers."""
    deadline = time.monotonic() + timeout
    survivors = list(pids)
    while survivors and time.monotonic() < deadline:
        survivors = [pid for pid in survivors if _alive_non_zombie(pid)]
        if survivors:
            time.sleep(0.1)
    return survivors


def _await_ready(proc) -> str:
    line = proc.stderr.readline()
    match = re.search(r"listening on (http://[\d.]+:\d+)", line)
    assert match, f"no readiness line, got {line!r}"
    return match.group(1)


class TestServeSubprocess:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_exits_zero_with_no_orphans(self, signum):
        proc = _spawn_serve()
        try:
            base = _await_ready(proc)
            with urllib.request.urlopen(
                base + "/healthz", timeout=30
            ) as response:
                assert response.read() == b"ok\n"
            children_path = f"/proc/{proc.pid}/task/{proc.pid}/children"
            proc.send_signal(signum)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert not os.path.exists(children_path)

    def test_manifest_per_request(self, tmp_path):
        manifest_dir = tmp_path / "manifests"
        proc = _spawn_serve("--manifest-dir", str(manifest_dir))
        try:
            base = _await_ready(proc)
            with urllib.request.urlopen(
                base + "/healthz", timeout=30
            ) as response:
                assert response.status == 200
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        manifests = sorted(manifest_dir.glob("request-*.json"))
        assert manifests
        payload = json.loads(manifests[0].read_text())
        assert payload["format"] == "repro-run-manifest"
        assert payload["command"] == "serve"
        assert payload["request"].endswith("GET /healthz -> 200")


class TestRunInterrupt:
    def test_sigint_mid_parallel_run_reaps_workers(self):
        """Ctrl-C during a --jobs run: exit 130, no surviving children."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--seed", "7", "run",
             "--jobs", "2", "--no-cache"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        children = []
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                try:
                    with open(
                        f"/proc/{proc.pid}/task/{proc.pid}/children"
                    ) as handle:
                        children = handle.read().split()
                except OSError:
                    break
                if children or proc.poll() is not None:
                    break
                time.sleep(0.02)
            assert children, "pool never forked (fork unavailable?)"
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "interrupted" in stderr
        assert _await_no_survivors(children) == []
