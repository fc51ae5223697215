"""HTTP load for the serve workload: closed-loop clients, each over its
own keep-alive connection.

The client loop takes its clock, sleep and send functions as arguments,
so the tests drive it against a simulated server and clock.
"""

from __future__ import annotations

import dataclasses
import http.client
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: ``send(path) -> (status, body)``
Send = Callable[[str], Tuple[int, bytes]]


@dataclasses.dataclass
class Sample:
    """One request: when it was sent and answered (seconds)."""

    path: str
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.sent


class Connection:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int, timeout: float = 120.0):
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )

    def send(self, path: str) -> Tuple[int, bytes]:
        try:
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            # Reset, so the next request reconnects instead of failing
            # on a half-used connection.
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()


def run_threads(
    jobs: Sequence[Callable[[], List[Sample]]]
) -> List[List[Sample]]:
    """Run each job on its own thread; re-raise the first failure."""
    results: List[Optional[List[Sample]]] = [None] * len(jobs)
    errors: List[BaseException] = []

    def body(index: int) -> None:
        try:
            results[index] = jobs[index]()
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(i,)) for i in range(len(jobs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [r or [] for r in results]


def closed_loop_client(
    paths: Sequence[str],
    send: Send,
    deadline: float,
    clock: Callable[[], float] = time.perf_counter,
    delay: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Sample]:
    """After *delay* seconds, send *paths* one after another, each after
    the previous answer, until they run out or *deadline* passes."""
    sleep(delay)
    samples = []
    for path in paths:
        sent = clock()
        if sent >= deadline:
            break
        try:
            status, body = send(path)
        except (OSError, http.client.HTTPException):
            status, body = 0, b""
        samples.append(Sample(path, sent, clock(), status, body))
    return samples
