"""The closed-loop client's timing, against a simulated server and clock."""

import loadgen


class FakeServer:
    """Answers in *service* seconds of simulated time."""

    def __init__(self, service=0.01):
        self.now = 0.0
        self.service = service

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds

    def send(self, path):
        self.now += self.service
        return 200, path.encode()


def test_closed_loop_stops_at_the_deadline():
    server = FakeServer(service=0.3)
    samples = loadgen.closed_loop_client(
        [f"/d{i}" for i in range(10)], server.send, deadline=1.0,
        clock=server.clock,
    )
    assert [s.path for s in samples] == ["/d0", "/d1", "/d2", "/d3"]
    assert [round(s.latency, 6) for s in samples] == [0.3] * 4


def test_closed_loop_waits_its_delay_before_the_first_request():
    server = FakeServer(service=0.3)
    samples = loadgen.closed_loop_client(
        ["/d0", "/d1"], server.send, deadline=5.0, clock=server.clock,
        delay=0.2, sleep=server.sleep,
    )
    assert [round(s.sent, 6) for s in samples] == [0.2, 0.5]
