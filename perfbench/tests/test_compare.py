"""Compare mode's verdicts."""

import compare


def test_verdict_respects_direction_and_bound():
    assert compare.verdict(100.0, 110.0, "lower", 0.1) == "ok"
    assert compare.verdict(100.0, 111.0, "lower", 0.1) == "REGRESSION"
    assert compare.verdict(100.0, 50.0, "lower", 0.1) == "ok"
    assert compare.verdict(32.0, 29.0, "higher", 0.1) == "ok"
    assert compare.verdict(32.0, 16.0, "higher", 0.1) == "REGRESSION"


def test_scalars_keep_numbers_recorded_beside_the_metrics():
    record = {
        "error_rate": 0.0,
        "details": {"planned_rewinds": 9, "engine_order_as_planned": True,
                    "rewinds": [9, 9], "latency_tail_ms": None, "runs": 2},
    }
    assert compare.scalars(record) == {
        "error_rate": 0.0, "planned_rewinds": 9, "runs": 2,
    }
