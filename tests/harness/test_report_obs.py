"""Report formatter for the serve metrics surface.

Contract: when the obs layer is absent (no snapshot), the formatter
returns the empty string so existing report output stays byte-identical.
"""

from repro.harness.report import format_serve_metrics


SNAPSHOT = {
    "serve.queue.depth": {
        "kind": "gauge",
        "help": "jobs queued",
        "series": [{"labels": {}, "value": 0.0}],
    },
    "serve.jobs.completed": {
        "kind": "counter",
        "help": "jobs by terminal state",
        "series": [
            {"labels": {"state": "done"}, "value": 5.0},
            {"labels": {"state": "cancelled"}, "value": 1.0},
        ],
    },
    "serve.latency_s": {
        "kind": "histogram",
        "help": "submit-to-done latency",
        "series": [
            {"labels": {}, "count": 6, "sum": 1.2, "p50": 0.18345,
             "p99": 0.41019, "buckets": [], "inf": 6}
        ],
    },
    "serve.cache.hit_rate": {
        "kind": "gauge",
        "help": "cache hit rate",
        "series": [{"labels": {}, "value": 0.75}],
    },
}

# -- byte-stability when obs is absent ---------------------------------


def test_serve_metrics_absent_is_empty_string():
    assert format_serve_metrics(None) == ""
    assert format_serve_metrics({}) == ""


# -- rendering ---------------------------------------------------------


def test_serve_metrics_renders_all_sections():
    text = format_serve_metrics(SNAPSHOT)
    lines = text.splitlines()
    assert "serve queue depth: 0" in lines[0]
    assert "done=5, cancelled=1" in lines[1]
    assert "p50 0.1835s p99 0.4102s over 6 jobs" in lines[2]
    assert "serve cache hit rate: 75.0%" in lines[3]


def test_serve_metrics_skips_missing_metrics():
    partial = {"serve.queue.depth": SNAPSHOT["serve.queue.depth"]}
    text = format_serve_metrics(partial)
    assert text == "serve queue depth: 0"

