"""Span protocol under ``REPRO_SANITIZE=1``: the flat API is legal.

A track does one thing at a time, so ``begin()`` closing whatever the
track had open is the protocol itself, not a misuse; strict mode must
accept it.  (Recording after ``finish()`` is the one protocol error;
``test_lifecycle.py`` covers it.)
"""

import pytest

pytestmark = pytest.mark.trace

from repro.trace import Tracer, utilization_summary
from repro.analysis.sanitizer import sanitized


class Clock:
    def __init__(self):
        self.now = 0.0


def test_strict_mode_allows_pure_flat_api():
    """begin-closes-previous is the documented hot-path idiom."""
    clk = Clock()
    with sanitized():
        tr = Tracer(clk)
    tr.begin(0, "sched")
    clk.now = 2.0
    tr.begin(0, "comm")
    clk.now = 3.0
    tr.end(0)
    cats = {row["track"]: row["categories"] for row in utilization_summary(tr)}
    assert cats[0]["sched"] == 2.0
    assert cats[0]["comm"] == 1.0
