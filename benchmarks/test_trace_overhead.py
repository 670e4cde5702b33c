"""Tracer neutrality on the ping-pong micro-benchmark.

The tracing subsystem's guarantee (docs/TRACING.md) is
**simulated-time neutrality**: the tracer only reads the clock, so
enabling it must not change any simulated result.  Checked exactly.

What tracing costs in *host* time is measured where every host-time
number is — ``python3 -m bench --trace 1`` reports it as
``trace.tracer_overhead_ratio`` under that harness's noise model
(bench/README.md) — so nothing here reads a host clock.
"""

import pytest

from repro.converse import RunConfig
from repro.harness import pingpong_oneway_us


def _one(trace: bool, nbytes: int = 512, trips: int = 32) -> float:
    config = RunConfig(
        nnodes=2, workers_per_process=4, comm_threads_per_process=1, trace=trace
    )
    return pingpong_oneway_us(config, nbytes, trips=trips)


@pytest.mark.trace
def test_tracer_neutrality_pingpong(benchmark, report):
    lat_off, lat_on = benchmark.pedantic(
        lambda: (_one(False), _one(True)), rounds=1, iterations=1
    )
    report(
        "Tracer neutrality (ping-pong, 512 B, SMP+commthread, 32 trips)\n"
        f"  simulated one-way latency: {lat_off:.3f} us (tracing off)"
        f" / {lat_on:.3f} us (tracing on)"
    )
    # Tracing must never perturb the simulation itself.
    assert lat_on == pytest.approx(lat_off, rel=0, abs=0)
