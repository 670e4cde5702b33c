"""Host-side observability: engine hotspot profiler + serve metrics.

Two complementary layers (docs/OBSERVABILITY.md):

* :mod:`repro.obs.profiler` — a deterministic, opt-in hotspot profiler
  for the simulation engine's dispatch loop.  Cycle-neutral when off
  (``Environment.profiler is None``), and the profiled run's simulated
  times and event count are identical to an unprofiled run's — the
  bench gate (``make bench-gate``) enforces it; the overhead when on is
  measured by ``python3 -m bench`` (``obs.profiler_overhead_ratio``).
* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram instruments with
  labels, explicit buckets, JSON snapshots and Prometheus text
  exposition, instrumenting the serve runtime (``JobService.metrics``).

Everything here reads host wall time by design and never feeds it back
into scheduling (``wallclock-allow`` in pyproject justifies the D1
exemption).
"""

from .exporters import (
    compare_profiles,
    format_collapsed,
    format_compare,
    format_hotspots,
    load_profile,
    write_collapsed,
    write_profile_json,
)
from .metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from .profiler import EngineProfiler, Profile, ProfileSession, owner_name

__all__ = [
    "Counter",
    "EngineProfiler",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "Profile",
    "ProfileSession",
    "compare_profiles",
    "format_collapsed",
    "format_compare",
    "format_hotspots",
    "load_profile",
    "owner_name",
    "percentile",
    "write_collapsed",
    "write_profile_json",
]
