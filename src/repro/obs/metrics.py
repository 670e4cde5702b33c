"""Serve-layer metrics: Counter / Gauge / Histogram with a registry.

The serve runtime (PR 9) exposed jobs/sec and p50/p99 only as a one-shot
gate number.  This module makes the same quantities *live operational
metrics*: a small Prometheus-flavoured instrument set (labels, explicit
histogram buckets, text exposition) plus JSON snapshots written
atomically via :mod:`repro.ioutil`.

Two deliberate departures from a production metrics client:

* **Histograms retain their samples.**  The serve gate reports *exact*
  nearest-rank percentiles; a bucket-interpolated estimate could
  disagree with the gate number.  Retaining samples lets
  :meth:`Histogram.percentile` return exactly what
  ``repro.harness.servebench`` historically computed inline — the gate
  number and the live metric are now the same code path.  Samples are
  raw doubles in an ``array('d')``, 8 bytes each rather than a list
  slot plus a float object; callers that need bounded memory read the
  bucket counts instead.
* **No global default registry.**  Every registry is instance-owned
  (``JobService.metrics``) — the whole-program isolation audit (G rule
  family) forbids process-wide mutable singletons, and concurrent
  services must not share counters.

Metric naming follows the dotted internal convention (``serve.queue.depth``);
the Prometheus exposition sanitizes to underscores on the way out.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import ioutil

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
]

_INF = float("inf")

#: Default latency buckets (seconds): serve jobs span ~1ms slices to
#: multi-second sharded windows.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 on empty input.

    This is the canonical formula for every percentile this repo
    reports — moved here from ``repro.harness.servebench`` so the gate
    and the live histograms literally share it (satellite: gate numbers
    and metrics can never disagree).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def _check_labels(
    label_names: Tuple[str, ...], labels: Dict[str, Any]
) -> Tuple[str, ...]:
    if tuple(sorted(labels)) != tuple(sorted(label_names)):
        raise ValueError(
            f"labels {sorted(labels)} != declared {sorted(label_names)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Metric:
    """Common shape: a name, help text, declared label names, children.

    A metric with no label names is its own single child; with label
    names, :meth:`labels` vends (and caches) one child per label-value
    tuple.  Children are plain instruments of the same type with no
    labels of their own.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], "_Metric"] = {}

    def _new_child(self) -> "_Metric":
        raise NotImplementedError

    def labels(self, **labels: Any) -> "_Metric":
        if not self.label_names:
            raise ValueError(f"metric {self.name} declares no labels")
        key = _check_labels(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            self._children[key] = child = self._new_child()
        return child

    def _series(self) -> List[Tuple[Tuple[str, ...], "_Metric"]]:
        """(label values, instrument) pairs in deterministic order."""
        if not self.label_names:
            return [((), self)]
        return sorted(self._children.items())

    def _guard_unlabelled(self) -> None:
        if self.label_names:
            raise ValueError(
                f"metric {self.name} is labelled; call .labels(...) first"
            )


class Counter(_Metric):
    """Monotonically increasing count (jobs submitted, cancels, ...)."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self.value = 0.0

    def _new_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        self._guard_unlabelled()
        if amount < 0:
            raise ValueError("Counter.inc() amount must be >= 0")
        self.value += amount


class Gauge(_Metric):
    """Point-in-time value (queue depth, cache hit ratio, ...); unlabelled."""

    kind = "gauge"

    def __init__(self, name: str, help: str):
        super().__init__(name, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram(_Metric):
    """Distribution with explicit buckets *and* retained samples.

    Bucket counts are cumulative (Prometheus ``le`` semantics, with the
    implicit ``+Inf`` bucket equal to the total count); exact
    percentiles come from the retained samples via :func:`percentile`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        label_names: Sequence[str] = (),
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("Histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("Histogram bucket bounds must be unique")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0
        self.samples = array("d")

    def _new_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self.bounds)

    def observe(self, value: float) -> None:
        self._guard_unlabelled()
        value = float(value)
        self.sum += value
        self.count += 1
        self.samples.append(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending at +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((_INF, running + self.bucket_counts[-1]))
        return out

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile over the retained samples."""
        self._guard_unlabelled()
        return percentile(self.samples, q)


# -- exposition --------------------------------------------------------


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        if ch.isalnum() or ch == "_" or ch == ":":
            out.append(ch)
        else:
            out.append("_")
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


def _prom_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(names: Tuple[str, ...], values: Tuple[str, ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_prom_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_float(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Instance-owned collection of metrics with snapshot exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create: the serve
    layer calls them at instrumentation sites without pre-declaring,
    and re-fetching an existing name (with a matching type) returns the
    same instrument.  Exposition is deterministic: metrics sort by name,
    series by label values.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls: type, name: str, *args: Any, **kwargs: Any) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, *args, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        labels: Sequence[str] = (),
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets, labels)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump of every series (deterministic order)."""
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            series = []
            for values, inst in metric._series():
                entry: Dict[str, Any] = {
                    "labels": dict(zip(metric.label_names, values)),
                }
                if isinstance(inst, Histogram):
                    entry["count"] = inst.count
                    entry["sum"] = inst.sum
                    entry["buckets"] = [
                        [b, n] for b, n in zip(inst.bounds, inst.bucket_counts)
                    ]
                    entry["inf"] = inst.bucket_counts[-1]
                    entry["p50"] = percentile(inst.samples, 0.50)
                    entry["p99"] = percentile(inst.samples, 0.99)
                else:
                    entry["value"] = inst.value  # type: ignore[attr-defined]
                series.append(entry)
            out[name] = {
                "kind": metric.kind,
                "help": metric.help,
                "series": series,
            }
        return out

    def prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            pname = _prom_name(metric.name)
            if metric.help:
                lines.append(f"# HELP {pname} {metric.help}")
            lines.append(f"# TYPE {pname} {metric.kind}")
            for values, inst in metric._series():
                labels = _prom_labels(metric.label_names, values)
                if isinstance(inst, Histogram):
                    for bound, cum in inst.cumulative():
                        le = f'le="{_format_float(bound)}"'
                        blabels = _prom_labels(metric.label_names, values, le)
                        lines.append(f"{pname}_bucket{blabels} {cum}")
                    lines.append(
                        f"{pname}_sum{labels} {_format_float(inst.sum)}"
                    )
                    lines.append(f"{pname}_count{labels} {inst.count}")
                else:
                    value = inst.value  # type: ignore[attr-defined]
                    lines.append(f"{pname}{labels} {_format_float(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def write_json(self, path: Any) -> None:
        ioutil.atomic_write_json(
            path, self.snapshot(), indent=2, sort_keys=True, trailing_newline=True
        )

    def write_prometheus(self, path: Any) -> None:
        ioutil.atomic_write_text(path, self.prometheus_text())
