"""A process-local metrics registry with cheap update handles.

The registry is the single schema every workload reports through: the
campaign runner re-expresses its live telemetry (reps/sec, cache-hit
ratio, ETA) on it, and the ``repro trace`` CLI rebuilds the detection
and message metric families from a spooled trace.  Exposition is dual: :meth:`MetricsRegistry.to_json` for
artifacts and tests, :meth:`MetricsRegistry.render_prometheus` for
anything that scrapes the standard text format.

Handles are deliberately dumb objects -- a counter is one float behind
``inc()`` -- so hot loops can hold them directly instead of paying a
registry lookup per update.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default detection-latency buckets, in heartbeat-interval (phi) units.
#: The paper's rule detects a pre-epoch crash within the execution that
#: follows it, so mass should sit in (0, 2]; the tail buckets catch
#: multi-hop inter-cluster propagation.
PHI_LATENCY_BUCKETS: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

#: Default per-hop delivery-latency buckets, in seconds (the medium's
#: ``max_delay`` defaults to 0.1 s, so these resolve its distribution).
HOP_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.2, 0.5,
)


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ConfigurationError(
            f"metric name must be non-empty [A-Za-z0-9_:]+, got {name!r}"
        )
    if name[0].isdigit():
        raise ConfigurationError(f"metric name cannot start with a digit: {name!r}")
    return name


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge:
    """A value that can go anywhere."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    always exists.  ``observe`` is a bisection over a short tuple -- cheap
    enough to sit on a per-delivery path when tracing is enabled.
    """

    __slots__ = ("name", "help", "buckets", "counts", "inf_count", "sum", "count")

    def __init__(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs >= 1 bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigurationError(
                f"histogram {name} buckets must be strictly increasing: {bounds}"
            )
        if any(math.isinf(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name}: +Inf bucket is implicit, do not list it"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.inf_count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self.inf_count))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metric families; get-or-create handles, dual exposition."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- handle acquisition --------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name)
            metric = self._counters[name] = Counter(_check_name(name), help)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name)
            metric = self._gauges[name] = Gauge(_check_name(name), help)
        return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        help: str = "",
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name)
            metric = self._histograms[name] = Histogram(
                _check_name(name), buckets, help
            )
        elif tuple(float(b) for b in buckets) != metric.buckets:
            raise ConfigurationError(
                f"histogram {name} re-registered with different buckets"
            )
        return metric

    def _check_free(self, name: str) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if name in family:
                raise ConfigurationError(
                    f"metric {name!r} already registered with another type"
                )

    # -- exposition ----------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        return tuple(
            sorted([*self._counters, *self._gauges, *self._histograms])
        )

    def to_json(self) -> Dict[str, object]:
        """Plain-dict snapshot (stable key order) for JSON artifacts."""
        payload: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._counters):
            payload["counters"][name] = self._counters[name].value
        for name in sorted(self._gauges):
            payload["gauges"][name] = self._gauges[name].value
        for name in sorted(self._histograms):
            h = self._histograms[name]
            payload["histograms"][name] = {
                "buckets": list(h.buckets),
                "counts": list(h.counts),
                "inf_count": h.inf_count,
                "sum": h.sum,
                "count": h.count,
            }
        return payload

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (0.0.4).

        Deviations from the format are normalized at render time, keeping
        :meth:`to_json` (and the in-process handle names) unchanged:

        - counters are exposed under the ``_total`` suffix convention --
          a counter registered without it gains the suffix here;
        - HELP text escapes backslash and line feed (``\\\\`` / ``\\n``),
          per the 0.0.4 escaping rules for help lines;
        - each histogram emits its cumulative buckets ending in the
          mandatory ``+Inf`` bucket, then ``_sum``, then ``_count``.
        """
        lines: List[str] = []
        for name in sorted(self._counters):
            metric = self._counters[name]
            exposed = name if name.endswith("_total") else name + "_total"
            if metric.help:
                lines.append(f"# HELP {exposed} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {exposed} counter")
            lines.append(f"{exposed} {_fmt(metric.value)}")
        for name in sorted(self._gauges):
            metric = self._gauges[name]
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(metric.value)}")
        for name in sorted(self._histograms):
            h = self._histograms[name]
            if h.help:
                lines.append(f"# HELP {name} {_escape_help(h.help)}")
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in h.cumulative():
                le = "+Inf" if math.isinf(bound) else _fmt(bound)
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{name}_sum {_fmt(h.sum)}")
            lines.append(f"{name}_count {h.count}")
        return "\n".join(lines) + "\n" if lines else ""

    # -- merging -------------------------------------------------------
    def merge_json(self, payload: Dict[str, object]) -> None:
        """Fold a :meth:`to_json` snapshot into this registry.

        Counters accumulate, gauges take the incoming value (last write
        wins), histograms add element-wise -- re-merged buckets must
        match or a :class:`ConfigurationError` is raised.  This is how
        the dashboard's ``/metrics`` endpoint folds the per-store
        persisted campaign snapshots (``metrics.json``, the JSON dual of
        ``metrics.prom``) into one exposition.
        """
        for name, value in dict(payload.get("counters", {})).items():
            self.counter(name).inc(float(value))
        for name, value in dict(payload.get("gauges", {})).items():
            self.gauge(name).set(float(value))
        for name, data in dict(payload.get("histograms", {})).items():
            h = self.histogram(name, data["buckets"])
            counts = list(data["counts"])
            if len(counts) != len(h.counts):
                raise ConfigurationError(
                    f"histogram {name} snapshot has {len(counts)} buckets, "
                    f"registry has {len(h.counts)}"
                )
            for i, n in enumerate(counts):
                h.counts[i] += int(n)
            h.inf_count += int(data.get("inf_count", 0))
            h.sum += float(data.get("sum", 0.0))
            h.count += int(data.get("count", 0))


def _fmt(value: float) -> str:
    """Prometheus number formatting: integers without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    """0.0.4 HELP-line escaping: backslash first, then line feed."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")
