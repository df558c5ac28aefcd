"""Process-wide metrics registry (counters, gauges, histograms).

Every subsystem that does measurable work — MBI build/seal/merge, block
selection, graph search, NNDescent construction, the baselines — reports
into one :class:`MetricsRegistry` so benchmarks and tests can assert on
*work done* rather than wall-clock noise.  The registry is deliberately
zero-dependency and thread-safe (MBI builds blocks and answers batch
queries from thread pools).

Naming convention (documented in ``docs/observability.md``)::

    <subsystem>_<quantity>_<unit>

* ``subsystem`` — ``mbi``, ``selection``, ``graph_search``, ``graph_build``,
  ``baseline_bsbf``, ``baseline_sf``, ...
* ``quantity`` — what is being counted (``queries``, ``blocks_built``,
  ``distance_evals``, ``nodes_visited``...)
* ``unit`` — ``total`` for monotonically increasing counters, ``seconds``
  for cumulative time, bare names for gauges, ``_seconds``/``_count``
  suffixes come from histogram rendering.

Example::

    from repro.observability import get_registry

    registry = get_registry()
    before = registry.counter("mbi_search_distance_evals_total").value
    index.search(query, k=10)
    spent = registry.counter("mbi_search_distance_evals_total").value - before

Metric objects are stable for the registry's lifetime: :meth:`~MetricsRegistry.reset`
zeroes values in place, so references held by instrumented modules stay
valid.  Use a fresh :class:`MetricsRegistry` for fully isolated unit tests.

The registry has one state format, :meth:`~MetricsRegistry.export_state`:
:meth:`~MetricsRegistry.restore_state` takes it back,
:func:`render_prometheus` renders it, and :func:`aggregate_states` merges
many of them into one fleet view.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterable, Mapping, Sequence

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Default histogram bucket upper bounds (seconds-flavoured log scale).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
)


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} violates the naming convention "
            "(lowercase snake_case, starting with a letter)"
        )
    return name


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    ``bounds`` are the ascending finite upper bounds; ``counts`` are the
    **per-bucket** (non-cumulative) counts with one extra trailing entry
    for the implicit ``+inf`` overflow bucket.  The estimate linearly
    interpolates within the bucket the quantile falls into, assuming
    observations are uniformly spread across it (the same convention as
    Prometheus's ``histogram_quantile``).  The first bucket's lower edge
    is taken as 0; a quantile landing in the overflow bucket collapses to
    the highest finite bound, since the bucket has no upper edge to
    interpolate toward.  An empty histogram yields NaN.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]; got {q}")
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"expected {len(bounds) + 1} bucket counts "
            f"(finite bounds + overflow), got {len(counts)}"
        )
    total = sum(counts)
    if total == 0:
        return math.nan
    rank = q * total
    cumulative = 0
    for i, n in enumerate(counts):
        prev = cumulative
        cumulative += n
        if cumulative >= rank:
            if i == len(bounds):
                # Overflow bucket: no upper edge to interpolate toward.
                return bounds[-1]
            hi = bounds[i]
            lo = bounds[i - 1] if i > 0 else min(0.0, hi)
            if n == 0:
                return hi
            return lo + (hi - lo) * (rank - prev) / n
    return bounds[-1]  # pragma: no cover - cumulative >= rank always hits


class Counter:
    """A monotonically increasing counter.

    Attributes:
        name: Registry name (``*_total`` by convention).
        help: One-line description.
    """

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def _export(self) -> dict[str, object]:
        return {"kind": "counter", "help": self.help, "value": self._value}

    def _restore(self, entry: Mapping[str, object]) -> None:
        with self._lock:
            self._value = float(entry["value"])

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value:g})"


class Gauge:
    """A value that can go up and down (e.g. current block count).

    Besides the instantaneous value, a gauge tracks its **high-water mark**
    (:attr:`peak`): the largest value ever set.  Peak tracking is what lets
    the tier cache assert *peak resident bytes stayed under budget* after a
    run, without sampling the gauge from a second thread.
    """

    __slots__ = ("name", "help", "_lock", "_value", "_peak")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0
        self._peak = 0.0

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    @property
    def peak(self) -> float:
        """Largest value the gauge has held since creation/reset."""
        return self._peak

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)
            if self._value > self._peak:
                self._peak = self._value

    def observe(self, value: float) -> None:
        """Alias of :meth:`set` — gauges record observations of a level."""
        self.set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount
            if self._value > self._peak:
                self._peak = self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._peak = 0.0

    def _export(self) -> dict[str, object]:
        with self._lock:
            return {
                "kind": "gauge",
                "help": self.help,
                "value": self._value,
                "peak": self._peak,
            }

    def _restore(self, entry: Mapping[str, object]) -> None:
        with self._lock:
            self._value = float(entry["value"])
            self._peak = float(entry["peak"])

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value:g}, peak={self._peak:g})"


class Histogram:
    """A fixed-bucket histogram (cumulative bucket counts, like Prometheus).

    Attributes:
        name: Registry name.
        help: One-line description.
        bounds: Ascending bucket upper bounds; an implicit ``+inf`` bucket
            catches everything above the last bound.
    """

    __slots__ = ("name", "help", "bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram buckets must be non-empty and ascending: {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # Bisect without importing bisect: bucket lists are tiny.
        i = 0
        for bound in self.bounds:
            if value <= bound:
                break
            i += 1
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (NaN when empty)."""
        return self._sum / self._count if self._count else math.nan

    def buckets(self) -> dict[float, int]:
        """Cumulative count per upper bound (including ``+inf``)."""
        with self._lock:
            counts = list(self._counts)
        cumulative: dict[float, int] = {}
        running = 0
        for bound, n in zip((*self.bounds, math.inf), counts):
            running += n
            cumulative[bound] = running
        return cumulative

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (see :func:`quantile_from_buckets`).

        NaN when the histogram is empty; observations past the last finite
        bound collapse to that bound — fixed buckets cannot resolve the
        tail beyond them.
        """
        with self._lock:
            counts = list(self._counts)
        return quantile_from_buckets(self.bounds, counts, q)

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0

    def _export(self) -> dict[str, object]:
        with self._lock:
            return {
                "kind": "histogram",
                "help": self.help,
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def _restore(self, entry: Mapping[str, object]) -> None:
        counts = entry["counts"]
        if len(counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram {self.name} state has {len(counts)} buckets, "
                f"expected {len(self.bounds) + 1}"
            )
        with self._lock:
            self._counts = list(counts)
            self._sum = float(entry["sum"])
            self._count = int(entry["count"])

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self._count}, sum={self._sum:g})"


class MetricsRegistry:
    """Thread-safe, zero-dependency registry of named metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same name return the same object, so instrumented modules can
    cache metric handles at import time.  Registering the same name as two
    different metric kinds raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind: type, factory):
        _validate_name(name)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif type(metric) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, help, buckets)
        )

    def names(self) -> tuple[str, ...]:
        """Sorted names of all registered metrics."""
        with self._lock:
            return tuple(sorted(self._metrics))

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The metric registered under ``name``, or None."""
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """Point-in-time values of every metric, read off :meth:`export_state`.

        Counters and gauges map to their float value; histograms map to a
        dict with ``count``, ``sum``, and ``mean``.
        """
        out: dict[str, float | dict[str, float]] = {}
        for name, entry in self.export_state().items():
            if entry["kind"] == "histogram":
                count, total = entry["count"], entry["sum"]
                out[name] = {
                    "count": float(count),
                    "sum": total,
                    "mean": total / count if count else math.nan,
                }
            else:
                out[name] = entry["value"]
        return out

    def reset(self) -> None:
        """Zero every metric in place (registrations and handles survive)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()

    def export_state(self) -> dict[str, dict[str, object]]:
        """The registry's one state format: a JSON-safe dump of every metric.

        Each entry is self-describing — its ``kind``, ``help`` text, and
        full state (a histogram's exact bucket counts included) in JSON
        types only.  :meth:`restore_state` takes it back in the same
        process, a router scrapes it from workers over HTTP and merges it
        with :func:`aggregate_states`, and :func:`render_prometheus`
        renders it as text.
        """
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name]._export() for name in sorted(metrics)}

    def restore_state(self, state: Mapping[str, Mapping[str, object]]) -> None:
        """Restore every metric to an :meth:`export_state` dump, in place.

        Metrics registered *after* the dump are reset to zero; metric
        objects themselves survive (handles cached by instrumented modules
        stay valid).  This is the save/restore hook the shared
        ``_metrics_isolation`` pytest fixture uses so tests stop leaking
        counter state across modules.
        """
        with self._lock:
            metrics = dict(self._metrics)
        for name, metric in metrics.items():
            if name in state:
                metric._restore(state[name])
            else:
                metric._reset()


def _prom_float(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return f"{value:g}"


def render_prometheus(state: dict[str, dict[str, object]]) -> str:
    """Render an :meth:`MetricsRegistry.export_state` dump in Prometheus
    text exposition format (version 0.0.4).

    Counters and gauges become single samples with ``# HELP``/``# TYPE``
    headers; histograms expand to cumulative ``_bucket{le="..."}`` series
    (always ending in ``le="+Inf"``) plus ``_sum`` and ``_count``.  Gauge
    peaks are a local extension and are **not** exported — Prometheus has
    no such series type.  Works on both live registries and aggregated
    fleet states, since both share the export-state schema.
    """
    lines: list[str] = []
    for name in sorted(state):
        entry = state[name]
        kind = entry["kind"]
        help_text = str(entry.get("help") or "").replace("\n", " ")
        if kind == "counter":
            lines.append(f"# HELP {name} {help_text}".rstrip())
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_float(float(entry['value']))}")
        elif kind == "gauge":
            lines.append(f"# HELP {name} {help_text}".rstrip())
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_float(float(entry['value']))}")
        elif kind == "histogram":
            lines.append(f"# HELP {name} {help_text}".rstrip())
            lines.append(f"# TYPE {name} histogram")
            bounds = [float(b) for b in entry["bounds"]]
            counts = [int(c) for c in entry["counts"]]
            running = 0
            for bound, n in zip(bounds, counts):
                running += n
                lines.append(
                    f'{name}_bucket{{le="{_prom_float(bound)}"}} {running}'
                )
            running += counts[-1]
            lines.append(f'{name}_bucket{{le="+Inf"}} {running}')
            lines.append(f"{name}_sum {_prom_float(float(entry['sum']))}")
            lines.append(f"{name}_count {int(entry['count'])}")
        else:
            raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
    return "\n".join(lines) + "\n" if lines else ""


def aggregate_states(
    states: Iterable[Mapping[str, Mapping[str, object]] | None],
) -> dict[str, dict[str, object]]:
    """Merge :meth:`MetricsRegistry.export_state` dumps into one fleet view.

    Counters and gauges sum (gauge peaks too — the fleet peak of a
    resident-bytes gauge is conservatively bounded by the sum of
    per-process peaks).  Histograms with equal bucket bounds merge
    bucket-wise; a histogram whose bounds disagree with the first-seen
    layout folds its entire count into the overflow bucket rather than
    inventing counts in buckets it never had (sum/count stay exact, only
    the bucket shape degrades).  ``None`` entries are skipped — that is
    the sentinel an in-process transport returns when its "worker"
    already shares the router's registry, which keeps shared-registry
    deployments from double counting.  Registering the same name as two
    different kinds across states raises ValueError.
    """
    merged: dict[str, dict[str, object]] = {}
    for state in states:
        if state is None:
            continue
        for name, entry in state.items():
            kind = entry["kind"]
            current = merged.get(name)
            if current is None:
                copied = dict(entry)
                if kind == "histogram":
                    copied["bounds"] = list(entry["bounds"])
                    copied["counts"] = list(entry["counts"])
                merged[name] = copied
                continue
            if current["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} is a {current['kind']} in one worker "
                    f"and a {kind} in another; refusing to merge"
                )
            if kind == "counter":
                current["value"] = float(current["value"]) + float(
                    entry["value"]
                )
            elif kind == "gauge":
                current["value"] = float(current["value"]) + float(
                    entry["value"]
                )
                current["peak"] = float(current.get("peak", 0.0)) + float(
                    entry.get("peak", 0.0)
                )
            elif kind == "histogram":
                current["sum"] = float(current["sum"]) + float(entry["sum"])
                current["count"] = int(current["count"]) + int(entry["count"])
                if list(current["bounds"]) == list(entry["bounds"]):
                    current["counts"] = [
                        a + b
                        for a, b in zip(current["counts"], entry["counts"])
                    ]
                else:
                    # Incompatible layouts: keep the first-seen bounds and
                    # fold the stranger's observations into +inf.
                    current["counts"][-1] += sum(entry["counts"])
            else:
                raise ValueError(
                    f"unknown metric kind {kind!r} for {name!r}"
                )
    return merged


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every subsystem reports into."""
    return _DEFAULT_REGISTRY
