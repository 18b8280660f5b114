"""Counters, gauges and histograms for the virtual data stack.

The paper's workflow layer "monitors their completion" (§5.4); real
virtual-data deployments additionally instrumented every catalog
lookup and wide-area transfer.  :class:`MetricsRegistry` is the
process-local aggregation point: named metrics with label sets,
exportable as a plain dict or JSON, and from that dict as OpenMetrics
text (see :mod:`repro.observability.export`).

All metrics are synchronous in-process objects and **thread-safe**:
the parallel local executor records invocations (and therefore
metrics) from pool threads.  Counters and histograms write to
per-thread shards — each shard is mutated only by its owning thread,
so the hot path (``inc_at``/``observe_at``) takes no lock at all, and
reads merge the shards under the per-metric lock.  A read racing a
writer may lag that writer's newest observation by one update;
totals are exact once writers are joined, which is what the
thread-hammer regression tests assert.  Gauges and the registry's
get-or-create stay fully lock-serialized.  The overhead benchmark
(``benchmarks/test_bench_observability_overhead``) guards the budget.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Iterator, Optional

#: Canonical label encoding: a sorted tuple of (key, value) pairs, so
#: label order at the call site never creates distinct series.
LabelKey = tuple[tuple[str, str], ...]

#: Default latency buckets in seconds: microseconds through minutes,
#: wide enough for both wall-clock catalog ops and simulated transfers.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0,
    10.0, 60.0, 300.0, 1800.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def label_key(labels: dict[str, object]) -> LabelKey:
    """Normalize a label dict into a canonical hashable key."""
    if not labels:
        return ()
    if len(labels) == 1:
        # The overwhelmingly common case on hot paths (one status or
        # op label): skip the sort and generator machinery.
        [(k, v)] = labels.items()
        return ((k, v if type(v) is str else str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def prometheus_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus exposition."""
    return _NAME_RE.sub("_", name)


class Metric:
    """Common shape: a name, help text, and per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def series(self) -> Iterator[tuple[LabelKey, object]]:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._local = threading.local()
        self._shards: list[dict[LabelKey, float]] = []

    def _new_shard(self) -> dict[LabelKey, float]:
        shard: dict[LabelKey, float] = {}
        self._local.shard = shard
        with self._lock:
            self._shards.append(shard)
        return shard

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.inc_at(label_key(labels), amount)

    def inc_at(self, key: LabelKey, amount: float = 1) -> None:
        """Hot-path increment with a precomputed :data:`LabelKey`.

        Writes land in this thread's shard, so no lock is taken.
        """
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._new_shard()
        try:
            shard[key] += amount
        except KeyError:
            shard[key] = amount

    def _merged(self) -> dict[LabelKey, float]:
        with self._lock:
            shards = list(self._shards)
        merged: dict[LabelKey, float] = {}
        for shard in shards:
            # list() snapshots the dict in one GIL-atomic step while
            # the owning thread keeps writing to it.
            for key, value in list(shard.items()):
                merged[key] = merged.get(key, 0) + value
        return merged

    def value(self, **labels: object) -> float:
        return self._merged().get(label_key(labels), 0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._merged().values())

    def series(self) -> Iterator[tuple[LabelKey, float]]:
        yield from sorted(self._merged().items())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(k), "value": v} for k, v in self.series()
            ],
        }


class Gauge(Metric):
    """A value that can go up and down per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        key = label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(label_key(labels), 0)

    def series(self) -> Iterator[tuple[LabelKey, float]]:
        with self._lock:
            snapshot = sorted(self._values.items())
        yield from snapshot

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(k), "value": v} for k, v in self.series()
            ],
        }


class HistogramSeries:
    """Bucket counts, sum and count for one label set."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        #: Per-bucket (non-cumulative) counts; final slot is +Inf.
        self.bucket_counts = [0] * (n_buckets + 1)
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket distribution of observed values.

    Buckets are upper bounds (``le`` semantics, like Prometheus): an
    observation lands in the first bucket whose bound is >= the value;
    values above every bound land in the implicit +Inf bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[tuple[float, ...]] = None,
    ):
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = bounds
        self._local = threading.local()
        self._shards: list[dict[LabelKey, HistogramSeries]] = []

    def _new_shard(self) -> dict[LabelKey, HistogramSeries]:
        shard: dict[LabelKey, HistogramSeries] = {}
        self._local.shard = shard
        with self._lock:
            self._shards.append(shard)
        return shard

    def observe(self, value: float, **labels: object) -> None:
        self.observe_at(label_key(labels), value)

    def observe_at(self, key: LabelKey, value: float) -> None:
        """Hot-path observation with a precomputed :data:`LabelKey`.

        Writes land in this thread's shard, so no lock is taken.
        ``bisect_left`` finds the first bound >= value — Prometheus
        ``le`` semantics; past-the-end means the implicit +Inf bucket.
        """
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._new_shard()
        series = shard.get(key)
        if series is None:
            series = shard[key] = HistogramSeries(len(self.buckets))
        series.bucket_counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1

    def _merged(self) -> dict[LabelKey, HistogramSeries]:
        with self._lock:
            shards = list(self._shards)
        merged: dict[LabelKey, HistogramSeries] = {}
        for shard in shards:
            for key, series in list(shard.items()):
                target = merged.get(key)
                if target is None:
                    target = merged[key] = HistogramSeries(
                        len(self.buckets)
                    )
                for i, n in enumerate(list(series.bucket_counts)):
                    target.bucket_counts[i] += n
                target.sum += series.sum
                target.count += series.count
        return merged

    def count(self, **labels: object) -> int:
        series = self._merged().get(label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        series = self._merged().get(label_key(labels))
        return series.sum if series else 0.0

    def cumulative_buckets(self, **labels: object) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        series = self._merged().get(label_key(labels))
        counts = (
            list(series.bucket_counts)
            if series
            else [0] * (len(self.buckets) + 1)
        )
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip((*self.buckets, float("inf")), counts):
            running += n
            out.append((bound, running))
        return out

    def percentile(self, q: float, **labels: object) -> Optional[float]:
        """Estimated ``q``-th percentile (0..100) from bucket counts.

        Linear interpolation inside the containing bucket, with
        Prometheus ``histogram_quantile`` semantics at the edges: the
        first bucket interpolates from 0, and observations landing in
        the implicit +Inf bucket clamp to the highest finite bound
        (the histogram cannot resolve beyond it).  Returns ``None``
        for a label set with no observations.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        series = self._merged().get(label_key(labels))
        if series is None or series.count == 0:
            return None
        counts = series.bucket_counts
        total = series.count
        rank = (q / 100.0) * total
        running = 0.0
        for i, n in enumerate(counts):
            previous = running
            running += n
            if running >= rank and n:
                if i >= len(self.buckets):
                    # +Inf bucket: clamp to the largest finite bound.
                    return self.buckets[-1]
                lower = self.buckets[i - 1] if i else 0.0
                upper = self.buckets[i]
                fraction = (rank - previous) / n if n else 0.0
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]

    def series(self) -> Iterator[tuple[LabelKey, HistogramSeries]]:
        yield from sorted(self._merged().items(), key=lambda kv: kv[0])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "series": [
                {
                    "labels": dict(k),
                    "bucket_counts": list(s.bucket_counts),
                    "sum": s.sum,
                    "count": s.count,
                }
                for k, s in self.series()
            ],
        }


class MetricsRegistry:
    """Named metrics, get-or-create, with one namespace per run.

    Get-or-create is serialized by a registry lock so two pool threads
    asking for the same name always share one metric object.
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        # Lock-free fast path: dict reads are GIL-atomic and metrics
        # are never removed except by reset(), so a hit needs no lock.
        # Every count()/observe() resolves its metric here, which makes
        # this read the hottest registry operation by far.
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help=help, **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[tuple[float, ...]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            metric = self.get(name)
            if metric is not None:
                yield metric

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict[str, dict]:
        """All metrics as a JSON-serializable dict, keyed by name."""
        return {
            metric.name: metric.to_dict() for metric in self
        }


def _label_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt(value: float) -> str:
    """Render numbers the way Prometheus clients do: ints stay ints."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
