"""Low-overhead metrics registry: counters, gauges, log-bucketed histograms.

The registry is the aggregate side of the observability layer (the trace
is the event side): named metrics with label sets, cheap to update on
hot paths, exported as Prometheus text or rendered by ``repro report``.

* :class:`Counter` — monotone float accumulator (bytes, lifecycle events).
* :class:`Gauge` — last-write-wins value (leaf count, buffer fill).
* Histograms are :class:`~repro.perf.histogram.LogHistogram`, the repo's
  one latency store: the executor records each op straight into its
  ``repro_op_latency_ns`` series, so a histogram's count is the op count
  and no counter repeats it.

Metric identity is ``(name, sorted label items)``, Prometheus-style:
``registry.histogram("repro_op_latency_ns", kind="read")`` and the same
call with ``kind="insert"`` are distinct time series of one metric family.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Tuple

from repro.perf.histogram import LogHistogram

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_LabelKey = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        self.value += n


class Gauge:
    """A value that can go up and down; last write wins."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class MetricsRegistry:
    """Registered metric families, each a ``labels -> instrument`` map."""

    def __init__(self) -> None:
        # name -> (kind, {label_key: instrument}); insertion-ordered.
        self._families: Dict[str, Tuple[str, Dict[_LabelKey, object]]] = {}

    def _get(self, kind: str, factory, name: str, labels: Dict[str, str]):
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"bad label name {label!r}")
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = (kind, {})
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family[0]}, not {kind}"
            )
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        instrument = family[1].get(key)
        if instrument is None:
            instrument = family[1][key] = factory()
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels) -> LogHistogram:
        return self._get("histogram", LogHistogram, name, labels)

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one (cross-process merge).

        Counters and histograms accumulate; gauges are last-write-wins,
        so the other registry's value overwrites.  This is how the
        parallel engine's per-worker registries land in the parent at
        shutdown — series identity is ``(name, labels)``, so workers that
        label their series with ``worker=<id>`` stay distinct while
        unlabelled families simply sum.
        """
        for name, kind, labels, instrument in other.collect():
            if kind == "counter":
                self.counter(name, **labels).inc(instrument.value)
            elif kind == "gauge":
                self.gauge(name, **labels).set(instrument.value)
            else:
                self.histogram(name, **labels).merge(instrument)

    def collect(self) -> Iterator[Tuple[str, str, Dict[str, str], object]]:
        """Yield ``(name, kind, labels, instrument)`` for every series."""
        for name, (kind, series) in self._families.items():
            for key, instrument in sorted(series.items()):
                yield name, kind, dict(key), instrument

    def __len__(self) -> int:
        return sum(len(series) for _, series in self._families.values())
