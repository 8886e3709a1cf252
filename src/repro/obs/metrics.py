"""A process-local metrics registry with Prometheus text export.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically non-decreasing count.
* :class:`Gauge` — a value that can go up and down.
* :class:`Histogram` — fixed-bucket distribution with ``_bucket``,
  ``_sum`` and ``_count`` series on export.

Instruments are owned by a :class:`MetricsRegistry` and addressed by a
*family name* plus an optional label set; ``registry.counter(name,
labels=...)`` is get-or-create, so call sites never need module-level
wiring.  :func:`MetricsRegistry.render_prometheus` emits the standard
text exposition format (``text/plain; version=0.0.4``).

Everything is thread-safe: each instrument carries its own lock, and
the registry serializes family creation.  The module-level
:func:`get_registry` default registry collects pipeline-wide phase
histograms; components that need isolated counts (one service
instance per test, for example) create private registries.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "render_prometheus",
]

LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): 100µs .. 30s, roughly log-spaced.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
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
    30.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    items = []
    for name, value in labels.items():
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid metric label name: {name!r}")
        items.append((name, str(value)))
    return tuple(sorted(items))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(key: LabelKey, extra: LabelKey = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically non-decreasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can be set, incremented, and decremented."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram (cumulative buckets on export only)."""

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self._lock = threading.Lock()
        self.buckets = bounds
        # one slot per finite bound plus the implicit +Inf overflow slot
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Tuple[Tuple[int, ...], float, int]:
        """``(per-bucket counts incl. +Inf, sum, count)`` atomically."""
        with self._lock:
            return tuple(self._counts), self._sum, self._count


Instrument = Union[Counter, Gauge, Histogram]


class _Family:
    """All instruments sharing one metric name, keyed by label set."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.series: Dict[LabelKey, Instrument] = {}


class MetricsRegistry:
    """A named collection of metric families with text export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- instrument factories (get-or-create) ---------------------------

    def counter(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Counter:
        instrument = self._series(name, "counter", labels, help)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        instrument = self._series(name, "gauge", labels, help)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        instrument = self._series(name, "histogram", labels, help, buckets)
        assert isinstance(instrument, Histogram)
        return instrument

    def _series(
        self,
        name: str,
        kind: str,
        labels: Optional[Mapping[str, str]],
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            if help_text and not family.help:
                family.help = help_text
            instrument = family.series.get(key)
            if instrument is None:
                if kind == "counter":
                    instrument = Counter()
                elif kind == "gauge":
                    instrument = Gauge()
                else:
                    instrument = Histogram(buckets)
                family.series[key] = instrument
            return instrument

    # -- introspection --------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{label="v"} -> value`` map (histograms: ``_count``)."""
        out: Dict[str, float] = {}
        for family, key, instrument in self._iter_series():
            label_text = _render_labels(key)
            if isinstance(instrument, Histogram):
                _, total, count = instrument.snapshot()
                out[f"{family.name}_count{label_text}"] = float(count)
                out[f"{family.name}_sum{label_text}"] = total
            else:
                out[f"{family.name}{label_text}"] = instrument.value
        return out

    def series(self, name: str) -> Dict[LabelKey, float]:
        """Current values of one counter or gauge family, by label set.

        Keys are the series' sorted ``(label, value)`` pairs (``()``
        for the unlabelled series), so ``dict(key)["reason"]`` reads a
        label back without parsing rendered names.  A family nothing
        has registered yet reads as empty.
        """
        with self._lock:
            family = self._families.get(name)
            items = list(family.series.items()) if family is not None else []
        return {key: instrument.value for key, instrument in items}

    def _iter_series(self) -> Iterator[Tuple[_Family, LabelKey, Instrument]]:
        with self._lock:
            families = [
                (family, list(family.series.items()))
                for family in self._families.values()
            ]
        for family, series in families:
            for key, instrument in series:
                yield family, key, instrument

    # -- Prometheus text exposition -------------------------------------

    def render_prometheus(self) -> str:
        """The registry in the text exposition format (version 0.0.4)."""
        lines = []
        with self._lock:
            families = [
                (family, list(family.series.items()))
                for family in sorted(
                    self._families.values(), key=lambda f: f.name
                )
            ]
        for family, series in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, instrument in sorted(series, key=lambda item: item[0]):
                if isinstance(instrument, Histogram):
                    counts, total, count = instrument.snapshot()
                    cumulative = 0
                    for bound, bucket_count in zip(
                        instrument.buckets, counts
                    ):
                        cumulative += bucket_count
                        le = (("le", _format_value(bound)),)
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_render_labels(key, le)} {cumulative}"
                        )
                    cumulative += counts[-1]
                    inf = (("le", "+Inf"),)
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_render_labels(key, inf)} {cumulative}"
                    )
                    lines.append(
                        f"{family.name}_sum{_render_labels(key)} "
                        f"{_format_value(total)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(key)} {count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(key)} "
                        f"{_format_value(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (engine/core phase metrics)."""
    return _DEFAULT_REGISTRY


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Concatenate the exposition of *registries* (default one if none).

    Families must not repeat across the rendered registries; callers
    keep that property by namespacing (the default registry owns
    ``repro_phase_*`` / ``repro_program_p_*``, service registries own
    request/cache/compute families).
    """
    if not registries:
        registries = (_DEFAULT_REGISTRY,)
    return "".join(r.render_prometheus() for r in registries)
