"""Labelled time-series metrics registry (trace record type ``metric``).

Every quantity of the solve → adapt → balance cycle is a first-class time
series: samples are keyed by ``(name, labels, cycle, rank)`` — *what* was
observed, *when* (which adaptation cycle) and *where* (which virtual
rank) — and carry the virtual timestamp at which they were recorded.

Naming convention
-----------------
``repro.<subsystem>.<quantity>`` — e.g. ``repro.partition.imbalance``,
``repro.reassign.total_v``, ``repro.remap.words_moved``.  Qualifiers
that are *dimensions* of the same quantity go into labels
(``method="greedy"``, ``when="before"``, ``phase="remap"``), never into
the name.

Kinds
-----
``counter``
    Monotone accumulation: recording again under the same key *adds*.
``gauge``
    Last-write-wins observation of a level.
``histogram``
    Every observation under a key is kept (a list of values), for
    quantities sampled many times per cycle (e.g. solver residuals).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

__all__ = ["KINDS", "MetricSample", "MetricsRegistry"]

#: Valid metric kinds, in the order they serialise.
KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class MetricSample:
    """One point (or, for histograms, one bag of points) of a metric series."""

    name: str
    kind: str  #: one of :data:`KINDS`
    value: float | list
    labels: tuple[tuple[str, str], ...] = ()  #: sorted (key, value) pairs
    cycle: int | None = None  #: adaptation cycle the sample belongs to
    rank: int | None = None  #: virtual processor, where one applies
    v_time: float = 0.0  #: virtual clock when (last) recorded

    @property
    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


def _freeze_labels(labels: dict | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Counter/gauge/histogram samples keyed by ``(name, labels, cycle, rank)``.

    Insertion order is preserved (stable export).  A name is bound to one
    kind and one label keyset for the lifetime of the registry: a kind
    mismatch raises, a label-keyset mismatch (two series that would
    silently fail to align) warns once per name.
    """

    def __init__(self):
        self._samples: dict[tuple, MetricSample] = {}
        self._kind: dict[str, str] = {}
        self._labelsets: dict[str, frozenset] = {}
        self._warned: set[str] = set()

    def __len__(self) -> int:
        return len(self._samples)

    # --- recording ---------------------------------------------------------

    def record(
        self,
        name: str,
        value,
        kind: str = "gauge",
        labels: dict | None = None,
        cycle: int | None = None,
        rank: int | None = None,
        v_time: float = 0.0,
    ) -> MetricSample:
        """Record one sample; returns the (possibly merged) stored sample."""
        frozen = _freeze_labels(labels)
        self._bind(name, kind, frozenset(k for k, _v in frozen))
        key = (name, frozen, cycle, rank)
        prev = self._samples.get(key)
        if kind == "histogram":
            values = list(prev.value) if prev is not None else []
            values.extend(value if isinstance(value, (list, tuple)) else [value])
            stored = values
        elif kind == "counter":
            stored = float(value) + (float(prev.value) if prev is not None else 0.0)
        else:  # gauge: last write wins
            stored = float(value)
        sample = MetricSample(
            name=name, kind=kind, value=stored, labels=frozen,
            cycle=cycle, rank=rank, v_time=v_time,
        )
        self._samples[key] = sample
        return sample

    def _bind(self, name: str, kind: str, keyset: frozenset) -> None:
        """Hold ``name`` to one kind (raises) and one label keyset (warns
        once per name)."""
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; choose from {KINDS}")
        bound = self._kind.setdefault(name, kind)
        if bound != kind:
            raise ValueError(
                f"metric {name!r} is a {bound}, cannot record it as a {kind}"
            )
        seen = self._labelsets.setdefault(name, keyset)
        if seen != keyset and name not in self._warned:
            self._warned.add(name)
            warnings.warn(
                f"metric {name!r} recorded with label keys "
                f"{sorted(keyset)} after {sorted(seen)}; series with "
                "different label keys will not align",
                RuntimeWarning, stacklevel=4,
            )

    # --- queries -----------------------------------------------------------

    def samples(self) -> list[MetricSample]:
        """All stored samples, in first-recorded order."""
        return list(self._samples.values())

    def _match(self, name: str, labels: dict | None, ranked: bool):
        """Samples of ``name`` (with exactly ``labels``, unless None), over
        every cycle; all ranks if ``ranked``, else only rank-less ones."""
        frozen = _freeze_labels(labels) if labels is not None else None
        for s in self._samples.values():
            if s.name != name:
                continue
            if frozen is not None and s.labels != frozen:
                continue
            if not ranked and s.rank is not None:
                continue
            yield s

    def series(self, name: str,
               labels: dict | None = None) -> dict[int, float | list]:
        """``{cycle: value}`` for one (name, labels) over all cycles, from
        the samples without a rank.

        With ``labels=None`` the label set is not filtered (useful for
        unlabelled metrics); samples without a cycle are skipped.
        """
        out: dict[int, float | list] = {}
        for s in self._match(name, labels, ranked=False):
            if s.cycle is not None:
                out[s.cycle] = s.value
        return dict(sorted(out.items()))

    def per_rank(self, name: str,
                 labels: dict | None = None) -> dict[int, float]:
        """``{rank: value}`` summed over cycles."""
        out: dict[int, float] = {}
        for s in self._match(name, labels, ranked=True):
            if s.rank is None:
                continue
            v = sum(s.value) if isinstance(s.value, list) else float(s.value)
            out[s.rank] = out.get(s.rank, 0.0) + v
        return dict(sorted(out.items()))

    def _values(self, name: str, labels: dict | None):
        for s in self._match(name, labels, ranked=True):
            if isinstance(s.value, list):
                yield from (float(v) for v in s.value)
            else:
                yield float(s.value)

    def total(self, name: str) -> float:
        """Sum of every sample's value under ``name`` (0.0 when none)."""
        return sum(self._values(name, None))

    def totals(self) -> dict[str, float]:
        """``{name: sum of every sample}`` per counter-kind metric, by name
        — the run's whole-run counters with labels, cycles and ranks
        summed out."""
        out: dict[str, float] = {}
        for s in self.samples():
            if s.kind == "counter":
                out[s.name] = out.get(s.name, 0.0) + s.value
        return dict(sorted(out.items()))

    def max_value(self, name: str, labels: dict | None = None) -> float | None:
        """Max over every matching sample's value (None when none match)."""
        vals = list(self._values(name, labels))
        return max(vals) if vals else None

    def cycles(self) -> list[int]:
        """Sorted distinct cycle ids seen across all samples."""
        return sorted({
            s.cycle for s in self._samples.values() if s.cycle is not None
        })
