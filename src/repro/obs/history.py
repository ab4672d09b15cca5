"""Flight recorder: periodic metrics snapshots in a rotating JSONL ring.

PR 9's registry answers "what is happening *now*"; nothing retained
history, so a slow drain, a respawn storm, or a throughput cliff left no
trail once the daemon moved on.  :class:`FlightRecorder` fixes that: the
daemon's drain pump appends one **snapshot record** -- the full registry
snapshot plus queue stats and daemon identity -- every ``interval``
seconds to a **size-bounded ring** of JSONL segments, so a long-running
daemon keeps a sliding window of its own recent past at a hard disk-space
ceiling.

Ring layout: the live file is ``path``; on overflow it rotates to
``path.1`` (older segments shift to ``.2``, ``.3``, ...) and the oldest
segment past ``segments`` falls off the end.  Total footprint is bounded
by ~``max_bytes`` no matter how long the daemon runs.  Appends, rotation
and reading are :mod:`repro.jsonl`'s, under its durability contract.

Reading back, :func:`load_history` walks the ring oldest-first and
:class:`HistorySeries` reconstructs time series from the records:

- :meth:`HistorySeries.counter_rate`: per-interval **deltas** of a
  cumulative counter divided by elapsed wall time (events/sec);
- :meth:`HistorySeries.gauge_series`: the gauge's raw curve;
- :meth:`HistorySeries.histogram_quantile`: per-snapshot quantile
  estimates from the bucket counts.

Every snapshot carries the recording daemon's ``pid`` and
``started_unix``; the reader groups records into **lifetimes** on that
identity (and on counters jumping backwards) and never computes a delta
across a restart -- two daemon lives are two series, not one spliced
curve with a negative-rate glitch at the seam.

Like everything in :mod:`repro.obs`, the recorder is a pure side channel:
it reads the registry and the clock, and can change no result bit.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro import jsonl
from repro.obs.metrics import REGISTRY, quantile_from_buckets

__all__ = [
    "FlightRecorder",
    "HISTORY_SCHEMA",
    "HistorySeries",
    "history_files",
    "load_history",
]

HISTORY_SCHEMA = 1

_SNAPSHOTS = REGISTRY.counter(
    "redqaoa_history_snapshots_total", "flight-recorder snapshots appended"
)


class FlightRecorder:
    """Append registry snapshots to a rotating JSONL ring.

    Parameters
    ----------
    path:
        The live segment of the ring (rotated files live next to it).
    interval:
        Seconds between snapshots; :meth:`maybe_record` is cheap to call
        every pump iteration and only appends when this much time passed.
    max_bytes:
        Approximate total ring footprint across all segments.
    segments:
        Ring length (live file + rotated ``.1`` ... ``.N-1``).
    registry:
        The metrics registry to snapshot (default: the process registry).
    meta:
        Extra identity fields stamped into every record -- the daemon
        passes ``pid``/``started_unix`` so readers can detect restarts.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        interval: float = 5.0,
        max_bytes: int = 4_000_000,
        segments: int = 4,
        registry=None,
        meta: dict | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if segments < 1:
            raise ValueError(f"segments must be >= 1, got {segments}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = Path(path)
        self.interval = float(interval)
        self.max_bytes = int(max_bytes)
        self.segments = int(segments)
        self.registry = registry if registry is not None else REGISTRY
        self.meta = dict(meta or {})
        self.meta.setdefault("pid", os.getpid())
        self.meta.setdefault("started_unix", time.time())
        self._segment_bytes = max(1, self.max_bytes // self.segments)
        self._seq = 0
        self._last: float | None = None  # monotonic stamp of the last append

    # -- recording -----------------------------------------------------------

    def due(self) -> bool:
        return self._last is None or time.monotonic() - self._last >= self.interval

    def maybe_record(self, extra: dict | None = None) -> bool:
        """Append a snapshot if ``interval`` elapsed; returns whether it did."""
        if not self.due():
            return False
        self.record(extra)
        return True

    def record(self, extra: dict | None = None) -> dict:
        """Append one snapshot record unconditionally; returns the record."""
        self._seq += 1
        self._last = time.monotonic()
        record = {
            "schema": HISTORY_SCHEMA,
            "kind": "snapshot",
            "seq": self._seq,
            "unix": time.time(),
            **self.meta,
            "snapshot": self.registry.snapshot(),
        }
        if extra:
            record.update(extra)
        jsonl.append(
            self.path, record, max_bytes=self._segment_bytes, keep=self.segments - 1
        )
        _SNAPSHOTS.inc()
        return record


# -- reading ------------------------------------------------------------------


def history_files(path: str | os.PathLike) -> list[Path]:
    """The ring's segments, oldest first (rotated ``.N`` ... ``.1``, live)."""
    return jsonl.segments(path)


def load_history(path: str | os.PathLike) -> list[dict]:
    """All snapshot records across the ring, oldest first.

    Undecodable lines and records with an unknown schema are skipped.
    """
    records: list[dict] = []
    for segment in jsonl.segments(path):
        records.extend(
            record
            for record in jsonl.read(segment)[0]
            if record.get("schema") == HISTORY_SCHEMA
            and record.get("kind") == "snapshot"
        )
    return records


class HistorySeries:
    """Time series reconstructed from flight-recorder snapshot records."""

    def __init__(self, records: list[dict]) -> None:
        self.records = [r for r in records if r.get("kind") == "snapshot"]
        self.lifetimes = self._split_lifetimes(self.records)

    @classmethod
    def load(cls, path: str | os.PathLike) -> HistorySeries:
        return cls(load_history(path))

    @staticmethod
    def _split_lifetimes(records: list[dict]) -> list[list[dict]]:
        """Group consecutive records by daemon identity.

        A new (pid, started_unix) pair -- or a seq counter jumping
        backwards, the footprint of a restart that reused a pid -- starts
        a new lifetime.  Deltas are only ever taken inside one lifetime.
        """
        lifetimes: list[list[dict]] = []
        identity = None
        last_seq = None
        for record in records:
            key = (record.get("pid"), record.get("started_unix"))
            seq = record.get("seq", 0)
            fresh = (
                identity is None
                or key != identity
                or (last_seq is not None and seq <= last_seq and seq == 1)
            )
            if fresh:
                lifetimes.append([])
                identity = key
            lifetimes[-1].append(record)
            last_seq = seq
        return lifetimes

    @property
    def restarts(self) -> int:
        return max(0, len(self.lifetimes) - 1)

    def counter_rate(self, name: str) -> list[tuple[float, float]]:
        """``(unix_midpoint, events_per_second)`` per snapshot interval.

        Rates come from deltas of consecutive snapshots within one
        lifetime; a counter absent from either end contributes nothing.
        Negative deltas (an undetected restart) are dropped rather than
        reported as negative rates.
        """
        points: list[tuple[float, float]] = []
        for lifetime in self.lifetimes:
            for before, after in zip(lifetime, lifetime[1:]):
                elapsed = after.get("unix", 0.0) - before.get("unix", 0.0)
                if elapsed <= 0:
                    continue
                v0 = before["snapshot"].get("counters", {}).get(name)
                v1 = after["snapshot"].get("counters", {}).get(name)
                if v0 is None or v1 is None or v1 < v0:
                    continue
                midpoint = (before["unix"] + after["unix"]) / 2.0
                points.append((midpoint, (v1 - v0) / elapsed))
        return points

    def gauge_series(self, name: str) -> list[tuple[float, float]]:
        """``(unix, value)`` for every snapshot that carries the gauge."""
        points: list[tuple[float, float]] = []
        for record in self.records:
            value = record["snapshot"].get("gauges", {}).get(name)
            if value is not None:
                points.append((record.get("unix", 0.0), float(value)))
        return points

    def histogram_quantile(self, name: str, q: float) -> list[tuple[float, float]]:
        """``(unix, estimate)`` of the cumulative ``q`` quantile per snapshot."""
        points: list[tuple[float, float]] = []
        for record in self.records:
            data = record["snapshot"].get("histograms", {}).get(name)
            if not data:
                continue
            estimate = quantile_from_buckets(data["buckets"], data["counts"], q)
            if estimate is not None:
                points.append((record.get("unix", 0.0), estimate))
        return points
