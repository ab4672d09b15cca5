"""Tests for the flight recorder and its history reader (repro.obs.history)."""

import json
import time

import pytest

from repro.obs.history import (
    FlightRecorder,
    HistorySeries,
    history_files,
    load_history,
)
from repro.obs.metrics import MetricsRegistry


def _registry() -> MetricsRegistry:
    return MetricsRegistry()


def _recorder(tmp_path, registry=None, **kwargs):
    kwargs.setdefault("interval", 0.001)
    return FlightRecorder(
        tmp_path / "history.jsonl",
        registry=registry if registry is not None else _registry(),
        **kwargs,
    )


class TestFlightRecorder:
    def test_records_carry_schema_identity_and_snapshot(self, tmp_path):
        registry = _registry()
        registry.counter("jobs_total").inc(3)
        rec = _recorder(tmp_path, registry, meta={"pid": 42, "started_unix": 7.0})
        record = rec.record({"queue": {"depth": 5}})
        assert record["schema"] == 1
        assert record["kind"] == "snapshot"
        assert record["seq"] == 1
        assert record["pid"] == 42 and record["started_unix"] == 7.0
        assert record["snapshot"]["counters"]["jobs_total"] == 3.0
        assert record["queue"] == {"depth": 5}
        # and the on-disk line round-trips to the same record
        line = (tmp_path / "history.jsonl").read_text().strip()
        assert json.loads(line) == json.loads(json.dumps(record))

    def test_maybe_record_honors_interval(self, tmp_path):
        rec = _recorder(tmp_path, interval=3600.0)
        assert rec.maybe_record() is True  # first append is always due
        assert rec.maybe_record() is False
        assert len(load_history(rec.path)) == 1

    def test_first_record_is_due_on_a_freshly_booted_host(self, tmp_path, monkeypatch):
        # monotonic() counts from boot: under a minute of uptime must not
        # read as "the last snapshot was taken a moment ago".
        monkeypatch.setattr(time, "monotonic", lambda: 0.5)
        rec = _recorder(tmp_path, interval=5.0)
        assert rec.maybe_record() is True
        assert rec.maybe_record() is False

    def test_ring_rotates_and_bounds_total_size(self, tmp_path):
        registry = _registry()
        # Each record is a few hundred bytes; a tiny ring forces rotation.
        rec = _recorder(tmp_path, registry, max_bytes=3000, segments=3)
        for _ in range(60):
            rec.record()
        files = history_files(rec.path)
        assert [f.name for f in files][-1] == "history.jsonl"
        assert 2 <= len(files) <= 3
        total = sum(f.stat().st_size for f in files)
        assert total <= 3000 + 2000  # bounded: ring cap plus one segment of slack
        # oldest-first ordering: seq strictly increases across the ring
        seqs = [r["seq"] for r in load_history(rec.path)]
        assert seqs == sorted(seqs)
        assert seqs[0] > 1  # the oldest records actually fell off

    def test_reader_tolerates_truncated_final_line(self, tmp_path):
        rec = _recorder(tmp_path)
        for _ in range(3):
            rec.record()
        # chop the final line mid-JSON: the footprint of a kill -9 mid-append
        raw = rec.path.read_bytes()
        rec.path.write_bytes(raw[: len(raw) - 40])
        records = load_history(rec.path)
        assert len(records) == 2
        assert [r["seq"] for r in records] == [1, 2]
        # a restarted daemon's recorder heals the torn tail before its
        # first append, so the new record is not lost to concatenation
        rec2 = _recorder(tmp_path, meta={"pid": 99, "started_unix": 1.0})
        rec2.record()
        records = load_history(rec2.path)
        assert len(records) == 3
        assert records[-1]["pid"] == 99
        series = HistorySeries(records)
        assert series.restarts == 1  # torn tail + new identity = two lifetimes

    def test_reader_skips_foreign_and_blank_lines(self, tmp_path):
        rec = _recorder(tmp_path)
        rec.record()
        with rec.path.open("a") as handle:
            handle.write("\n")
            handle.write(json.dumps({"kind": "other", "schema": 1}) + "\n")
            handle.write(json.dumps({"kind": "snapshot", "schema": 999}) + "\n")
        assert len(load_history(rec.path)) == 1

    def test_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            _recorder(tmp_path, interval=0)
        with pytest.raises(ValueError):
            _recorder(tmp_path, segments=0)
        with pytest.raises(ValueError):
            _recorder(tmp_path, max_bytes=0)


def _snapshot_record(seq, unix, counters=None, gauges=None, histograms=None,
                     pid=1, started=100.0):
    return {
        "schema": 1,
        "kind": "snapshot",
        "seq": seq,
        "unix": unix,
        "pid": pid,
        "started_unix": started,
        "snapshot": {
            "counters": counters or {},
            "gauges": gauges or {},
            "histograms": histograms or {},
        },
    }


class TestHistorySeries:
    def test_counter_rate_from_deltas(self):
        series = HistorySeries([
            _snapshot_record(1, 10.0, counters={"jobs": 0}),
            _snapshot_record(2, 20.0, counters={"jobs": 50}),
            _snapshot_record(3, 30.0, counters={"jobs": 150}),
        ])
        assert series.counter_rate("jobs") == [(15.0, 5.0), (25.0, 10.0)]

    def test_restart_splits_lifetimes_and_never_yields_negative_rates(self):
        series = HistorySeries([
            _snapshot_record(1, 10.0, counters={"jobs": 100}, pid=1),
            _snapshot_record(2, 20.0, counters={"jobs": 200}, pid=1),
            # restart: new pid, counter reset to near zero
            _snapshot_record(1, 30.0, counters={"jobs": 5}, pid=2, started=130.0),
            _snapshot_record(2, 40.0, counters={"jobs": 45}, pid=2, started=130.0),
        ])
        assert series.restarts == 1
        rates = series.counter_rate("jobs")
        assert rates == [(15.0, 10.0), (35.0, 4.0)]
        assert all(rate >= 0 for _, rate in rates)

    def test_seq_reset_detects_restart_with_reused_identity(self):
        records = [
            _snapshot_record(1, 10.0),
            _snapshot_record(2, 20.0),
            _snapshot_record(1, 30.0),  # same pid/start, seq back to 1
        ]
        assert HistorySeries(records).restarts == 1

    def test_gauge_series_is_raw_curve(self):
        series = HistorySeries([
            _snapshot_record(1, 10.0, gauges={"depth": 3.0}),
            _snapshot_record(2, 20.0),
            _snapshot_record(3, 30.0, gauges={"depth": 1.0}),
        ])
        assert series.gauge_series("depth") == [(10.0, 3.0), (30.0, 1.0)]

    def test_histogram_quantile_per_snapshot(self):
        histogram = {"lat": {"buckets": [1.0, 2.0], "counts": [10, 10, 0],
                             "sum": 15.0, "count": 20}}
        series = HistorySeries([_snapshot_record(1, 10.0, histograms=histogram)])
        [(unix, p50)] = series.histogram_quantile("lat", 0.5)
        assert unix == 10.0
        assert p50 == pytest.approx(1.0)

    def test_live_registry_round_trip(self, tmp_path):
        registry = _registry()
        counter = registry.counter("work_total")
        rec = _recorder(tmp_path, registry)
        for total in (10, 30, 60):
            counter.inc(total - counter.value)
            rec.record()
        series = HistorySeries.load(rec.path)
        assert series.restarts == 0
        rates = series.counter_rate("work_total")
        assert len(rates) == 2
        assert all(rate > 0 for _, rate in rates)
