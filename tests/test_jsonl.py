"""Tests for repro.jsonl and the crash-point contract of every JSONL file.

For each file kind the program persists -- result store, flight-recorder
ring, trace file, EventLog file, bench trajectory -- the file is cut at
every byte offset inside its final record (the footprint of a ``kill -9``
mid-append), one more record is appended through that module's real
writer, and the module's real reader must return every earlier complete
record plus the new one.
"""

import json
import sys
import threading

import pytest

from repro import jsonl
from repro.obs.history import FlightRecorder, history_files, load_history
from repro.obs.log import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.regress import append_record, load_records, make_record
from repro.obs.trace import Tracer, load_trace
from repro.service import BatchScheduler, ResultStore, manifest_specs
from repro.service.jobs import JobResult


def _job_result(tag) -> JobResult:
    return JobResult(
        fingerprint=f"fp-{tag}",
        instance_fingerprint=f"inst-{tag}",
        gammas=[0.1234567890123456, -2.7182818284590451],
        betas=[0.3333333333333333, 1e-17],
        expectation=1.0000000000000002,
        best_value=3.5,
        bits=[0, 1, 1, 0],
        reduced_qubits=3,
        and_ratio=0.87,
        reduced_evaluations=42,
        original_evaluations=7,
    )


class _Store:
    def write(self, path, tag):
        ResultStore(path, fsync=False).put(_job_result(tag))

    def read(self, path):
        return [fp[len("fp-"):] for fp in ResultStore(path).fingerprints()]


class _Ring:
    # ~175-byte records in 450-byte segments: the third record rotates
    # the first two to ``.1``.
    max_bytes = 900

    def write(self, path, tag):
        FlightRecorder(
            path, registry=MetricsRegistry(), max_bytes=self.max_bytes, segments=2
        ).record({"tag": tag})

    def read(self, path):
        return [record["tag"] for record in load_history(path)]


class _Trace:
    def write(self, path, tag):
        with Tracer(path).span("step", tag=tag):
            pass

    def read(self, path):
        return [record["attrs"]["tag"] for record in load_trace(path)[0]]


class _Events:
    def write(self, path, tag):
        EventLog(level="info", path=path).info("tick", tag=tag)

    def read(self, path):
        return [record["tag"] for record in jsonl.read(path)[0]]


class _Trajectory:
    def write(self, path, tag):
        bench = path.with_name("BENCH_x.json")
        bench.write_text(json.dumps({"sa_reducer": {"10": {"incremental_steps_per_sec": 1.0}}}))
        append_record(path, make_record(tag, [bench]))

    def read(self, path):
        return [record["label"] for record in load_records([path])]


_KINDS = {
    "store": _Store(),
    "ring": _Ring(),
    "trace": _Trace(),
    "events": _Events(),
    "trajectory": _Trajectory(),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_torn_final_record_loses_nothing_else(tmp_path, kind):
    writer = _KINDS[kind]
    path = tmp_path / "file.jsonl"
    for tag in ("r0", "r1", "r2"):
        writer.write(path, tag)
    if kind == "ring":
        assert [f.name for f in history_files(path)] == ["file.jsonl.1", "file.jsonl"]
    assert writer.read(path) == ["r0", "r1", "r2"]
    raw = path.read_bytes()
    final_start = raw.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(final_start, len(raw)):
        path.write_bytes(raw[:cut])
        writer.write(path, "new")
        found = writer.read(path)
        assert found[:2] == ["r0", "r1"] and found[-1] == "new", cut


def test_append_heals_torn_tail_and_reader_counts_it(tmp_path):
    path = tmp_path / "x.jsonl"
    jsonl.append(path, {"a": 1})
    with path.open("ab") as handle:
        handle.write(b'{"b": ')  # torn record
    jsonl.append(path, {"c": 3.0000000000000004})
    assert path.read_bytes() == b'{"a":1}\n{"b": \n{"c":3.0000000000000004}\n'
    records, undecodable = jsonl.read(path)
    assert records == [{"a": 1}, {"c": 3.0000000000000004}]
    assert undecodable == 1


def test_reader_counts_non_objects_and_skips_blank_lines(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a":1}\n\n  \n[1, 2]\n\xff\xfe\n{"b":2}\n')
    assert jsonl.read(path) == ([{"a": 1}, {"b": 2}], 2)


def test_append_creates_parent_directories(tmp_path):
    path = tmp_path / "nested" / "deeper" / "x.jsonl"
    jsonl.append(path, {"a": 1})
    assert jsonl.read(path) == ([{"a": 1}], 0)


def test_rotate_shifts_the_ring_and_segments_list_it_oldest_first(tmp_path):
    path = tmp_path / "ring.jsonl"
    for index in range(5):
        jsonl.append(path, {"i": index})
        jsonl.rotate(path, keep=3)
    jsonl.append(path, {"i": 5})
    files = jsonl.segments(path)
    assert [f.name for f in files] == [
        "ring.jsonl.3",
        "ring.jsonl.2",
        "ring.jsonl.1",
        "ring.jsonl",
    ]
    assert [jsonl.read(f)[0][0]["i"] for f in files] == [2, 3, 4, 5]
    jsonl.rotate(path, keep=0)
    assert not path.exists()


def test_threads_sharing_a_file_tracer_keep_every_span_whole(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(path)
    padding = "x" * 5000  # spans far longer than one pipe buffer

    def writer(name):
        for index in range(100):
            tracer.write_span("s", 0, 1, job=str(name), attrs={"i": index, "pad": padding})

    threads = [threading.Thread(target=writer, args=(name,)) for name in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert jsonl.read(path)[1] == 0
    spans, _ = load_trace(path)
    assert sorted((int(r["job"]), r["attrs"]["i"]) for r in spans) == [
        (name, index) for name in range(8) for index in range(100)
    ]


def _manifest_specs():
    return manifest_specs(
        {
            "schema": 1,
            "defaults": {"restarts": 1, "maxiter": 6},
            "jobs": [{"kind": "maxcut", "nodes": 8, "seed": seed} for seed in range(3)],
        }
    )


@pytest.mark.parametrize("cut", [2, 20, 200])
def test_scheduler_resume_recomputes_exactly_the_torn_job(tmp_path, cut):
    path = tmp_path / "store.jsonl"
    first = BatchScheduler(store=ResultStore(path)).run(_manifest_specs())
    assert first.computed == 3
    raw = path.read_bytes()
    torn = json.loads(raw.splitlines()[-1])["fingerprint"]
    path.write_bytes(raw[:-cut])

    second = BatchScheduler(store=ResultStore(path)).run(_manifest_specs())
    assert second.computed == 1
    assert [view.fingerprint for view in second.results if view.source == "computed"] == [
        torn
    ]

    third = BatchScheduler(store=ResultStore(path)).run(_manifest_specs())
    assert third.computed == 0
    assert third.store_hits == 3
    for before, after in zip(first.results, third.results):
        assert after.to_dict() == before.to_dict() | {"source": after.source}
