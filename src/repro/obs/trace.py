"""Lightweight span tracing for the solve/serve pipeline.

A **span** is one named, timed region -- ``with span("reduce",
fingerprint=fp):`` -- stamped with :func:`time.perf_counter_ns` on entry
and exit.  Spans nest via a thread-local stack and bind to the job being
executed, so a finished trace decomposes every job into the stages the
pipeline actually went through::

    job
    ├── queue_wait      submit -> shard claim
    ├── dispatch        claim -> worker pickup
    ├── execute         the worker's own clock
    │   ├── reduce      SA distillation (annealer)
    │   │   └── ...
    │   ├── optimize    COBYLA on the reduced graph
    │   │   └── plan_build / finetune / ...
    │   └── readout     sampling the final state
    ├── drain_wait      worker done -> pump resolution
    └── store_append    fsync'd result persistence

Two tracer modes cover the process topology of the serve stack:

- **file mode** (``Tracer(path)``): each closed span is appended to a
  JSONL trace file immediately (:func:`repro.jsonl.append`) -- the
  daemon/batch process writes this;
- **collector mode** (``Tracer(None)``): closed spans buffer in memory
  and are handed over via :meth:`Tracer.drain` -- worker processes run
  this and ship their spans back over the existing result pipes, where
  the drain pump stitches them into the job's tree
  (:meth:`Tracer.record_job`).

Timestamps are raw ``perf_counter_ns`` ticks.  On Linux that clock is
``CLOCK_MONOTONIC``, which shares its epoch across processes on one box,
so daemon-side and worker-side timestamps interleave correctly without
any clock handshake.  Traces are therefore per-host artifacts; only
durations and orderings are meaningful, never wall-clock dates.

Tracing is **off by default** and a disabled :func:`span` costs one
global read and a truth test.  It is a pure side channel: no RNG stream,
fingerprint, or result is touched, and the tier-1 suite asserts traced
runs are bit-identical to untraced ones.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro import jsonl

__all__ = [
    "TRACE_SCHEMA",
    "Tracer",
    "configure_tracing",
    "disable_tracing",
    "format_summary",
    "get_tracer",
    "install_tracer",
    "load_trace",
    "span",
    "span_trees",
    "summarize_trace",
    "trace_job",
    "using_tracer",
    "validate_trace",
]

TRACE_SCHEMA = 1

#: Per-process tracer instance numbers: span ids embed pid AND tracer
#: instance, so a per-job collector's ids never collide with the file
#: tracer's when both live in one process (the inline pool's topology).
_TRACER_SEQ = itertools.count(1)


class Tracer:
    """Span recorder; file sink when ``path`` is given, collector otherwise.

    One tracer is safe to share across threads (per-thread span stacks and
    job bindings; one lock around the sink).  Span ids embed the pid, so
    ids from different processes never collide when merged into one file.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._buffer: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counter = 0
        self._pid = os.getpid()
        self._seq = next(_TRACER_SEQ)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Touch the file so an empty traced run still leaves a trace.
            self.path.touch()

    # -- identity ------------------------------------------------------------

    def _next_id(self) -> str:
        with self._lock:
            # A forked child inherits the parent's tracer object; detect the
            # new pid so its span ids stay globally unique.
            pid = os.getpid()
            if pid != self._pid:
                self._pid = pid
                self._counter = 0
            self._counter += 1
            return f"{pid:x}-{self._seq:x}-{self._counter:x}"

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_job(self) -> str | None:
        return getattr(self._local, "job", None)

    # -- recording -----------------------------------------------------------

    def emit(self, record: dict) -> None:
        """Append one finished record to the sink (file or buffer)."""
        if self.path is not None:
            jsonl.append(self.path, record)
        else:
            with self._lock:
                self._buffer.append(record)

    def drain(self) -> list[dict]:
        """Hand over and clear the collector buffer (collector mode)."""
        with self._lock:
            spans, self._buffer = self._buffer, []
            return spans

    @contextmanager
    def bind(self, job: str):
        """Attach a job id to every span this thread opens inside the block."""
        previous = getattr(self._local, "job", None)
        self._local.job = job
        try:
            yield
        finally:
            self._local.job = previous

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one nested, timed region."""
        span_id = self._next_id()
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.emit(
                _span_record(
                    name,
                    span_id,
                    parent,
                    self.current_job,
                    t0,
                    t1,
                    attrs or None,
                )
            )

    def write_span(
        self,
        name: str,
        t0: int,
        t1: int,
        *,
        parent: str | None = None,
        job: str | None = None,
        attrs: dict | None = None,
    ) -> str:
        """Record a span from already-measured timestamps; returns its id."""
        span_id = self._next_id()
        self.emit(_span_record(name, span_id, parent, job, int(t0), int(t1), attrs))
        return span_id

    def write_metrics(self, snapshot: dict) -> None:
        """Append a metrics snapshot record (the summarizer's cache table)."""
        self.emit({"schema": TRACE_SCHEMA, "kind": "metrics", "snapshot": snapshot})

    # -- daemon-side tree assembly -------------------------------------------

    def record_job(
        self,
        fingerprint: str,
        worker_spans: list[dict] | None,
        *,
        enqueued_ns: int | None,
        claimed_ns: int | None,
        store_t0: int,
        store_t1: int,
        attempts: int = 1,
        source: str = "computed",
    ) -> None:
        """Stitch one finished job into a complete span tree.

        The pump calls this once per landed job with the spans the worker
        shipped back (or ``None`` for store hits).  The root ``job`` span
        runs submit -> store append; ``queue_wait``/``dispatch``/
        ``drain_wait`` gap spans are synthesized (clamped to zero length
        when clocks say the gap was negative-epsilon) so the direct
        children tile the root without holes -- that tiling is what makes
        the summarizer's >=95%% coverage criterion achievable by
        construction rather than by luck.
        """
        worker_spans = list(worker_spans or [])
        t_start = enqueued_ns if enqueued_ns is not None else store_t0
        root_id = self._next_id()
        cursor = t_start
        children: list[dict] = []

        def gap(name: str, until: int | None) -> None:
            nonlocal cursor
            if until is None:
                return
            until = max(int(until), cursor)
            if until > cursor:
                children.append(
                    _span_record(
                        name, self._next_id(), root_id, fingerprint, cursor, until, None
                    )
                )
            cursor = until

        gap("queue_wait", claimed_ns)
        execute = _worker_root(worker_spans)
        if execute is not None:
            gap("dispatch", execute["t0"])
            execute["parent"] = root_id
            cursor = max(cursor, execute["t1"])
        for record in worker_spans:
            record["job"] = fingerprint
        gap("drain_wait", store_t0)
        children.append(
            _span_record(
                "store_append",
                self._next_id(),
                root_id,
                fingerprint,
                cursor,
                max(int(store_t1), cursor),
                None,
            )
        )
        cursor = max(int(store_t1), cursor)

        attrs = {"attempts": int(attempts), "source": source}
        for record in children + worker_spans:
            self.emit(record)
        self.emit(
            _span_record("job", root_id, None, fingerprint, t_start, cursor, attrs)
        )


def _span_record(
    name: str,
    span_id: str,
    parent: str | None,
    job: str | None,
    t0: int,
    t1: int,
    attrs: dict | None,
) -> dict:
    record = {
        "schema": TRACE_SCHEMA,
        "kind": "span",
        "name": name,
        "span": span_id,
        "parent": parent,
        "job": job,
        "pid": os.getpid(),
        "t0": int(t0),
        "t1": int(t1),
    }
    if attrs:
        record["attrs"] = attrs
    return record


def _worker_root(worker_spans: list[dict]) -> dict | None:
    """The worker's parentless span (``execute``), if it shipped one."""
    ids = {record["span"] for record in worker_spans}
    for record in worker_spans:
        if record.get("parent") is None or record["parent"] not in ids:
            return record
    return None


# -- module-level tracer ------------------------------------------------------

_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    return _TRACER


def configure_tracing(path: str | os.PathLike) -> Tracer:
    """Enable tracing to a JSONL file; returns the installed tracer."""
    global _TRACER
    _TRACER = Tracer(path)
    return _TRACER


def disable_tracing() -> None:
    global _TRACER
    _TRACER = None


def install_tracer(tracer: Tracer | None) -> Tracer | None:
    """Swap the global tracer; returns the previous one."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous


@contextmanager
def using_tracer(tracer: Tracer | None):
    """Temporarily install ``tracer`` as the process-global tracer."""
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)


@contextmanager
def span(name: str, **attrs):
    """Record a span on the global tracer; free when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        yield
        return
    with tracer.span(name, **attrs):
        yield


@contextmanager
def trace_job(job: str, **attrs):
    """Bind a job id and open its root span (in-process pipelines)."""
    tracer = _TRACER
    if tracer is None:
        yield
        return
    with tracer.bind(job):
        with tracer.span("job", **attrs):
            yield


# -- trace files: loading, validation, summary --------------------------------


def load_trace(path: str | os.PathLike) -> tuple[list[dict], list[dict]]:
    """All span records and all metrics records from a trace file."""
    spans: list[dict] = []
    metrics: list[dict] = []
    for record in jsonl.read(path)[0]:
        if record.get("kind") == "span":
            spans.append(record)
        elif record.get("kind") == "metrics":
            metrics.append(record)
    return spans, metrics


def span_trees(spans: list[dict]) -> dict[str, dict]:
    """Group spans by job: job -> ``{"root", "spans", "children"}``.

    ``children`` maps span id -> child records sorted by start time.
    Jobs with zero or multiple roots get ``root: None`` (validation
    reports them; the summarizer skips them).
    """
    by_job: dict[str, list[dict]] = {}
    for record in spans:
        by_job.setdefault(record.get("job") or "", []).append(record)
    trees: dict[str, dict] = {}
    for job, records in by_job.items():
        ids = {record["span"] for record in records}
        roots = [r for r in records if r.get("parent") is None]
        children: dict[str, list[dict]] = {}
        for record in records:
            parent = record.get("parent")
            if parent in ids:
                children.setdefault(parent, []).append(record)
        for siblings in children.values():
            siblings.sort(key=lambda r: r["t0"])
        trees[job] = {
            "root": roots[0] if len(roots) == 1 else None,
            "spans": records,
            "children": children,
        }
    return trees


def validate_trace(spans: list[dict]) -> list[str]:
    """Structural problems in a trace; empty list means every tree closed.

    Checks, per job: exactly one root span named ``job``; every
    ``parent`` id resolves within the same job; every span has
    ``t1 >= t0``; every span lies within its root's interval.
    """
    problems: list[str] = []
    for job, tree in span_trees(spans).items():
        records = tree["spans"]
        ids = {record["span"] for record in records}
        roots = [r for r in records if r.get("parent") is None]
        if len(roots) != 1:
            problems.append(f"job {job}: {len(roots)} root spans (want exactly 1)")
        elif roots[0]["name"] != "job":
            problems.append(f"job {job}: root span named {roots[0]['name']!r}")
        for record in records:
            parent = record.get("parent")
            if parent is not None and parent not in ids:
                problems.append(
                    f"job {job}: span {record['span']} ({record['name']}) "
                    f"orphaned under missing parent {parent}"
                )
            if record["t1"] < record["t0"]:
                problems.append(
                    f"job {job}: span {record['span']} ({record['name']}) "
                    "closes before it opens"
                )
        if len(roots) == 1:
            root = roots[0]
            for record in records:
                if record is root:
                    continue
                if record["t0"] < root["t0"] or record["t1"] > root["t1"]:
                    problems.append(
                        f"job {job}: span {record['span']} ({record['name']}) "
                        "escapes the root interval"
                    )
    return problems


def summarize_trace(path: str | os.PathLike) -> dict:
    """Per-stage breakdown, coverage, and critical path of one trace file.

    Returns a dict with:

    - ``jobs``: number of complete job trees;
    - ``wall_seconds``: total root-span time;
    - ``stages``: name -> ``{"seconds", "count", "share"}`` over the
      *direct children* of job roots (the tiling layer, so shares sum to
      coverage);
    - ``self_stages``: name -> seconds of *self time* (span minus its
      children) across all depths -- where the clock actually went;
    - ``coverage``: direct-children time / root time;
    - ``critical_path``: stage names along the longest child at each
      level of the slowest job;
    - ``cache``: hit/miss table from the trace's final metrics record,
      if one was written;
    - ``problems``: output of :func:`validate_trace`.
    """
    spans, metrics = load_trace(path)
    trees = span_trees(spans)
    problems = validate_trace(spans)

    wall_ns = 0
    covered_ns = 0
    stages: dict[str, dict] = {}
    self_stages: dict[str, float] = {}
    slowest: dict | None = None
    slowest_tree: dict | None = None
    jobs = 0

    for tree in trees.values():
        root = tree["root"]
        if root is None or root["name"] != "job":
            continue
        jobs += 1
        duration = root["t1"] - root["t0"]
        wall_ns += duration
        if slowest is None or duration > slowest["t1"] - slowest["t0"]:
            slowest, slowest_tree = root, tree
        for child in tree["children"].get(root["span"], []):
            child_ns = child["t1"] - child["t0"]
            covered_ns += child_ns
            entry = stages.setdefault(child["name"], {"seconds": 0.0, "count": 0})
            entry["seconds"] += child_ns / 1e9
            entry["count"] += 1
        for record in tree["spans"]:
            inner = sum(
                c["t1"] - c["t0"] for c in tree["children"].get(record["span"], [])
            )
            self_ns = max(0, (record["t1"] - record["t0"]) - inner)
            self_stages[record["name"]] = (
                self_stages.get(record["name"], 0.0) + self_ns / 1e9
            )

    for entry in stages.values():
        entry["share"] = entry["seconds"] * 1e9 / wall_ns if wall_ns else 0.0

    critical_path: list[str] = []
    if slowest is not None and slowest_tree is not None:
        node = slowest
        while True:
            kids = slowest_tree["children"].get(node["span"], [])
            if not kids:
                break
            node = max(kids, key=lambda r: r["t1"] - r["t0"])
            critical_path.append(node["name"])

    cache = _cache_table(metrics[-1]["snapshot"]) if metrics else {}

    return {
        "jobs": jobs,
        "spans": len(spans),
        "wall_seconds": wall_ns / 1e9,
        "stages": dict(sorted(stages.items(), key=lambda kv: -kv[1]["seconds"])),
        "self_stages": dict(sorted(self_stages.items(), key=lambda kv: -kv[1])),
        "coverage": covered_ns / wall_ns if wall_ns else 1.0,
        "critical_path": critical_path,
        "cache": cache,
        "problems": problems,
    }


def _cache_table(snapshot: dict) -> dict:
    """Hit-rate table from a metrics snapshot's ``*_hits``/``*_misses`` pairs."""
    counters = snapshot.get("counters", {})
    table: dict[str, dict] = {}
    for name, hits in counters.items():
        if not name.endswith("_hits_total"):
            continue
        base = name[: -len("_hits_total")]
        misses = counters.get(base + "_misses_total", 0.0)
        total = hits + misses
        table[base.removeprefix("redqaoa_")] = {
            "hits": int(hits),
            "misses": int(misses),
            "rate": hits / total if total else 0.0,
        }
    return table


def format_summary(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_trace` output."""
    lines = [
        f"jobs: {summary['jobs']}   spans: {summary['spans']}   "
        f"wall: {summary['wall_seconds']:.3f}s   "
        f"coverage: {summary['coverage'] * 100:.1f}%",
        "",
        "stage breakdown (direct children of job roots):",
    ]
    for name, entry in summary["stages"].items():
        lines.append(
            f"  {name:<14} {entry['seconds']:>10.3f}s  "
            f"{entry['share'] * 100:>5.1f}%  x{entry['count']}"
        )
    if summary["self_stages"]:
        lines.append("")
        lines.append("self time (all depths):")
        for name, seconds in summary["self_stages"].items():
            lines.append(f"  {name:<14} {seconds:>10.3f}s")
    if summary["critical_path"]:
        lines.append("")
        lines.append("critical path (slowest job): " + " -> ".join(summary["critical_path"]))
    if summary["cache"]:
        lines.append("")
        lines.append("cache efficacy:")
        for name, row in summary["cache"].items():
            lines.append(
                f"  {name:<20} hits {row['hits']:>6}  misses {row['misses']:>6}  "
                f"rate {row['rate'] * 100:>5.1f}%"
            )
    if summary["problems"]:
        lines.append("")
        lines.append(f"PROBLEMS ({len(summary['problems'])}):")
        lines.extend(f"  {p}" for p in summary["problems"])
    return "\n".join(lines) + "\n"
