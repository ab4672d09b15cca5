"""Persistent, append-only result store keyed by job fingerprint.

:class:`ResultStore` makes repeated jobs free across process restarts: one
JSONL file, one record per completed job, appended with an ``fsync`` so a
finished job survives a crash the moment :meth:`ResultStore.put` returns.
Under :mod:`repro.jsonl`'s durability contract a store written by a killed
campaign resumes with every fully written result intact, and a daemon and
a batch run can share one store file.  Records are schema-versioned; on
load, records with an unknown schema are skipped (counted, never fatal).

Later records win on duplicate fingerprints (the file is append-only, so
"latest" is simply the last line), and all floats round-trip exactly
through JSON's ``repr``-based encoding -- a resumed result compares
bit-identical to the original computation.

Besides results, the store holds **dead-letter** records
(:meth:`ResultStore.park`): jobs that exhausted their retry budget in the
serve layer, recorded with the error and attempt count so a poison-pill
job is visible and auditable instead of wedging a queue.  A successful
result for the same fingerprint always wins over a dead letter -- results
are pure functions of the fingerprint, so once computed they are valid
forever.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import jsonl
from repro.obs.metrics import REGISTRY
from repro.service.jobs import JobResult

__all__ = ["STORE_SCHEMA", "ResultStore"]

STORE_SCHEMA = 1

_STORE_HITS = REGISTRY.counter(
    "redqaoa_store_hits_total", "result-store gets served from disk"
)
_STORE_MISSES = REGISTRY.counter(
    "redqaoa_store_misses_total", "result-store gets that found nothing"
)
_STORE_APPENDS = REGISTRY.counter(
    "redqaoa_store_appends_total", "records appended to the store file"
)
_STORE_DEAD = REGISTRY.counter(
    "redqaoa_store_dead_letters_total", "dead-letter records parked in the store"
)


class ResultStore:
    """On-disk fingerprint -> :class:`~repro.service.jobs.JobResult` map.

    Parameters
    ----------
    path:
        JSONL file; created (with parents) on first :meth:`put`.  An
        existing file is indexed on construction.
    fsync:
        Flush records to stable storage on every put (default).  Disable
        only for throwaway stores (tests); durability is the point.

    ``hits`` / ``misses`` count :meth:`get` outcomes -- the counters batch
    reports and the resume-verification CI job read.
    """

    def __init__(self, path: str | os.PathLike, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.hits = 0
        self.misses = 0
        self.skipped_schema = 0
        self.corrupt_lines = 0
        self._index: dict[str, dict] = {}
        self._dead: dict[str, dict] = {}
        self._load()

    # -- loading -------------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        records, self.corrupt_lines = jsonl.read(self.path)
        for record in records:
            if record.get("schema") != STORE_SCHEMA:
                self.skipped_schema += 1
                continue
            fingerprint = record.get("fingerprint")
            if not fingerprint:
                self.corrupt_lines += 1
                continue
            if "dead_letter" in record:
                self._dead[fingerprint] = record
            else:
                self._index[fingerprint] = record
        # A computed result outranks any dead letter for the same job:
        # results are pure functions of the fingerprint, so one success
        # retires every recorded failure regardless of file order.
        for fingerprint in list(self._dead):
            if fingerprint in self._index:
                del self._dead[fingerprint]

    # -- queries -------------------------------------------------------------

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._index

    def __len__(self) -> int:
        return len(self._index)

    def fingerprints(self) -> list[str]:
        return list(self._index)

    def get(self, fingerprint: str) -> JobResult | None:
        """The stored result for ``fingerprint``, counting hits/misses."""
        record = self._index.get(fingerprint)
        if record is None:
            self.misses += 1
            _STORE_MISSES.inc()
            return None
        self.hits += 1
        _STORE_HITS.inc()
        return JobResult.from_payload(
            fingerprint,
            record.get("instance", ""),
            record["payload"],
            source="store",
        )

    def dead_letters(self) -> dict[str, dict]:
        """Parked jobs: fingerprint -> ``{"error", "attempts", "instance"}``."""
        return {
            fingerprint: dict(record["dead_letter"])
            for fingerprint, record in self._dead.items()
        }

    # -- writes --------------------------------------------------------------

    def put(self, result: JobResult) -> None:
        """Append one finished job; durable before this method returns."""
        record = {
            "schema": STORE_SCHEMA,
            "fingerprint": result.fingerprint,
            "instance": result.instance_fingerprint,
            "payload": result.to_payload(),
        }
        self._append(record)
        self._index[result.fingerprint] = record
        self._dead.pop(result.fingerprint, None)

    def park(self, fingerprint: str, instance: str, error: str, attempts: int) -> None:
        """Record a dead-lettered job: retries exhausted, queue moved on."""
        record = {
            "schema": STORE_SCHEMA,
            "fingerprint": fingerprint,
            "instance": instance,
            "dead_letter": {
                "error": str(error),
                "attempts": int(attempts),
                "instance": instance,
            },
        }
        self._append(record)
        _STORE_DEAD.inc()
        if fingerprint not in self._index:
            self._dead[fingerprint] = record

    def _append(self, record: dict) -> None:
        _STORE_APPENDS.inc()
        jsonl.append(self.path, record, fsync=self.fsync)
