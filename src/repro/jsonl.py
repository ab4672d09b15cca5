"""Durable append-only JSONL files: one writer, one reader, one ring.

The result store, flight-recorder ring, trace files, daemon event log and
bench trajectory are all written by :func:`append` and read by
:func:`read`, under one durability contract:

- **Appends are locked**: an exclusive ``flock`` (where ``fcntl`` exists)
  spans the tail check and the write, so writers sharing a file --
  threads, a daemon and a batch run -- never interleave partial lines.
- **A torn tail is healed before the next append**: a writer killed
  mid-append leaves an unterminated last line; the next append reads the
  file's last byte (one seek, never a rescan) and writes a ``\\n`` first
  if it is anything else, so a ``kill -9`` at any byte costs at most the
  record being written, never the next writer's.
- **Readers skip undecodable lines**: :func:`read` returns the decoded
  JSON objects and a count of the lines that were not one.
- **Only the ResultStore fsyncs**: a finished job must survive a crash
  once ``put`` returns; the observability files trade their newest
  lines on power loss for a cheaper append.

Lines encode as ``json.dumps(record, sort_keys=True, separators=(",",
":"))`` -- ASCII with ``repr``-exact floats, so records round-trip
bit-identically.  A size-bounded file is a ring: when an append would
push ``path`` past ``max_bytes`` it is first :func:`rotate`\\ d to
``path.1`` (``.1`` to ``.2`` ...; segments past ``keep`` are dropped),
and :func:`segments` lists the ring oldest-first.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

try:  # advisory locking is POSIX-only; appends degrade to unlocked
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["append", "encode", "read", "rotate", "segments"]


def encode(record: dict) -> str:
    """The canonical one-line encoding of ``record`` (no newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def append(
    path: str | os.PathLike,
    record: dict,
    *,
    fsync: bool = False,
    max_bytes: int | None = None,
    keep: int = 0,
) -> None:
    """Append ``record`` as one line, creating the parent directory if needed.

    With ``max_bytes``, a non-empty file the line would push past it is
    rotated first, keeping ``keep`` rotated segments.
    """
    path = Path(path)
    data = (encode(record) + "\n").encode("utf-8")
    if max_bytes is not None:
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size and size + len(data) > max_bytes:
            rotate(path, keep)
    try:
        handle = path.open("a+b", buffering=0)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("a+b", buffering=0)
    with handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    data = b"\n" + data
            view = memoryview(data)
            while view:  # unbuffered: a short write leaves the rest in view
                view = view[handle.write(view) :]
            if fsync:
                os.fsync(handle.fileno())
        finally:
            # Explicit unlock: a worker forked mid-append shares this open
            # file description and would otherwise hold the lock.
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def read(path: str | os.PathLike) -> tuple[list[dict], int]:
    """``(records, undecodable)``: the file's JSON-object lines in order,
    and how many non-blank lines were not one."""
    records: list[dict] = []
    undecodable = 0
    with Path(path).open("rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                undecodable += 1
    return records, undecodable


def rotate(path: str | os.PathLike, keep: int) -> None:
    """Shift ``path`` to ``path.1`` and each ``.N`` to ``.N+1``, overwriting
    ``.keep``; with ``keep == 0`` just delete ``path``."""
    path = Path(path)
    for index in range(keep, 0, -1):
        source = _segment(path, index - 1)
        if source.exists():
            source.replace(_segment(path, index))
    path.unlink(missing_ok=True)


def segments(path: str | os.PathLike) -> list[Path]:
    """A ring's existing files, oldest first (``.N`` ... ``.1``, then ``path``)."""
    path = Path(path)
    rotated = []
    for sibling in path.parent.glob(f"{path.name}.*"):
        suffix = sibling.name[len(path.name) + 1 :]
        if suffix.isdigit():
            rotated.append((int(suffix), sibling))
    files = [sibling for _, sibling in sorted(rotated, reverse=True)]
    return files + [path] if path.exists() else files


def _segment(path: Path, index: int) -> Path:
    return path.with_name(f"{path.name}.{index}") if index else path
