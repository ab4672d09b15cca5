"""Wire protocol of the serve daemon: newline-delimited JSON over a socket.

One request per line, one (or, for ``stream``, many) response lines back.
Every message is a single JSON object with no embedded newlines, so the
framing is trivially incremental and any language with a JSON parser and
a unix-socket client can drive a daemon.

Requests (``{"op": ..., ...}``):

``submit``
    ``{"op": "submit", "manifest": {...}}`` -- a campaign manifest mapping
    (exactly the ``red-qaoa batch`` format, see
    :mod:`repro.service.campaign`).  Reply: a **ticket** with one entry
    per manifest job, or a backpressure rejection carrying
    ``retry_after`` seconds.
``poll``
    ``{"op": "poll", "ticket": "t-000001"}`` -- the ticket's current
    per-job status and any finished results.
``stream``
    ``{"op": "stream", "ticket": "t-000001"}`` -- the connection stays
    open; each completed job of the ticket is written as its own
    ``{"event": "result", ...}`` line the moment it lands, terminated by
    one ``{"event": "done", ...}`` summary line.
``status``
    Queue depth/backlog, worker pids, drain state, version, daemon
    identity (pid / start time), and a metrics snapshot.
``metrics``
    A full metrics snapshot plus its Prometheus text rendering -- point a
    scraper bridge here.
``health``
    The daemon's self-diagnosis (:mod:`repro.obs.health`): an
    ``ok`` / ``degraded`` / ``failing`` verdict with per-check statuses
    and machine-readable reasons, plus recent events.
``drain``
    Stop admitting new submissions; polls and streams keep working.
``shutdown``
    Drain, finish in-flight work, exit the daemon.

Responses carry ``"ok": true`` or ``"ok": false`` with ``"error"``.  The
protocol is versioned (``PROTOCOL_VERSION``; echoed by ``status``) and
intolerant of malformed input on purpose: a bad line gets an error reply,
never a partial effect.  A request line longer than ``MAX_REQUEST_BYTES``
gets one error reply and the connection is closed, so a peer that never
sends a newline cannot grow the daemon's read buffer without bound.
"""

from __future__ import annotations

import json

__all__ = [
    "MAX_REQUEST_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_line",
    "encode",
    "error_reply",
    "ok_reply",
]

PROTOCOL_VERSION = 2  # v2: +health op, daemon identity in status

#: Longest accepted request line, newline excluded: at under 100 bytes
#: per generated manifest job, room for any realistic campaign.
MAX_REQUEST_BYTES = 1 << 22

OPS = (
    "submit",
    "poll",
    "stream",
    "status",
    "metrics",
    "health",
    "drain",
    "shutdown",
)


class ProtocolError(ValueError):
    """A malformed or unsupported protocol message."""


def encode(message: dict) -> bytes:
    """One message -> one JSON line (repr-exact floats, no embedded newlines)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: str | bytes) -> dict:
    """One line -> one validated request mapping (raises :class:`ProtocolError`)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a JSON object, got {type(message).__name__}")
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (supported: {', '.join(OPS)})")
    if op == "submit" and not isinstance(message.get("manifest"), dict):
        raise ProtocolError("submit requires a 'manifest' mapping")
    if op in ("poll", "stream") and not isinstance(message.get("ticket"), str):
        raise ProtocolError(f"{op} requires a 'ticket' string")
    return message


def ok_reply(**fields) -> dict:
    return {"ok": True, **fields}


def error_reply(error: str, **fields) -> dict:
    return {"ok": False, "error": error, **fields}
