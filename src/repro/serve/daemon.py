"""The ``red-qaoa serve`` daemon: a long-running sharded job server.

One process, three kinds of threads:

- the **pump** (main thread) runs the same
  :func:`repro.serve.workers.pump` step as ``red-qaoa batch``: claim
  shards for idle workers, resolve the events they stream back, write
  completed results through the store (fsync'd before they are
  acknowledged anywhere);
- the **accept loop** takes unix-socket connections;
- one **connection thread** per client speaks the newline-delimited JSON
  protocol of :mod:`repro.serve.protocol` (submit / poll / stream /
  status / drain / shutdown).

All shared state -- the :class:`~repro.serve.queue.ShardedJobQueue`,
tickets, drain flags -- sits behind one lock; a condition variable wakes
streaming connections whenever a result lands.

Determinism: a submitted job's result is a pure function of its content
fingerprint (:mod:`repro.service.jobs`), shard assignment is a pure
function of the fingerprint, and workers merge per-shard results in
fingerprint order -- so the daemon's answers are bit-identical across
worker counts, submission orders, restarts, and worker crashes.  The
daemon can only change *when* an answer arrives.

Lifecycle: ``SIGTERM``/``SIGINT`` (or the ``shutdown`` op) starts a clean
drain -- new submissions are rejected, in-flight shards finish, every
completed result is already durable in the store, then the daemon exits
and removes its socket.  A ``kill -9`` mid-run loses only unacknowledged
in-flight work: on the next start, the store still holds every completed
result, and resubmitting the same manifest re-runs only what is missing.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.health import HealthMonitor
from repro.obs.history import FlightRecorder
from repro.obs.log import NullLog
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.serve.protocol import (
    MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode,
    error_reply,
    ok_reply,
)
from repro.serve.queue import (
    CACHED,
    DEFAULT_HIGH_WATER,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_SHARD_PREFIX,
    ShardedJobQueue,
)
from repro.serve.workers import make_pool, pump
from repro.service.jobs import JobResult, JobSpec
from repro.service.store import ResultStore

__all__ = ["ServeDaemon", "Ticket"]


@dataclass
class Ticket:
    """One submission: manifest entries pinned to fingerprints."""

    id: str
    specs: list[JobSpec]
    cached: dict[str, JobResult] = field(default_factory=dict)
    created: float = field(default_factory=time.monotonic)

    def entry(self, index: int) -> dict:
        spec = self.specs[index]
        return {
            "index": index,
            "label": spec.label,
            "kind": spec.kind,
            "fingerprint": spec.fingerprint,
        }


def _result_fields(spec: JobSpec, result: JobResult) -> dict:
    best = result.best_value
    return {
        "source": result.source,
        "expectation": result.expectation,
        "best_value": None if best != best else best,  # NaN -> None
        "gammas": result.gammas,
        "betas": result.betas,
        "bits": result.bits,
        "reduced_qubits": result.reduced_qubits,
        "and_ratio": result.and_ratio,
        "assignment": {str(k): v for k, v in result.assignment_for(spec).items()},
    }


class ServeDaemon:
    """A persistent, crash-tolerant job server over a unix socket.

    Parameters mirror the queue and pool they configure; ``fault`` is the
    test-only :class:`~repro.serve.workers.CrashPoint` injection.  Use
    :meth:`serve_forever` to run (blocks until shutdown), or drive
    :meth:`submit_manifest` / :meth:`poll_ticket` directly in tests.
    """

    def __init__(
        self,
        socket_path: str | Path,
        store_path: str | Path | None = None,
        workers: int = 1,
        pool: str | None = None,
        shard_prefix: int = DEFAULT_SHARD_PREFIX,
        high_water: int = DEFAULT_HIGH_WATER,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        fault=None,
        poll_interval: float = 0.02,
        trace_path: str | Path | None = None,
        log=None,
        history_path: str | Path | None = None,
        history_interval: float = 5.0,
        stuck_after: float = 300.0,
        health_window: float = 60.0,
        stuck_requeue: bool = False,
    ) -> None:
        self.socket_path = Path(socket_path)
        self.store = ResultStore(store_path) if store_path is not None else None
        self.queue = ShardedJobQueue(
            store=self.store,
            shard_prefix=shard_prefix,
            high_water=high_water,
            max_attempts=max_attempts,
        )
        # Observability side channels: a file tracer (workers collect
        # spans, the pump stitches trees) and an event log.  Neither can
        # change a result -- only record how it came to be.
        self.tracer = Tracer(trace_path) if trace_path is not None else None
        self.log = log if log is not None else NullLog()
        self.pool = make_pool(
            pool, workers, fault=fault, trace=self.tracer is not None, log=self.log
        )
        self.poll_interval = poll_interval
        self.tickets: dict[str, Ticket] = {}
        self._ticket_ids = itertools.count(1)
        self._claims: dict = {}
        self._lock = threading.RLock()
        self._landed = threading.Condition(self._lock)
        self._draining = False
        self._shutdown = False
        self._stopped = False
        self.started = time.monotonic()
        self.started_unix = time.time()
        self.pid = os.getpid()
        # Layer-two observability: the flight recorder (periodic registry
        # snapshots into a rotating ring) and the health monitor (live
        # verdicts over queue/pool/claim state).  Both pure side channels.
        self.recorder = (
            FlightRecorder(
                history_path,
                interval=history_interval,
                meta={"pid": self.pid, "started_unix": self.started_unix},
            )
            if history_path is not None
            else None
        )
        self.monitor = HealthMonitor(
            self.queue,
            self.pool,
            self._claims,
            stuck_after=stuck_after,
            incident_window=health_window,
            requeue_stuck=stuck_requeue,
            log=self.log,
        )
        self._last_health_check: float | None = None

    # -- operations (connection threads call these under no lock) ------------

    def submit_manifest(self, manifest: dict) -> dict:
        """Admit one manifest atomically: a ticket, or one rejection.

        Backpressure is all-or-nothing -- either every job of the manifest
        fits under the high-water mark (after dedup) or none is enqueued,
        so a retrying client never has to reason about half-admitted
        manifests.
        """
        # Imported here: campaign imports the scheduler, which imports the
        # serve package -- a module-level import would close that cycle.
        from repro.service.campaign import manifest_specs

        try:
            specs = manifest_specs(manifest)
        except (ValueError, TypeError) as exc:
            return error_reply(f"bad manifest: {exc}")
        with self._lock:
            if self._draining:
                return error_reply(
                    "draining: daemon no longer accepts submissions",
                    retry_after=None,
                )
            new = {
                spec.fingerprint
                for spec in specs
                if self.queue.state_of(spec.fingerprint) == "unknown"
                and self.queue.lookup(spec.fingerprint) is None
            }
            if self.queue.depth + len(new) > self.queue.high_water:
                return error_reply(
                    "backpressure: queue past its high-water mark",
                    retry_after=self.queue.retry_after(),
                )
            ticket = Ticket(id=f"t-{next(self._ticket_ids):06d}", specs=specs)
            statuses = []
            for spec in specs:
                outcome = self.queue.submit(spec)
                statuses.append(outcome.status)
                if outcome.status == CACHED:
                    ticket.cached[outcome.fingerprint] = outcome.result
            self.tickets[ticket.id] = ticket
            self._landed.notify_all()
            return ok_reply(
                ticket=ticket.id,
                jobs=[
                    {**ticket.entry(index), "status": status}
                    for index, status in enumerate(statuses)
                ],
            )

    def poll_ticket(self, ticket_id: str) -> dict:
        with self._lock:
            ticket = self.tickets.get(ticket_id)
            if ticket is None:
                return error_reply(f"unknown ticket {ticket_id!r}")
            jobs = [
                self._entry_status(ticket, index) for index in range(len(ticket.specs))
            ]
            done = all(job["status"] in ("done", "dead") for job in jobs)
            counts: dict[str, int] = {}
            for job in jobs:
                counts[job["status"]] = counts.get(job["status"], 0) + 1
            return ok_reply(ticket=ticket_id, done=done, counts=counts, jobs=jobs)

    def status(self) -> dict:
        from repro import __version__

        with self._lock:
            info = {
                "version": __version__,
                "protocol": PROTOCOL_VERSION,
                "pid": self.pid,
                "started_unix": self.started_unix,
                "draining": self._draining,
                "uptime": time.monotonic() - self.started,
                "queue": self.queue.stats(),
                "workers": {
                    "count": self.pool.workers,
                    "pids": self.pool.worker_pids(),
                    "respawns": getattr(self.pool, "respawns", 0),
                    "states": self.pool.worker_states(),
                },
                "tickets": len(self.tickets),
            }
            if self.store is not None:
                info["store"] = {
                    "path": str(self.store.path),
                    "results": len(self.store),
                    "dead_letters": len(self.store.dead_letters()),
                }
            info["metrics"] = REGISTRY.snapshot()
            return ok_reply(**info)

    def metrics(self) -> dict:
        """The ``metrics`` op: a snapshot plus its Prometheus rendering."""
        return ok_reply(
            metrics=REGISTRY.snapshot(), prometheus=REGISTRY.render_prometheus()
        )

    def health(self) -> dict:
        """The ``health`` op: a fresh verdict plus recent events."""
        with self._lock:
            report = self.monitor.check()
            return ok_reply(
                health=report.to_dict(), events=self.log.recent(20)
            )

    def request_drain(self) -> dict:
        with self._lock:
            self._draining = True
            self.log.info("drain_requested", backlog=self.queue.depth + self.queue.num_running)
            return ok_reply(draining=True, backlog=self.queue.depth + self.queue.num_running)

    def request_shutdown(self) -> dict:
        with self._landed:
            self._draining = True
            self._shutdown = True
            self.log.info(
                "shutdown_requested", backlog=self.queue.depth + self.queue.num_running
            )
            self._landed.notify_all()
            return ok_reply(
                draining=True,
                shutting_down=True,
                backlog=self.queue.depth + self.queue.num_running,
            )

    # -- per-entry resolution (lock held) ------------------------------------

    def _entry_status(self, ticket: Ticket, index: int) -> dict:
        spec = ticket.specs[index]
        fingerprint = spec.fingerprint
        entry = ticket.entry(index)
        result = ticket.cached.get(fingerprint) or self.queue.completed.get(fingerprint)
        if result is not None:
            entry["status"] = "done"
            entry["result"] = _result_fields(spec, result)
            return entry
        dead = self.queue.dead.get(fingerprint)
        if dead is not None:
            entry["status"] = "dead"
            entry["error"] = dead["error"]
            entry["attempts"] = dead["attempts"]
            return entry
        state = self.queue.state_of(fingerprint)
        entry["status"] = "running" if state == "running" else "queued"
        return entry

    # -- the pump (main thread) ----------------------------------------------

    def run_pump_once(self) -> bool:
        """One scheduling step; the daemon's heartbeat (exposed for tests)."""
        progressed = pump(
            self.queue,
            self.pool,
            self._claims,
            timeout=self.poll_interval,
            lock=self._lock,
            landed=self._landed,
            tracer=self.tracer,
            log=self.log,
        )
        self._tick()
        return progressed

    def _tick(self) -> None:
        """Periodic side-channel work riding the pump: snapshots + health."""
        now = time.monotonic()
        if self._last_health_check is None or now - self._last_health_check >= 1.0:
            self._last_health_check = now
            with self._lock:
                self.monitor.check()
        if self.recorder is not None and self.recorder.due():
            with self._lock:
                extra = {"queue": self.queue.stats()}
            self.recorder.record(extra)

    def _finished(self) -> bool:
        with self._lock:
            return self._shutdown and self.queue.is_idle()

    # -- sockets -------------------------------------------------------------

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Bind the socket and run until shutdown; removes the socket on exit."""
        if install_signal_handlers and threading.current_thread() is threading.main_thread():
            import signal

            signal.signal(signal.SIGTERM, lambda *_: self.request_shutdown())
            signal.signal(signal.SIGINT, lambda *_: self.request_shutdown())
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        self.socket_path.unlink(missing_ok=True)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.log.info(
            "daemon_started",
            socket=str(self.socket_path),
            workers=self.pool.workers,
            traced=self.tracer is not None,
        )
        try:
            server.bind(str(self.socket_path))
            server.listen(64)
            server.settimeout(0.2)
            acceptor = threading.Thread(
                target=self._accept_loop, args=(server,), daemon=True
            )
            acceptor.start()
            while not self._finished():
                self.run_pump_once()
            # Drained: every completed result is already fsync'd in the
            # store (queue.complete writes through), nothing is in flight.
        finally:
            self._stopped = True
            with self._landed:
                self._landed.notify_all()
            self.pool.close()
            server.close()
            self.socket_path.unlink(missing_ok=True)
            if self.tracer is not None:
                # A final metrics record makes the trace self-contained:
                # `red-qaoa trace summarize` derives its cache table here.
                self.tracer.write_metrics(REGISTRY.snapshot())
            if self.recorder is not None:
                # One last snapshot so the history ends at shutdown, not at
                # the last interval boundary before it.
                self.recorder.record({"queue": self.queue.stats(), "final": True})
            self.log.info("daemon_stopped", completed=len(self.queue.completed))

    def _accept_loop(self, server: socket.socket) -> None:
        while not self._stopped:
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while raw := stream.readline(MAX_REQUEST_BYTES + 1):
                if len(raw) > MAX_REQUEST_BYTES and not raw.endswith(b"\n"):
                    # No framing left to resynchronise on: answer once, hang up.
                    error = f"request line exceeds {MAX_REQUEST_BYTES} bytes"
                    self._write(stream, error_reply(error))
                    return
                if not raw.strip():
                    continue
                try:
                    message = decode_line(raw)
                except ProtocolError as exc:
                    self._write(stream, error_reply(str(exc)))
                    continue
                op = message["op"]
                if op == "submit":
                    self._write(stream, self.submit_manifest(message["manifest"]))
                elif op == "poll":
                    self._write(stream, self.poll_ticket(message["ticket"]))
                elif op == "status":
                    self._write(stream, self.status())
                elif op == "metrics":
                    self._write(stream, self.metrics())
                elif op == "health":
                    self._write(stream, self.health())
                elif op == "drain":
                    self._write(stream, self.request_drain())
                elif op == "shutdown":
                    self._write(stream, self.request_shutdown())
                elif op == "stream":
                    self._stream_ticket(stream, message["ticket"])
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; nothing to unwind
        finally:
            try:
                stream.close()
                conn.close()
            except OSError:
                pass

    def _write(self, stream, message: dict) -> None:
        stream.write(encode(message))
        stream.flush()

    def _stream_ticket(self, stream, ticket_id: str) -> None:
        """Push each of the ticket's results the moment it lands."""
        with self._lock:
            ticket = self.tickets.get(ticket_id)
        if ticket is None:
            self._write(stream, error_reply(f"unknown ticket {ticket_id!r}"))
            return
        sent: set[int] = set()
        while True:
            with self._landed:
                fresh = []
                pending = False
                for index in range(len(ticket.specs)):
                    if index in sent:
                        continue
                    entry = self._entry_status(ticket, index)
                    if entry["status"] in ("done", "dead"):
                        fresh.append(entry)
                        sent.add(index)
                    else:
                        pending = True
                finished = not pending
                if not fresh and not finished and not self._stopped:
                    self._landed.wait(timeout=0.5)
                    continue
            for entry in fresh:
                self._write(stream, {"event": "result", "ticket": ticket_id, **entry})
            if finished:
                counts: dict[str, int] = {}
                with self._lock:
                    for index in range(len(ticket.specs)):
                        status = self._entry_status(ticket, index)["status"]
                        counts[status] = counts.get(status, 0) + 1
                self._write(
                    stream,
                    {"event": "done", "ticket": ticket_id, "counts": counts},
                )
                return
            if self._stopped:  # daemon exiting with the ticket unfinished
                self._write(
                    stream,
                    {"event": "aborted", "ticket": ticket_id},
                )
                return
