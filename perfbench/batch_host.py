"""The batch process: ``BatchScheduler(workers=2, pool="process")`` behind a pipe.

Started by ``run.py``; speaks JSON lines.  It prints ``{"event": "ready"}``
once the program is imported (the end of its set-up), then for each
``{"op": "batch", "jobs": [...]}`` line on stdin prints ``accepted`` once
the specs are built, one ``result`` line per job the moment the scheduler
hands it over, and a ``done`` line.  ``{"op": "exit"}`` reports peak RSS of
this process and its (joined) worker processes, then exits.

``--spans DIR`` installs the benchmark's span wrappers first.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _say(message: dict) -> None:
    sys.stdout.write(json.dumps(message, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def _vm_hwm_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import repro.cli  # noqa: F401 - the batch command's own import set
    from repro.obs.metrics import REGISTRY
    from repro.service.scheduler import BatchScheduler
    from repro.service.store import ResultStore

    if args.spans:
        import tracing

        tracing.install(args.spans)
    from inputs import batch_specs

    store = ResultStore(args.store)
    _say({"event": "ready"})
    for line in sys.stdin:
        message = json.loads(line)
        if message["op"] == "exit":
            break
        specs = batch_specs(message)
        _say({"event": "accepted", "jobs": len(specs)})
        index = {id(spec): position for position, spec in enumerate(specs)}

        def landed(spec, result):
            _say({
                "event": "result",
                "index": index.get(id(spec)),
                "fingerprint": result.fingerprint,
                "expectation": result.expectation,
                "gammas": result.gammas,
                "betas": result.betas,
                "bits": result.bits,
                "reduced_qubits": result.reduced_qubits,
                "and_ratio": result.and_ratio,
            })

        scheduler = BatchScheduler(store=store, workers=2, pool="process")
        started = time.perf_counter()
        try:
            report = scheduler.run(specs, on_result=landed)
        except RuntimeError as exc:  # a failed job aborts the batch, as in `red-qaoa batch`
            _say({"event": "done", "error": str(exc),
                  "fingerprints": [spec.fingerprint for spec in specs]})
            continue
        _say({
            "event": "done",
            "seconds": time.perf_counter() - started,
            "fingerprints": [view.fingerprint for view in report.results],
        })
    snapshot = REGISTRY.snapshot()
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    _say({
        "event": "exit",
        "peak_rss_kb": max(_vm_hwm_kb(), children),
        "queue_wait": snapshot["histograms"].get("redqaoa_queue_wait_seconds"),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
