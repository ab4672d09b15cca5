"""The repository benchmark: one command, three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {serve-dense,batch-sparse,serve-small} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` drives the real entry points untraced for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` runs the workload's fixed job
prefix twice, untraced and then with the span wrappers of ``tracing.py``,
and prints the per-layer metrics.  Either way every returned result is
checked bit for bit against a sequential ``run_job`` oracle, and the last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.

Load is a closed loop: one client, one request outstanding.  Serve
workloads start ``red-qaoa serve`` (``--workers 1``: inline pool for
serve-dense; ``--workers 2``: process pool for serve-small) and submit
manifests through ``ServeClient``; batch-sparse feeds one batch at a time
to ``BatchScheduler(workers=2, pool="process")`` in a separate batch
process.  Every process started here has its BLAS/OpenMP thread pools
pinned to one thread.

Each run also leaves a record under ``.perfbench_runs/`` (host
fingerprint, drift probes, per-request timings) and appends its
seed-determined values to a ledger there; a later run of the same seed
that disagrees with the ledger fails its correctness check.
"""

from __future__ import annotations

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported anywhere in this process

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = Path(".perfbench_runs")  # relative to ROOT: unix socket paths stay short
CACHE = Path(".perfbench_cache")

# Cold starts per run; setup_s is their median.  The last one serves the run.
SETUP_STARTS = 5
SETUP_STARTS_MINI = 2
# Hard limit for one invocation: children are killed past it.
HARD_LIMIT_S = 170.0
# The per-job exact counts a traced run must reproduce for its seed.
EXACT_COUNTS = (
    "serve.jobs_cached",
    "service.store_puts",
    "core.sa_calls",
    "core.sa_steps",
    "core.evals",
    "qaoa.dense_calls",
    "qaoa.dense_amp_updates",
    "qaoa.dense_bytes",
    "qaoa.lightcone_points",
)
WORKERS = {"serve-dense": 1, "serve-small": 2, "batch-sparse": 2}

sys.path.insert(0, str(HERE))


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Children:
    """Every process this run starts; a watchdog kills them at the hard limit."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []
        self.timer = threading.Timer(HARD_LIMIT_S, self.kill_all)
        self.timer.daemon = True
        self.timer.start()

    def spawn(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), **kwargs)
        self.procs.append(proc)
        return proc

    def kill_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()

    def close(self) -> None:
        self.timer.cancel()
        self.kill_all()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass


def vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- the serve daemon ------------------------------------------------------------


class Daemon:
    def __init__(self, children: Children, rundir: Path, tag: str, workers: int,
                 spans: Path | None = None) -> None:
        from repro.serve.client import ServeClient

        self.socket = str(rundir / f"{tag}.sock")
        options = ["serve", "--socket", self.socket, "--store", str(rundir / f"{tag}-store.jsonl"),
                   "--workers", str(workers)]
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", *options]
        else:
            argv = [sys.executable, str(HERE / "serve_host.py"), str(spans), *options]
        self.errors = open(rundir / f"{tag}.stderr", "wb")
        start = time.perf_counter()
        self.proc = children.spawn(argv, stdout=subprocess.DEVNULL, stderr=self.errors)
        while True:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket)
                break
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited with {self.proc.returncode} during start")
                if time.perf_counter() - start > 60:
                    raise RuntimeError("daemon did not listen within 60 s")
                time.sleep(0.002)
            finally:
                probe.close()
        self.setup_s = time.perf_counter() - start
        self.client = ServeClient(self.socket, timeout=120.0)

    def stop(self) -> dict:
        """Shut down; returns peak RSS over daemon and workers and the queue-wait histogram."""
        pids = {self.proc.pid, *self.client.status()["workers"]["pids"]}
        info = {
            "peak_rss_kb": max(vm_hwm_kb(pid) for pid in pids),
            "queue_wait": self.client.metrics()["metrics"]["histograms"].get(
                "redqaoa_queue_wait_seconds"),
        }
        self.client.shutdown()
        self.proc.wait(timeout=60)
        self.errors.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}")
        return info

    def run_request(self, manifest: dict) -> dict:
        """Submit one manifest and stream its results: one closed-loop step."""
        from repro.serve.client import ServeError

        t0 = time.perf_counter()
        try:
            reply = self.client.submit(manifest)
        except ServeError as exc:
            return {"t0": t0, "rtt": time.perf_counter() - t0, "refused": str(exc),
                    "jobs": [{"status": "refused"} for _ in manifest["jobs"]]}
        rtt = time.perf_counter() - t0
        jobs = [{"status": entry["status"], "fingerprint": entry["fingerprint"]}
                for entry in reply["jobs"]]
        cached = sum(1 for entry in reply["jobs"] if entry["status"] == "cached")
        for event in self.client.stream(reply["ticket"]):
            if event.get("event") != "result":
                continue
            arrival = time.perf_counter()
            job = jobs[event["index"]]
            job["arrival"] = arrival
            job["latency"] = arrival - t0
            if event["status"] == "done":
                job["result"] = {key: event["result"][key] for key in
                                 ("expectation", "gammas", "betas", "bits",
                                  "reduced_qubits", "and_ratio")}
            else:
                job["error"] = event.get("error")
            job["final"] = event["status"]
        return {"t0": t0, "rtt": rtt, "cached": cached, "jobs": jobs}


# -- the batch process -----------------------------------------------------------


class BatchHost:
    def __init__(self, children: Children, rundir: Path, tag: str,
                 spans: Path | None = None) -> None:
        argv = [sys.executable, str(HERE / "batch_host.py"),
                "--store", str(rundir / f"{tag}-store.jsonl")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        self.errors = open(rundir / f"{tag}.stderr", "wb")
        start = time.perf_counter()
        self.proc = children.spawn(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                   stderr=self.errors, text=True, bufsize=1)
        if self.read()["event"] != "ready":
            raise RuntimeError("batch host did not report ready")
        self.setup_s = time.perf_counter() - start

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"batch host exited ({self.proc.poll()})")
        return json.loads(line)

    def send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message, separators=(",", ":")) + "\n")
        self.proc.stdin.flush()

    def run_request(self, batch: dict) -> dict:
        t0 = time.perf_counter()
        self.send({"op": "batch", **batch})
        accepted = self.read()
        rtt = time.perf_counter() - t0
        jobs: dict[str, dict] = {}
        while True:
            event = self.read()
            if event["event"] == "done":
                break
            arrival = time.perf_counter()
            jobs[event["fingerprint"]] = {
                "status": "accepted", "final": "done", "fingerprint": event["fingerprint"],
                "arrival": arrival, "latency": arrival - t0,
                "result": {key: event[key] for key in
                           ("expectation", "gammas", "betas", "bits", "reduced_qubits", "and_ratio")},
            }
        if accepted.get("jobs") != len(event["fingerprints"]):
            raise RuntimeError(f"batch host accepted {accepted} for {len(event['fingerprints'])} jobs")
        ordered = [jobs.get(fingerprint, {"status": "accepted", "fingerprint": fingerprint,
                                          "error": event.get("error")})
                   for fingerprint in event["fingerprints"]]
        return {"t0": t0, "rtt": rtt, "cached": 0, "jobs": ordered}

    def stop(self) -> dict:
        """Exit; returns peak RSS over host and workers and the queue-wait histogram."""
        self.send({"op": "exit"})
        info = self.read()
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.errors.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"batch host exited with {self.proc.returncode}")
        return info


def start_server(children, workload, rundir, tag, spans=None):
    if workload == "batch-sparse":
        return BatchHost(children, rundir, tag, spans)
    return Daemon(children, rundir, tag, WORKERS[workload], spans)


def cold_starts(children, workload, rundir, starts) -> tuple[list[float], object]:
    """``starts`` fresh program processes; the last one stays up."""
    times = []
    for k in range(starts):
        server = start_server(children, workload, rundir, f"setup{k}")
        times.append(server.setup_s)
        if k < starts - 1:
            server.stop()
    return times, server


# -- the closed loop ---------------------------------------------------------------


def closed_loop(server, stream, seconds: float, minimum: int) -> dict:
    """Send requests one at a time: at least ``minimum`` of them, then more
    while the next one would end at most half a request past ``seconds``."""
    requests = []
    while len(requests) < minimum or (
        (time.perf_counter() - requests[0]["t0"]) * (1 + 0.5 / len(requests)) < seconds
    ):
        request = next(stream)
        outcome = server.run_request(request)
        outcome["request"] = request
        requests.append(outcome)
    t_first = requests[0]["t0"]
    arrivals = [job["arrival"] for r in requests for job in r["jobs"] if "arrival" in job]
    wall = (max(arrivals) if arrivals else time.perf_counter()) - t_first
    return {"requests": requests, "wall": wall}


def job_outcomes(loop: dict):
    for request in loop["requests"]:
        yield from request["jobs"]


def drift_probe(children) -> dict:
    proc = children.spawn([sys.executable, str(HERE / "probe.py")],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    out, _ = proc.communicate(timeout=60)
    return json.loads(out.strip().splitlines()[-1])


def import_times(children, runs: int = 3) -> list[float]:
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(runs):
        proc = children.spawn([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        out, _ = proc.communicate(timeout=60)
        times.append(float(out.strip()))
    return times


# -- host fingerprint ------------------------------------------------------------------


def host_fingerprint(src_hash: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None  # benchmark checkouts are usually not git repositories
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = (probe.stdout.strip() or None) if probe.returncode == 0 else None
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in PINNED},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": src_hash,
    }


# -- per-layer aggregation ---------------------------------------------------------------


def load_spans(span_dir: Path) -> list[list]:
    spans = []
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            spans.append(json.loads(line))
    return spans


def span_forest(spans: list[list]) -> tuple[dict, dict]:
    """``(by_id, children)`` indexes of span records."""
    by_id = {span[0]: span for span in spans}
    children: dict[str, list] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    return by_id, children


def span_problems(spans: list[list]) -> list[str]:
    """Structural defects: a missing parent, a child outside its parent's
    interval, or a tree whose spans do not all carry one job id."""
    by_id, _ = span_forest(spans)
    found = []
    for span in spans:
        if span[1] is None:
            if span[5] is None:
                found.append(f"span {span[0]} ({span[2]}) is a tree without a job id")
            continue
        parent = by_id.get(span[1])
        if parent is None:
            found.append(f"span {span[0]} ({span[2]}) has no parent {span[1]}")
        elif span[5] != parent[5]:
            found.append(f"span {span[0]} ({span[2]}) has job {span[5]}, its parent {parent[5]}")
        elif not parent[3] <= span[3] <= span[4] <= parent[4]:
            found.append(f"span {span[0]} ({span[2]}) lies outside its parent {parent[0]}")
    return found


def layer_metrics(spans: list[list], arrivals: dict, submit_rtts: list, cached: int,
                  queue_wait: dict | None) -> dict:
    by_id, children = span_forest(spans)

    def duration(span):
        return span[4] - span[3]

    def self_time(span):
        return duration(span) - sum(duration(child) for child in children.get(span[0], ()))

    def outermost(name):
        """Spans of ``name`` with no ancestor of the same name (no double counting)."""
        picked = []
        for span in spans:
            if span[2] != name:
                continue
            parent = by_id.get(span[1])
            while parent is not None and parent[2] != name:
                parent = by_id.get(parent[1])
            if parent is None:
                picked.append(span)
        return picked

    def total(name):
        return sum(duration(span) for span in outermost(name))

    run_jobs = outermost("service.run_job")
    jobs = max(1, len(run_jobs))
    run_job_s = sum(duration(span) for span in run_jobs)
    root_self = sum(self_time(span) for span in run_jobs)
    dense = [span for span in spans if span[2] == "qaoa.dense"]
    dense_s = sum(duration(span) for span in dense)
    amp_updates = sum(span[6]["amp_updates"] for span in dense)
    lookups = [span for span in spans if span[2] == "qaoa.plan_lookup"]
    optimizer = [span for span in spans if span[2] == "core.optimizer"]
    evals = [child for span in optimizer for child in children.get(span[0], ())
             if child[2] == "core.eval"]
    run_job_end = {span[5]: span[4] for span in run_jobs}
    holdbacks = [arrival - run_job_end[fp] for fp, arrival in arrivals.items() if fp in run_job_end]
    return {
        "serve.submit_rtt_s": statistics.median(submit_rtts),
        "serve.queue_wait_s": (queue_wait["sum"] / queue_wait["count"]
                               if queue_wait and queue_wait["count"] else 0.0),
        "serve.holdback_s": sum(holdbacks) / len(holdbacks) if holdbacks else 0.0,
        "serve.jobs_cached": cached,
        "service.run_job_s": run_job_s / jobs,
        "service.fingerprint_s": total("service.fingerprint") / jobs,
        "service.phase1_s": total("service.compute_reduction") / jobs,
        "service.store_put_s": total("service.store_put") / jobs,
        "service.store_puts": len(outermost("service.store_put")),
        "core.sa_s": total("core.reduce") / jobs,
        "core.sa_calls": sum(1 for span in spans if span[2] == "core.sa"),
        "core.sa_steps": sum(span[6].get("steps", 0) for span in spans if span[2] == "core.sa"),
        "core.optimizer_overhead_s": sum(self_time(span) for span in optimizer) / jobs,
        "core.evals": len(evals),
        "core.readout_s": total("core.readout") / jobs,
        "qaoa.dense_s": dense_s / jobs,
        "qaoa.dense_calls": len(dense),
        "qaoa.dense_amp_updates": amp_updates,
        "qaoa.dense_bytes": sum(span[6]["bytes"] for span in dense),
        "qaoa.dense_rate": amp_updates / dense_s if dense_s else 0.0,
        "qaoa.class_dense_s": total("qaoa.class_dense") / jobs,
        "qaoa.plan_build_s": total("qaoa.plan_build") / jobs,
        "qaoa.plan_classes": sum(span[6].get("classes", 0) for span in outermost("qaoa.plan_build")),
        "qaoa.lightcone_eval_s": total("qaoa.lightcone_eval") / jobs,
        "qaoa.lightcone_points": sum(span[6]["points"] for span in outermost("qaoa.lightcone_eval")),
        "qaoa.plan_cache_hit_ratio": (sum(1 for span in lookups if span[6]["hit"]) / len(lookups)
                                      if lookups else 0.0),
        "problems.diagonal_s": total("problems.diagonal") / jobs,
        "obs.layer_coverage_frac": 1.0 - root_self / run_job_s if run_job_s else 0.0,
    }


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a run mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


# -- correctness ----------------------------------------------------------------------------


def check_results(loop: dict, workload: str, oracle, children, rundir,
                  problems: list) -> tuple[int, int, int]:
    """Compare every result with the oracle; returns (attempted, completed, failed)."""
    from inputs import request_specs

    specs = []
    for request in loop["requests"]:
        specs.extend(request_specs(workload, request["request"]))
    oracle.ensure(specs, children.spawn, rundir)
    attempted = completed = failed = 0
    for request in loop["requests"]:
        for job in request["jobs"]:
            attempted += 1
            if job.get("final") != "done" or "result" not in job:
                failed += 1
                problems.append(f"job {job.get('fingerprint', '?')[:12]} {job.get('final', job['status'])}: "
                                f"{job.get('error') or request.get('refused') or 'no result'}")
                continue
            completed += 1
            reason = oracle.mismatch(job["fingerprint"], job["result"])
            if reason:
                problems.append(f"result differs from the run_job oracle: {reason}")
    return attempted, completed, failed


def prefix_length(args) -> int:
    from inputs import PREFIX, PREFIX_MINI

    return (PREFIX_MINI if args.mini else PREFIX)[args.workload]


def prefix_specs(args) -> list:
    """Specs of the workload's first requests (quality set, traced job set)."""
    from inputs import request_specs, requests

    stream = requests(args.workload, args.seed, args.mini)
    specs = []
    for _ in range(prefix_length(args)):
        specs.extend(request_specs(args.workload, next(stream)))
    return specs


def ledger_check(workload: str, seed: int, mini: bool, src: str, trace: int, values: dict,
                 problems: list) -> None:
    """Seed-determined values must repeat exactly across runs of one seed
    on one program source (``src`` hashes ``src/``)."""
    path = RUNS / "ledger.jsonl"
    key = {"workload": workload, "seed": seed, "mini": mini, "src": src}
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if {k: entry.get(k) for k in key} != key:
                continue
            for name, value in entry["values"].items():
                if name in values and values[name] != value:
                    problems.append(f"{name} = {values[name]!r} but an earlier run of seed {seed} "
                                    f"gave {value!r}")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**key, "trace": trace, "values": values}) + "\n")


# -- the two run modes -----------------------------------------------------------------------


def run_untraced(args, children, rundir, oracle, problems) -> tuple[dict, dict, dict]:
    from inputs import requests

    starts = SETUP_STARTS_MINI if args.mini else SETUP_STARTS
    setups, server = cold_starts(children, args.workload, rundir, starts)
    loop = closed_loop(server, requests(args.workload, args.seed, args.mini), args.seconds,
                       prefix_length(args))
    rss_kb = server.stop()["peak_rss_kb"]
    attempted, completed, failed = check_results(loop, args.workload, oracle, children, rundir, problems)
    latencies = [job["latency"] for job in job_outcomes(loop) if "latency" in job]
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    metrics = {
        "jobs_per_s": completed / loop["wall"],
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        "completed_frac": completed / attempted,
    }
    detail = {
        "setup_samples_s": setups,
        "requests": len(loop["requests"]),
        "latency_samples": len(latencies),
        "wall_s": loop["wall"],
        "request_seconds": [max((j.get("arrival", r["t0"]) for j in r["jobs"]), default=r["t0"]) - r["t0"]
                            for r in loop["requests"]],
    }
    return metrics, detail, {"attempted": attempted, "failed": failed}


def run_traced(args, children, rundir, oracle, problems) -> tuple[dict, dict, dict]:
    from inputs import requests

    count = prefix_length(args)
    imports = import_times(children)
    walls = {}
    loops = {}
    queue_wait = None
    span_dir = rundir / "spans"
    for mode in ("untraced", "traced"):
        spans = span_dir if mode == "traced" else None
        server = start_server(children, args.workload, rundir, mode, spans)
        loop = closed_loop(server, requests(args.workload, args.seed, args.mini), 0.0, count)
        queue_wait = server.stop()["queue_wait"]
        walls[mode] = loop["wall"]
        loops[mode] = loop
    attempted = failed = 0
    for loop in loops.values():
        a, _, f = check_results(loop, args.workload, oracle, children, rundir, problems)
        attempted += a
        failed += f
    traced = loops["traced"]
    arrivals = {job["fingerprint"]: job["arrival"] for job in job_outcomes(traced)
                if "arrival" in job and job["status"] != "cached"}
    spans = load_spans(span_dir)
    problems.extend(span_problems(spans))
    metrics = layer_metrics(
        spans,
        arrivals,
        [request["rtt"] for request in traced["requests"]],
        sum(request.get("cached", 0) for request in traced["requests"]),
        queue_wait,
    )
    metrics["setup.import_s"] = statistics.median(imports)
    metrics["obs.trace_overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    detail = {"walls_s": walls, "import_samples_s": imports}
    return metrics, detail, {"attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-dense", "batch-sparse", "serve-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mini", action="store_true",
                        help="the smoke test's miniature: small instances, few requests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        log(f"no program source under {SRC}; run from a full checkout")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from oracle import Oracle, source_hash

    RUNS.mkdir(exist_ok=True)
    rundir = RUNS / f"tmp-{os.getpid()}"
    rundir.mkdir()
    children = Children()
    problems: list[str] = []
    started = time.time()
    try:
        src_hash = source_hash(SRC)
        oracle = Oracle(CACHE, src_hash)
        host = host_fingerprint(src_hash)
        drift_before = drift_probe(children)
        mode = run_traced if args.trace else run_untraced
        metrics, detail, counts = mode(args, children, rundir, oracle, problems)
        drift_after = drift_probe(children)

        specs = prefix_specs(args)
        oracle.ensure(specs, children.spawn, rundir)
        quality = oracle.quality(dict.fromkeys(spec.fingerprint for spec in specs))
        deterministic = dict(quality)
        if args.trace:
            deterministic.update({name: metrics[name] for name in EXACT_COUNTS})
        else:
            metrics.update(quality)
        ledger_check(args.workload, args.seed, args.mini, src_hash, args.trace, deterministic,
                     problems)
    finally:
        children.close()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_unix": started, "host": host,
        "drift_probe": {"before": drift_before, "after": drift_after},
        "metrics": metrics, "detail": detail, "problems": problems,
    }
    (RUNS / f"run-{args.workload}-s{args.seed}-t{args.trace}-{int(started)}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(rundir, ignore_errors=True)
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    units = declared_units(args.trace)
    print(json.dumps({
        "correct": not problems and counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        sys.exit(1)
