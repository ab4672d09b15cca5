"""The sequential ``run_job`` oracle and the seed-determined quality metrics.

Every result the program returns during a run is compared bit for bit
(expectation, gammas, betas, bits, reduced size, AND ratio) with a plain
``run_job(spec)`` call on the same spec, computed outside the timed region.
Oracle results are pure functions of the job fingerprint and the program
source, so they are cached in the checkout under a key that hashes
``src/``: a later run of the same seed computes nothing twice.

The oracle also prices each instance for ``approx_ratio``: the exact
minimum and maximum of the objective up to 20 qubits; above that, 0 and a
fixed-seed local-search ``best_value()`` (MaxCut only).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

EXACT_LIMIT = 20
PROCESSES = 2  # as many busy processes as any workload uses
COMPARED = ("expectation", "gammas", "betas", "bits", "reduced_qubits", "and_ratio")


def source_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compute(spec) -> tuple[str, dict]:
    """One oracle entry: ``run_job`` plus the instance's objective range."""
    from repro.qaoa.hamiltonian import MaxCutHamiltonian
    from repro.service.jobs import run_job

    result = run_job(spec)
    instance = spec.canonical().instance
    n = spec.num_qubits
    if n <= EXACT_LIMIT:
        diagonal = (
            MaxCutHamiltonian(instance).diagonal if spec.graph is not None else instance.diagonal
        )
        low, high = float(diagonal.min()), float(diagonal.max())
    else:
        if spec.graph is not None or instance.name != "maxcut":
            raise ValueError(f"no objective range for a {n}-qubit non-MaxCut job")
        low, high = 0.0, float(instance.best_value(method="local", seed=0))
    return spec.fingerprint, {
        "expectation": result.expectation,
        "gammas": result.gammas,
        "betas": result.betas,
        "bits": result.bits,
        "reduced_qubits": result.reduced_qubits,
        "and_ratio": result.and_ratio,
        "n": n,
        "min": low,
        "max": high,
    }


class Oracle:
    """Cached oracle entries keyed by job fingerprint."""

    def __init__(self, cache_dir: Path, src_hash: str) -> None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = cache_dir / f"oracle-{src_hash}.jsonl"
        self.entries: dict[str, dict] = {}
        if self.path.exists():
            for line in self.path.read_text(encoding="utf-8").splitlines():
                try:
                    fingerprint, payload = json.loads(line)
                except (ValueError, TypeError):
                    continue  # a torn final line from an interrupted run
                self.entries[fingerprint] = payload

    def ensure(self, specs, spawn, workdir: Path) -> None:
        """Compute every entry not cached yet in ``PROCESSES`` fresh processes.

        ``spawn(argv, **popen_kwargs)`` starts a process (the caller owns
        and reaps it); each process takes every ``PROCESSES``-th missing spec.
        """
        missing = {}
        for spec in specs:
            if spec.fingerprint not in self.entries:
                missing.setdefault(spec.fingerprint, spec)
        if not missing:
            return
        todo = list(missing.values())
        procs = []
        for k in range(min(PROCESSES, len(todo))):
            path = workdir / f"oracle-{k}.pickle"
            path.write_bytes(pickle.dumps(todo[k::PROCESSES]))
            procs.append(spawn([sys.executable, __file__, str(path)],
                               stdout=subprocess.PIPE, text=True))
        computed = []
        for proc in procs:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"oracle worker exited with {proc.returncode}")
            computed.extend(json.loads(line) for line in out.splitlines())
        with open(self.path, "a", encoding="utf-8") as handle:
            for fingerprint, payload in computed:
                self.entries[fingerprint] = payload
                handle.write(json.dumps([fingerprint, payload]) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def mismatch(self, fingerprint: str, observed: dict) -> str | None:
        """None when ``observed`` equals the oracle bit for bit, else a reason."""
        expected = self.entries[fingerprint]
        for key in COMPARED:
            if observed.get(key) != expected[key]:
                return f"{fingerprint[:12]}: {key} {observed.get(key)!r} != oracle {expected[key]!r}"
        return None

    def quality(self, fingerprints) -> dict:
        """Seed-determined quality means over ``fingerprints``."""
        entries = [self.entries[fp] for fp in fingerprints]
        ratios = [(e["expectation"] - e["min"]) / (e["max"] - e["min"]) for e in entries]
        return {
            "approx_ratio": sum(ratios) / len(ratios),
            "node_reduction": sum(1 - e["reduced_qubits"] / e["n"] for e in entries) / len(entries),
            "and_ratio": sum(e["and_ratio"] for e in entries) / len(entries),
        }


if __name__ == "__main__":
    # Worker mode: compute the pickled specs (written by Oracle.ensure in
    # this same run) and print one JSON entry per line.
    for job in pickle.loads(Path(sys.argv[1]).read_bytes()):
        print(json.dumps(compute(job)), flush=True)
