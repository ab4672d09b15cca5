"""Smoke test of the benchmark itself: a seconds-long miniature of each workload.

Run with ``python -m pytest perfbench`` from the repository root (not part
of the repository's own test paths; it starts daemons and worker pools).
Each miniature goes through ``run.py`` exactly as a real run does, with
``--mini`` shrinking instance sizes and request counts, and checks:

- the result line: ``correct`` (which covers the oracle comparison, the
  seed ledger and, in traced runs, the span-tree structure), no failed
  job, and exactly the metric names and units that ``BENCHMARK.json``
  declares for that mode;
- that the correctness gate itself rejects a wrong result, a ledger
  disagreement and a malformed span tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["serve-dense", "batch-sparse", "serve-small"])
def test_miniature(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", trace, "--mini"],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == run.declared_units(int(trace))
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_oracle_mismatch_is_reported(tmp_path):
    from oracle import Oracle

    oracle = Oracle(tmp_path, "0" * 16)
    payload = {"expectation": 1.5, "gammas": [0.1], "betas": [0.2], "bits": [0, 1],
               "reduced_qubits": 2, "and_ratio": 1.0}
    oracle.entries["f" * 64] = dict(payload)
    assert oracle.mismatch("f" * 64, dict(payload)) is None
    assert "expectation" in oracle.mismatch("f" * 64, {**payload, "expectation": 1.5000000000000002})
    assert "bits" in oracle.mismatch("f" * 64, {**payload, "bits": [1, 1]})


def test_ledger_disagreement_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    problems: list[str] = []
    run.ledger_check("serve-small", 7, False, "a" * 16, 0, {"approx_ratio": 0.5}, problems)
    run.ledger_check("serve-small", 7, False, "a" * 16, 1,
                     {"approx_ratio": 0.5, "core.evals": 3}, problems)
    assert problems == []
    run.ledger_check("serve-small", 7, False, "a" * 16, 1,
                     {"approx_ratio": 0.5, "core.evals": 4}, problems)
    assert len(problems) == 1 and "core.evals" in problems[0]
    run.ledger_check("serve-small", 8, False, "a" * 16, 0, {"approx_ratio": 0.25}, problems)
    assert len(problems) == 1  # another seed is another ledger entry
    # Changed program source: its values are compared only with runs of the same source.
    run.ledger_check("serve-small", 7, False, "b" * 16, 1,
                     {"approx_ratio": 0.75, "core.evals": 2}, problems)
    assert len(problems) == 1
    run.ledger_check("serve-small", 7, False, "b" * 16, 1,
                     {"approx_ratio": 0.5, "core.evals": 2}, problems)
    assert len(problems) == 2 and "approx_ratio" in problems[1]


def test_span_tree_checks():
    good = [
        ["1.1", None, "service.run_job", 0.0, 10.0, "job-a", {}],
        ["1.2", "1.1", "core.optimizer", 1.0, 5.0, "job-a", {}],
        ["1.3", "1.2", "core.eval", 2.0, 3.0, "job-a", {}],
        ["1.4", None, "service.store_put", 11.0, 12.0, "job-a", {}],
    ]
    assert run.span_problems(good) == []
    orphan = good + [["1.9", "1.8", "core.eval", 2.0, 3.0, "job-a", {}]]
    assert any("parent" in p for p in run.span_problems(orphan))
    mixed = good[:2] + [["1.3", "1.2", "core.eval", 2.0, 3.0, "job-b", {}]]
    assert any("job" in p for p in run.span_problems(mixed))
    outside = good[:2] + [["1.3", "1.2", "core.eval", 4.0, 6.0, "job-a", {}]]
    assert any("outside" in p for p in run.span_problems(outside))
    unowned = [["1.1", None, "core.reduce", 0.0, 1.0, None, {}]]
    assert any("job" in p for p in run.span_problems(unowned))
