"""Noise-aware benchmark regression gating (``red-qaoa bench compare``).

The repo accumulated one ``BENCH_*.json`` per PR, each with its own
shape, and nothing ever *compared* them -- a 30% throughput cliff would
ship silently.  This module turns those artifacts into a gate:

- :func:`extract_metrics` recognises each recorded BENCH shape (PR 3
  micro-benchmarks, PR 4 quality ratios, PR 5 batch speedup, PR 6 serve
  throughput) and normalises it to named **metrics**, each with a value,
  a direction (``higher``/``lower`` is better), and a **kind**:

  ``rate``
      wall-clock-derived throughput/speedup -- noisy on shared CI
      hardware, gated with a wide default floor (25%);
  ``quality``
      deterministic algorithmic ratios (approximation/AND ratios) --
      tighter floor (5%);
  ``exact``
      booleans and exact counts (bit-identical flags) -- zero floor, any
      change is a regression.

- :func:`compare` walks records chronologically keeping a per-metric
  *last-seen baseline* (records carry disjoint metric sets -- a sparse
  trajectory, not a dense matrix) and flags direction-adjusted relative
  drops beyond the metric's **noise floor**.  Floors come from recorded
  run-to-run dispersion where history has it (``max(5%, 2 * cv)`` over a
  baseline's samples) and from the static per-kind defaults elsewhere.

- PR 6 daemon rows flagged ``oversubscribed`` (more workers than cores)
  are excluded from throughput gating entirely, as that BENCH records.

``red-qaoa bench compare`` exits nonzero on any regression (or zero with
``--advisory``); ``red-qaoa bench record`` appends a normalised record to
a trajectory JSONL so future runs compare against it.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from repro import jsonl

__all__ = [
    "DEFAULT_FLOORS",
    "REGRESS_SCHEMA",
    "append_record",
    "compare",
    "extract_metrics",
    "load_records",
    "make_record",
    "metrics_from_history",
    "noise_floor",
]

REGRESS_SCHEMA = 1

#: Static relative noise floors by metric kind (fractions).
DEFAULT_FLOORS = {"rate": 0.25, "quality": 0.05, "exact": 0.0}


def _metric(value, kind: str, direction: str = "higher", samples=None) -> dict:
    metric = {"value": float(value), "kind": kind, "direction": direction}
    if samples:
        metric["samples"] = [float(sample) for sample in samples]
    return metric


# -- BENCH shape recognition --------------------------------------------------


def extract_metrics(payload: dict, source: str = "") -> dict[str, dict]:
    """Normalise one BENCH payload into named metrics; ``{}`` if unrecognised."""
    if not isinstance(payload, dict):
        return {}
    if "metrics" in payload and isinstance(payload["metrics"], dict):
        # Already-normalised trajectory record: pass its metrics through.
        return {
            name: dict(metric)
            for name, metric in payload["metrics"].items()
            if isinstance(metric, dict) and "value" in metric
        }
    metrics: dict[str, dict] = {}
    if "sa_reducer" in payload:  # PR 3 micro-benchmarks
        for size, row in payload["sa_reducer"].items():
            metrics[f"sa_steps_per_sec_n{size}"] = _metric(
                row["incremental_steps_per_sec"], "rate"
            )
        lightcone = payload.get("lightcone", {})
        if "plan_points_per_sec" in lightcone:
            metrics["lightcone_points_per_sec"] = _metric(
                lightcone["plan_points_per_sec"], "rate"
            )
    elif "daemon" in payload and isinstance(payload.get("daemon"), list):  # PR 6
        for row in payload["daemon"]:
            if row.get("oversubscribed"):
                continue  # recorded as meaningless for throughput gating
            metrics[f"serve_jobs_per_sec_w{row['workers']}"] = _metric(
                row["jobs_per_sec"], "rate"
            )
        flag = payload.get("bit_identical_all_worker_counts_vs_sequential")
        if flag is not None:
            metrics["serve_bit_identical"] = _metric(1.0 if flag else 0.0, "exact")
    elif "bit_identical_batched_vs_sequential" in payload:  # PR 5
        metrics["batch_speedup"] = _metric(payload["speedup"], "rate")
        for key in (
            "bit_identical_batched_vs_sequential",
            "bit_identical_resumed_vs_batched",
        ):
            metrics[key] = _metric(1.0 if payload.get(key) else 0.0, "exact")
    elif "mis" in payload and "sk" in payload:  # PR 4 quality ratios
        for kind in ("mis", "sk"):
            row = payload[kind]
            metrics[f"{kind}_and_ratio"] = _metric(row["and_ratio_sa"], "quality")
            depth1 = row.get("depths", {}).get("1", {})
            if "sampled_ratio" in depth1:
                metrics[f"{kind}_sampled_ratio_p1"] = _metric(
                    depth1["sampled_ratio"], "quality"
                )
    return metrics


def metrics_from_history(records: list[dict]) -> dict[str, dict]:
    """Serve throughput (with dispersion samples) from flight-recorder records."""
    from repro.obs.history import HistorySeries

    series = HistorySeries(records)
    points = series.counter_rate("redqaoa_jobs_completed_total")
    rates = [rate for _, rate in points if rate > 0]
    if not rates:
        return {}
    mean = sum(rates) / len(rates)
    return {"serve_jobs_per_sec": _metric(mean, "rate", samples=rates)}


# -- records ------------------------------------------------------------------


def make_record(label: str, paths, unix: float | None = None) -> dict:
    """One normalised trajectory record from one or more BENCH files."""
    metrics: dict[str, dict] = {}
    sources: list[str] = []
    for path in paths:
        path = Path(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        extracted = extract_metrics(payload, source=path.name)
        metrics.update(extracted)
        sources.append(path.name)
    record = {
        "schema": REGRESS_SCHEMA,
        "kind": "bench",
        "label": label,
        "sources": sources,
        "metrics": metrics,
    }
    if unix is not None:
        record["unix"] = unix
    return record


def append_record(path: str | os.PathLike, record: dict) -> None:
    jsonl.append(path, record)


def load_records(paths) -> list[dict]:
    """Normalised records from a mix of trajectory JSONL, flight-recorder
    history, and raw BENCH json files, in the given (chronological) order.

    A ``.jsonl`` file yields its ``kind: "bench"`` records in file order;
    flight-recorder ``kind: "snapshot"`` lines in the same file are
    aggregated into one throughput record.  A ``.json`` file is one BENCH
    payload, normalised through :func:`extract_metrics`.
    """
    records: list[dict] = []
    for path in paths:
        path = Path(path)
        if path.suffix == ".jsonl":
            snapshots: list[dict] = []
            for payload in jsonl.read(path)[0]:
                if payload.get("kind") == "bench":
                    records.append(
                        {
                            "label": payload.get("label", path.stem),
                            "metrics": extract_metrics(payload),
                        }
                    )
                elif payload.get("kind") == "snapshot":
                    snapshots.append(payload)
            if snapshots:
                metrics = metrics_from_history(snapshots)
                if metrics:
                    records.append({"label": path.stem, "metrics": metrics})
        else:
            payload = json.loads(path.read_text(encoding="utf-8"))
            records.append(
                {"label": path.stem, "metrics": extract_metrics(payload, path.name)}
            )
    return records


# -- comparison ---------------------------------------------------------------


def noise_floor(baseline: dict, default_floor: float | None = None) -> float:
    """The relative drop tolerated before a metric counts as regressed.

    ``exact`` metrics always gate at zero.  Otherwise: dispersion-derived
    ``max(5%, 2 * cv)`` when the baseline carries samples, else the static
    per-kind default -- widened to ``default_floor`` when the caller set a
    larger one.
    """
    kind = baseline.get("kind", "rate")
    if kind == "exact":
        return 0.0
    samples = baseline.get("samples") or []
    if len(samples) >= 3:
        mean = sum(samples) / len(samples)
        if mean > 0:
            variance = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
            cv = math.sqrt(variance) / mean
            floor = max(0.05, 2.0 * cv)
        else:
            floor = DEFAULT_FLOORS.get(kind, 0.25)
    else:
        floor = DEFAULT_FLOORS.get(kind, 0.25)
    if default_floor is not None:
        floor = max(floor, float(default_floor))
    return floor


def compare(records: list[dict], default_floor: float | None = None) -> dict:
    """Gate a chronological record sequence against per-metric baselines.

    Records carry disjoint metric sets, so the baseline for each metric is
    the *last record that reported it* -- a sparse trajectory compares
    correctly without every record measuring everything.  Returns
    ``{"ok", "rows", "regressions"}``; a row regresses when its
    direction-adjusted relative change drops below ``-noise_floor``.
    """
    baselines: dict[str, tuple[str, dict]] = {}
    rows: list[dict] = []
    for record in records:
        label = record.get("label", "?")
        for name, metric in sorted(record.get("metrics", {}).items()):
            value = float(metric["value"])
            seen = baselines.get(name)
            if seen is not None:
                base_label, base_metric = seen
                base_value = float(base_metric["value"])
                floor = noise_floor(base_metric, default_floor)
                if base_value != 0:
                    change = (value - base_value) / abs(base_value)
                else:
                    change = 0.0 if value == base_value else math.copysign(1.0, value)
                if metric.get("direction", "higher") == "lower":
                    change = -change
                regressed = change < -floor
                rows.append(
                    {
                        "metric": name,
                        "label": label,
                        "baseline_label": base_label,
                        "baseline": base_value,
                        "value": value,
                        "change": change,
                        "floor": floor,
                        "kind": metric.get("kind", base_metric.get("kind", "rate")),
                        "regressed": regressed,
                    }
                )
            baselines[name] = (label, metric)
    regressions = [row for row in rows if row["regressed"]]
    return {"ok": not regressions, "rows": rows, "regressions": regressions}
