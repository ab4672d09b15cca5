"""Workload inputs, generated from the benchmark seed alone.

Each workload is an endless stream of requests; request ``i`` depends only
on ``(seed, i)``, so a run that gets further than another sees the same
prefix.  Sizes are stratified (every request draws from the same fixed mix
of sizes, kinds and weightings) so that per-run averages move little from
one seed to the next.

- ``serve-dense``: one request = a manifest of 4 MaxCut jobs on connected
  G(n, 0.35) graphs, n = 18 (two weighted), p = 2, with a fine-tune
  phase.  Every evaluation at full size is a dense statevector (n <= 20),
  so the dense RX mixer dominates.  (An n = 19 job costs 2.4 times an
  n = 18 one; with them a manifest took about 11 s and a run held only one
  or two requests.)
- ``serve-small``: one request = 1-3 jobs at n = 10-12, p = 1, small
  budgets, cycling MaxCut / MIS / SK; one job slot in four resubmits a job
  of an earlier request (served from the daemon's store).
- ``batch-sparse``: one request = one batch of field-free MaxCut problems
  on 3-regular graphs: four at n = 52, 60, 68, 76, p = 2 (two weighted),
  two budget variants that share an instance (hence a reduction and a
  plan) with the first two, and two at p = 1 with n = 250 and 350.  Sizes
  are fixed, so only the random graphs differ between batches and seeds.
  3-regular graphs keep every distance-2 lightcone at <= 14 nodes, so no
  job can exceed the lightcone engine's 20-qubit cap, and the dense
  readout is skipped (n > 26).

``mini=True`` gives the smoke test's miniature of serve-dense and
batch-sparse (n = 10-11 and n = 28-34 / 30, 60); serve-small is small already.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("serve-dense", "batch-sparse", "serve-small")

# Requests whose jobs define the seed-determined quality metrics and the
# fixed job set of a traced run.  An untraced run serves at least these
# requests (it keeps going past ``--seconds`` if it has to), so quality is
# always measured on jobs the run served and checked.  ``mini`` (the smoke
# test's miniature) shrinks them together with the instance sizes.
PREFIX = {"serve-dense": 3, "serve-small": 100, "batch-sparse": 2}
PREFIX_MINI = {"serve-dense": 1, "serve-small": 6, "batch-sparse": 1}


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed), tag, int(index)])


def _gseed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def serve_dense_request(seed: int, index: int, mini: bool = False) -> dict:
    rng = _rng(seed, "serve-dense", index)
    sizes = [10, 10, 11, 11] if mini else [18, 18, 18, 18]
    weighted = [True, False, True, False]
    order = rng.permutation(4)
    jobs = []
    for k in order:
        job = {"kind": "maxcut", "nodes": sizes[k], "seed": _gseed(rng), "edge_probability": 0.35}
        if weighted[k]:
            job["weight_dist"] = "uniform"
        jobs.append(job)
    return {
        "schema": 1,
        "defaults": {"p": 2, "restarts": 2, "maxiter": 15, "finetune_maxiter": 4},
        "jobs": jobs,
    }


def _small_job(rng: np.random.Generator, slot: int) -> dict:
    kind = ("maxcut", "mis", "sk")[slot % 3]
    nodes = (10, 11, 12)[(slot // 3) % 3]
    job = {"kind": kind, "nodes": nodes, "seed": _gseed(rng),
           "p": 1, "restarts": 1, "maxiter": 12}
    if kind == "maxcut" and (slot // 9) % 2:
        job["weight_dist"] = "uniform"
    return job


def serve_small_stream(seed: int):
    """Yield manifests: sizes cycle a shuffled (1, 2, 3); one slot in 4 resubmits."""
    fresh: list[dict] = []
    slot = 0
    index = 0
    while True:
        rng = _rng(seed, "serve-small", index)
        sizes = rng.permutation([1, 2, 3])
        for size in sizes:
            jobs = []
            earlier = list(fresh)  # only jobs of earlier requests are cached
            for _ in range(int(size)):
                if slot % 4 == 3 and earlier:
                    jobs.append(dict(earlier[int(rng.integers(len(earlier)))]))
                else:
                    job = _small_job(rng, slot)
                    jobs.append(job)
                    fresh.append(job)
                slot += 1
            yield {"schema": 1, "jobs": jobs}
        index += 1


def _regular(rng: np.random.Generator, n: int, weighted: bool) -> dict:
    import networkx as nx

    graph = nx.random_regular_graph(3, n, seed=_gseed(rng))
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    if weighted:
        weights = rng.uniform(0.1, 2.0, size=len(edges))
        return {"n": n, "edges": [[u, v, float(w)] for (u, v), w in zip(edges, weights)]}
    return {"n": n, "edges": [[u, v] for u, v in edges]}


def batch_sparse_request(seed: int, index: int, mini: bool = False) -> dict:
    rng = _rng(seed, "batch-sparse", index)
    base = []
    for k in range(4):
        n = (28 + 2 * k) if mini else 52 + 8 * k
        base.append({"graph": _regular(rng, n, weighted=k % 2 == 0),
                     "p": 2, "restarts": 2, "maxiter": 12})
    variants = [{**base[k], "maxiter": 20} for k in (0, 1)]
    large = [{"graph": _regular(rng, n, weighted=False), "p": 1, "restarts": 1, "maxiter": 10}
             for n in ((30, 60) if mini else (250, 350))]
    jobs = base + variants + large
    order = rng.permutation(len(jobs))
    return {"jobs": [jobs[k] for k in order]}


def requests(workload: str, seed: int, mini: bool = False):
    """The workload's request stream (infinite)."""
    if workload == "serve-small":
        yield from serve_small_stream(seed)
        return
    make = serve_dense_request if workload == "serve-dense" else batch_sparse_request
    index = 0
    while True:
        yield make(seed, index, mini)
        index += 1


def batch_specs(request: dict) -> list:
    """JobSpecs of one batch-sparse request (the batch host and the oracle share this)."""
    import networkx as nx

    from repro.problems import maxcut_problem
    from repro.service.jobs import JobSpec

    specs = []
    for position, job in enumerate(request["jobs"]):
        graph = nx.Graph()
        graph.add_nodes_from(range(job["graph"]["n"]))
        for edge in job["graph"]["edges"]:
            if len(edge) == 3:
                graph.add_edge(edge[0], edge[1], weight=edge[2])
            else:
                graph.add_edge(edge[0], edge[1])
        specs.append(
            JobSpec(
                problem=maxcut_problem(graph),
                p=job["p"],
                restarts=job["restarts"],
                maxiter=job["maxiter"],
                label=f"regular3-n{job['graph']['n']}-{position}",
            )
        )
    return specs


def request_specs(workload: str, request: dict) -> list:
    """JobSpecs of one request, exactly as the program builds them."""
    if workload == "batch-sparse":
        return batch_specs(request)
    from repro.service.campaign import manifest_specs

    return manifest_specs(request)
