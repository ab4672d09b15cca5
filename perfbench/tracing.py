"""Span recording around the public entry points of the program's layers.

:func:`install` wraps functions and methods of ``repro.serve``,
``repro.service``, ``repro.core``, ``repro.qaoa`` and ``repro.problems``
in the process that calls it; processes forked afterwards (the serve and
batch worker pools) inherit the wrappers.  Nothing inside ``src/`` is
edited: the benchmark measures the program as shipped and only observes
it from the outside.

Spans are kept in memory and appended to ``<dir>/spans-<pid>.jsonl`` when
a job-level span closes and at interpreter exit (forked pool workers end
through ``os._exit``, so they rely on the per-job flush).  One line is one
span: ``[span_id, parent_id, name, t0, t1, job, attrs]`` with ``t0``/``t1``
on ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, one epoch for every
process of the host, so spans of different processes line up).  Spans
nested under a job span carry that span's job id; every tree has one.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

_state = {"dir": None, "buffer": [], "ids": itertools.count(1), "lock": threading.Lock()}
_local = threading.local()

# Span names that close a job-level unit of work: the buffer is flushed
# after each, so a worker killed by ``os._exit`` loses nothing recorded.
_FLUSH_ON = {"service.run_job", "service.compute_reduction"}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _after_fork_in_child() -> None:
    # The parent's unflushed spans belong to the parent; the forking
    # thread's open spans never close in the child.
    _state["buffer"] = []
    _state["lock"] = threading.Lock()
    _local.stack = []


def flush() -> None:
    with _state["lock"]:
        lines, _state["buffer"] = _state["buffer"], []
    if _state["dir"] is None or not lines:
        return
    path = Path(_state["dir"]) / f"spans-{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines))


class _Span:
    __slots__ = ("id", "parent", "name", "job", "attrs", "t0")

    def __init__(self, name: str, job: str | None = None, **attrs) -> None:
        stack = _stack()
        parent = stack[-1] if stack else None
        self.id = f"{os.getpid()}.{next(_state['ids'])}"
        self.parent = parent.id if parent is not None else None
        self.name = name
        self.job = parent.job if parent is not None and parent.job is not None else job
        self.attrs = attrs
        stack.append(self)
        self.t0 = time.perf_counter()

    def close(self) -> None:
        t1 = time.perf_counter()
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        with _state["lock"]:
            _state["buffer"].append(
                [self.id, self.parent, self.name, self.t0, t1, self.job, self.attrs]
            )
        if self.name in _FLUSH_ON and self.parent is None:
            flush()


def _wrap(name: str, job_of=None, attrs_of=None, result_attrs=None):
    """Decorator factory: run the wrapped callable inside one span."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = job_of(*args, **kwargs) if job_of is not None else None
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else {}
            span = _Span(name, job, **attrs)
            try:
                result = fn(*args, **kwargs)
                if result_attrs is not None:
                    span.attrs.update(result_attrs(result, *args, **kwargs))
                return result
            finally:
                span.close()

        return wrapper

    return decorate


def _replace_everywhere(module, attr: str, wrapper) -> None:
    """Point every loaded ``repro`` module's binding of ``module.attr`` at ``wrapper``.

    Functions imported by name (``from repro.service.jobs import run_job``)
    keep their own reference, so each binding is rebound separately.
    """
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _evaluator_wrapper(fn):
    @functools.wraps(fn)
    def evaluate(*args, **kwargs):
        span = _Span("core.eval")
        try:
            return fn(*args, **kwargs)
        finally:
            span.close()

    return evaluate


def install(span_dir: str | os.PathLike) -> None:
    """Record spans for this process (and forked children) into ``span_dir``."""
    import repro.cli  # noqa: F401 - the CLI's import set is the program's
    import repro.core.annealer as annealer
    import repro.core.pipeline as pipeline
    import repro.core.reduction as reduction
    import repro.problems.base as problems_base
    import repro.problems.expectation as problems_expectation
    import repro.qaoa.expectation as qaoa_expectation
    import repro.qaoa.fast_sim as fast_sim
    import repro.qaoa.hamiltonian as hamiltonian
    import repro.qaoa.lightcone as lightcone
    import repro.serve.daemon  # noqa: F401 - binds run_job et al. before patching
    import repro.serve.workers  # noqa: F401
    import repro.service.jobs as jobs
    import repro.service.scheduler  # noqa: F401
    import repro.service.store as store

    Path(span_dir).mkdir(parents=True, exist_ok=True)
    _state["dir"] = str(span_dir)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    atexit.register(flush)

    # -- repro.service ------------------------------------------------------
    _replace_everywhere(
        jobs, "run_job", _wrap("service.run_job", job_of=lambda spec, **_: spec.fingerprint)(jobs.run_job)
    )
    jobs.JobSpec.compute_reduction = _wrap(
        "service.compute_reduction", job_of=lambda spec: spec.fingerprint
    )(jobs.JobSpec.compute_reduction)
    fingerprint_prop = jobs.JobSpec.fingerprint

    def fingerprint(spec):
        if spec._fingerprint is not None:
            return fingerprint_prop.fget(spec)
        span = _Span("service.fingerprint")
        try:
            value = fingerprint_prop.fget(spec)
            if span.job is None:
                span.job = value
            return value
        finally:
            span.close()

    jobs.JobSpec.fingerprint = property(fingerprint, doc=fingerprint_prop.__doc__)
    store.ResultStore.put = _wrap(
        "service.store_put", job_of=lambda self, result: result.fingerprint
    )(store.ResultStore.put)

    # -- repro.core -------------------------------------------------------------
    reduction.GraphReducer.reduce = _wrap("core.reduce")(reduction.GraphReducer.reduce)
    reduction.GraphReducer.reduce_problem = _wrap("core.reduce")(
        reduction.GraphReducer.reduce_problem
    )
    _replace_everywhere(
        annealer,
        "simulated_annealing",
        _wrap("core.sa", result_attrs=lambda result, *a, **k: {"steps": int(result.steps)})(
            annealer.simulated_annealing
        ),
    )
    import repro.qaoa.optimizer as optimizer

    _replace_everywhere(
        optimizer, "cobyla_optimize", _wrap("core.optimizer")(optimizer.cobyla_optimize)
    )
    pipeline.RedQAOA._solve = _wrap("core.readout")(pipeline.RedQAOA._solve)
    pipeline.RedQAOA._solve_problem = _wrap("core.readout")(pipeline.RedQAOA._solve_problem)

    # -- repro.qaoa ---------------------------------------------------------------
    def dense_attrs(hamiltonian_, gammas, betas):
        n = int(hamiltonian_.num_qubits)
        p = len(list(gammas))
        # Computed, not measured: per layer one phase pass plus n mixer
        # passes, each reading and writing the 2**n complex128 state.
        return {"n": n, "p": p, "amp_updates": (1 << n) * n * p,
                "bytes": (1 << n) * 16 * 2 * (n + 1) * p}

    _replace_everywhere(
        fast_sim, "qaoa_statevector", _wrap("qaoa.dense", attrs_of=dense_attrs)(fast_sim.qaoa_statevector)
    )
    _replace_everywhere(
        fast_sim,
        "qaoa_expectation_batch",
        _wrap("qaoa.class_dense")(fast_sim.qaoa_expectation_batch),
    )
    lightcone.LightconePlan.build = classmethod(
        _wrap("qaoa.plan_build", result_attrs=lambda plan, *a, **k: {"classes": len(plan.classes)})(
            lightcone.LightconePlan.build.__func__
        )
    )
    lightcone.LightconePlan.evaluate_batch = _wrap(
        "qaoa.lightcone_eval",
        attrs_of=lambda self, gammas, betas: {"points": int(len(gammas))},
    )(lightcone.LightconePlan.evaluate_batch)
    get_or_build = lightcone.PlanCache.get_or_build

    def plan_lookup(cache, *args, **kwargs):
        hits = cache.hits
        span = _Span("qaoa.plan_lookup")
        try:
            return get_or_build(cache, *args, **kwargs)
        finally:
            span.attrs["hit"] = cache.hits > hits
            span.close()

    lightcone.PlanCache.get_or_build = plan_lookup
    for module, attr in ((qaoa_expectation, "maxcut_evaluator"),
                         (problems_expectation, "problem_evaluator")):
        make_evaluator = getattr(module, attr)

        def setup(*args, __make=make_evaluator, **kwargs):
            span = _Span("qaoa.evaluator_setup")
            try:
                return _evaluator_wrapper(__make(*args, **kwargs))
            finally:
                span.close()

        _replace_everywhere(module, attr, functools.wraps(make_evaluator)(setup))

    # -- repro.problems (and the MaxCut diagonal it will absorb) ------------------
    for cls in (problems_base.DiagonalProblem, hamiltonian.MaxCutHamiltonian):
        prop = cls.diagonal

        def diagonal(obj, __prop=prop):
            if obj._diagonal is not None:
                return __prop.fget(obj)
            span = _Span("problems.diagonal")
            try:
                return __prop.fget(obj)
            finally:
                span.close()

        cls.diagonal = property(diagonal, doc=prop.__doc__)
