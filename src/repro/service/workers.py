"""SimServe worker pool: thread- and process-backed job executors.

Workers pull jobs off the :class:`~repro.service.scheduler.Scheduler`
and execute them through the typed-request dispatch below.  MIL jobs go
through the :class:`~repro.service.model_cache.ModelCache` and run on
whatever executor the engine binds (the native artifact once it is
built, else the Python kernel path); PIL and campaign-cell jobs build
their own rigs (those substrates are single-use by contract).

Every job runs through one lifecycle, whether it is a single job or a
member of a coalesced batch and on either backend: mark it started,
run, map its outcome or exception to a state, then store its record,
emit ``job.finish``, update the metrics and wake its waiters.  Only the
run step differs: :func:`execute_request` for a single job,
:func:`execute_coalesced` for a batch, on the worker thread or
submitted to the process pool.

Two backends:

* ``"thread"`` (default) — jobs run on the worker threads themselves.
  The compiled-model cache is shared service-wide, cancellation is
  cooperative mid-run (the job's cancel event is the run's
  ``SimulationOptions.cancel`` predicate, polled between native chunks
  of at most ``Simulator._NATIVE_CHUNK`` steps or before every Python
  step), and results never cross a pickle boundary, so any model —
  including unserialisable chart models — is accepted.
* ``"process"`` — worker threads proxy single jobs and coalesced
  batches into a shared :class:`~concurrent.futures.ProcessPoolExecutor`.
  Requests must be picklable (module-level builders, like
  :meth:`repro.faults.FaultCampaign.run` requires); each worker process
  keeps its own model cache, so repeat submissions still skip
  compilation per process.  A run that *crashes its process* breaks
  neither the service nor its queue: the pool is rebuilt and every job
  of that run is marked failed.  The crash counts once
  (``crash_count`` and the ``worker_crash`` flight trigger), however
  many coalesced members it ended.

Worker crash-isolation is per job in both backends: an exception inside
a job marks that job ``FAILED`` and the worker moves on — the pool and
the cache are never poisoned.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional, Tuple

from repro.obs.flight import get_flight_recorder
from repro.obs.trace import get_tracer

from .coalesce import CoalescedBatch
from .jobs import (
    CampaignCellRequest,
    Job,
    JobCancelled,
    JobState,
    MILRequest,
    PILRequest,
    SweepRequest,
)
from .model_cache import ModelCache
from .results import JobRecord, ResultStore


# ---------------------------------------------------------------------------
# request execution (shared by both backends)
# ---------------------------------------------------------------------------
def execute_request(
    request: Any,
    cache: ModelCache,
    cancel_event: Optional[threading.Event] = None,
    phases: Optional[dict] = None,
) -> Tuple[dict, Any, bool]:
    """Run one request; returns ``(summary, result, cache_hit)``.

    When ``phases`` is a dict it is filled with per-phase durations
    (seconds): ``cache`` (model resolve + compiled-model cache lease,
    i.e. lookup on a hit / compile on a miss) and ``run`` (the
    simulation itself) — the worker-side slice of the job's latency
    waterfall.  ``phases=None`` skips the marks entirely.
    """
    if isinstance(request, MILRequest):
        return _execute_mil(request, cache, cancel_event, phases)
    if isinstance(request, PILRequest):
        return _execute_pil(request, phases)
    if isinstance(request, CampaignCellRequest):
        return _execute_cell(request, phases)
    if isinstance(request, SweepRequest):
        return _execute_batch_sweep(request, cache, cancel_event, phases)
    raise TypeError(f"unknown request type {type(request).__name__}")


def _run_leased(
    req: Any, cache: ModelCache, cancel: Optional[Callable[[], bool]],
    phases: Optional[dict], make_sim: Callable,
) -> Tuple[Any, Any, bool]:
    """Lease ``req``'s compiled model and run ``make_sim(cm, options)``.

    Returns ``(sim, result, cache_hit)``.  The options carry ``req``'s
    step, horizon, solver and logging, and ``cancel`` as their cancel
    predicate; a cancelled run raises :class:`JobCancelled`.  When
    ``phases`` is a dict it gets the ``cache`` (model resolve + lease)
    and ``run`` marks.
    """
    from repro.model.engine import SimulationCancelled, SimulationOptions

    t_cache = time.perf_counter()
    model = req.resolve_model()
    with cache.lease(model, req.dt) as (cm, hit):
        t_run = time.perf_counter()
        if phases is not None:
            phases["cache"] = t_run - t_cache
        sim = make_sim(cm, SimulationOptions(
            dt=req.dt,
            t_final=req.t_final,
            solver=req.solver,
            use_kernels=req.use_kernels,
            log_all_signals=req.log_all_signals,
            cancel=cancel,
        ))
        try:
            result = sim.run()
        except SimulationCancelled as exc:
            raise JobCancelled() from exc
        if phases is not None:
            phases["run"] = time.perf_counter() - t_run
    return sim, result, hit


def _execute_mil(
    req: MILRequest, cache: ModelCache, cancel_event: Optional[threading.Event],
    phases: Optional[dict] = None,
) -> Tuple[dict, Any, bool]:
    from repro.model.engine import Simulator

    _, result, hit = _run_leased(
        req, cache, cancel_event.is_set if cancel_event is not None else None,
        phases, Simulator,
    )
    summary = {
        "n_steps": int(result.t.shape[0]),
        "t_final": req.t_final,
        "dt": req.dt,
        "signals": result.names,
        "finals": {name: result.final(name) for name in result.names},
    }
    return summary, result, hit


def _execute_batch_sweep(
    req: SweepRequest, cache: ModelCache, cancel_event: Optional[threading.Event],
    phases: Optional[dict] = None,
) -> Tuple[dict, Any, bool]:
    """One batched sweep: every point rides the same compiled model as a
    batch lane, so the service pays compilation and stepping once."""
    from repro.model.batch import BatchSimulator

    sim, result, hit = _run_leased(
        req, cache, cancel_event.is_set if cancel_event is not None else None,
        phases, lambda cm, opts: BatchSimulator(cm, req.scenarios, opts),
    )
    summary = {
        "n_steps": int(result.t.shape[0]),
        "t_final": req.t_final,
        "dt": req.dt,
        "lanes": result.n_lanes,
        "labels": list(result.labels),
        "lanes_diverged": sim.lanes_diverged,
        "signals": result.names,
        "finals": {name: result.final(name).tolist() for name in result.names},
    }
    return summary, result, hit


def execute_coalesced(
    requests: list,
    cache: ModelCache,
    cancel_events: Optional[list] = None,
    phases_out: Optional[list] = None,
) -> list:
    """Run N same-key requests as ONE BatchSimulator; demux per request.

    Each request contributes lanes to a single vector run over the shared
    compiled model — one lane for a MIL job, ``len(scenarios)`` lanes for
    a batched sweep.  Returns ``[(summary, result, cache_hit), ...]`` in
    request order, where each member's result is shaped exactly like its
    serial counterpart (a :class:`~repro.model.SimulationResult` for MIL,
    a per-member :class:`~repro.model.BatchSimulationResult` slice for a
    sweep) and is bit-identical to a direct run.  When ``phases_out`` is
    a list, one phase dict per request is appended to it.

    The run aborts only when **every** member is cancelled; the worker
    honors individual cancellations at demux (that member's lanes are
    computed but dropped — lanes cannot leave a vector run mid-flight).
    """
    from repro.model.batch import BatchScenario, BatchSimulator
    from repro.model.result import BatchSimulationResult

    # lane layout: requests expand left-to-right into batch columns, and
    # sweep scenarios keep their member-local default labels so demuxed
    # slices match what a direct run would have produced
    lane_specs: list[tuple[int, int]] = []
    scenarios: list[BatchScenario] = []
    for i, req in enumerate(requests):
        if isinstance(req, MILRequest):
            lane_specs.append((len(scenarios), 1))
            scenarios.append(BatchScenario({}, label=f"mil{i}"))
        else:
            start = len(scenarios)
            for j, sc in enumerate(req.scenarios):
                if not isinstance(sc, BatchScenario):
                    sc = BatchScenario(overrides=dict(sc))
                if sc.label is None:
                    sc = BatchScenario(sc.overrides, label=f"lane{j}")
                scenarios.append(sc)
            lane_specs.append((start, len(scenarios) - start))
    cancel = None
    if cancel_events:
        def cancel(_evs=tuple(cancel_events)) -> bool:
            return all(ev.is_set() for ev in _evs)
    # cache + run are shared by the whole vector run; demux is the
    # per-member slice-out cost
    shared: Optional[dict] = {} if phases_out is not None else None
    sim, batched, hit = _run_leased(
        requests[0], cache, cancel, shared,
        lambda cm, opts: BatchSimulator(cm, scenarios, opts),
    )
    outs = []
    n_steps = int(batched.t.shape[0])
    for req, (start, count) in zip(requests, lane_specs):
        t_demux = time.perf_counter()
        coalesced = {"width": len(requests), "lanes_total": batched.n_lanes,
                     "lane_offset": start}
        if isinstance(req, MILRequest):
            lane = batched.lane(start)
            summary = {
                "n_steps": n_steps,
                "t_final": req.t_final,
                "dt": req.dt,
                "signals": lane.names,
                "finals": {name: lane.final(name) for name in lane.names},
                "coalesced": coalesced,
            }
            outs.append((summary, lane, hit))
        else:
            sub = BatchSimulationResult(
                batched.t.copy(),
                {name: batched[name][:, start:start + count].copy()
                 for name in batched.names},
                batched.labels[start:start + count],
            )
            summary = {
                "n_steps": n_steps,
                "t_final": req.t_final,
                "dt": req.dt,
                "lanes": count,
                "labels": list(sub.labels),
                # divergence accounting is per vector run, not per member
                "lanes_diverged": sim.lanes_diverged,
                "signals": sub.names,
                "finals": {name: sub.final(name).tolist() for name in sub.names},
                "coalesced": coalesced,
            }
            outs.append((summary, sub, hit))
        if phases_out is not None:
            phases_out.append({**shared, "demux": time.perf_counter() - t_demux})
    return outs


def _execute_pil(
    req: PILRequest, phases: Optional[dict] = None
) -> Tuple[dict, Any, bool]:
    t_run = time.perf_counter()
    rig = req.make_pil(**dict(req.make_kwargs))
    result = rig.run(req.t_final)
    if phases is not None:
        phases["run"] = time.perf_counter() - t_run
    summary = {"t_final": req.t_final}
    for attr in ("steps", "retransmits", "recoveries", "crc_errors",
                 "max_consecutive_loss", "safe_state_steps"):
        if hasattr(result, attr):
            summary[attr] = getattr(result, attr)
    return summary, result, False


def _execute_cell(
    req: CampaignCellRequest, phases: Optional[dict] = None
) -> Tuple[dict, Any, bool]:
    t_run = time.perf_counter()
    outcome = req.campaign.run_cell(req.intensity, req.reliable)
    if phases is not None:
        phases["run"] = time.perf_counter() - t_run
    return outcome.key_metrics(), outcome, False


def record_finish(flight, job: Job) -> None:
    """The ``job.finish`` flight event of a terminal job: one per job,
    whether a worker ran it or the queue finished it (shed, cancelled
    while pending)."""
    if flight.enabled:
        flight.record("job.finish", cat="service", args={
            "job": job.id,
            "kind": job.kind,
            "state": job.state.value,
            "priority": int(job.priority),
            "cache_hit": job.cache_hit,
            "error": job.error,
            "total_s": job.total_s(),
            "phases": dict(job.phase_s),
        })


#: per-worker-process cache for the process backend (each child builds its
#: own on first use — compiled models cannot cross the pickle boundary)
_PROCESS_CACHE: Optional[ModelCache] = None


def _process_entry(execute: Callable, payload: Any, phases: Any) -> tuple:
    """Child-side entry for either run step (:func:`execute_request` or
    :func:`execute_coalesced`) on this process's model cache.  Returns
    ``(output, phases)``: the worker-side phase marks travel back so the
    parent can merge them into the jobs' waterfalls."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = ModelCache()
    return execute(payload, _PROCESS_CACHE, None, phases), phases


#: native-path environment propagated to process-pool children so warm
#: pool jobs share the parent's compile-cache directory and mode
_NATIVE_ENV_KEYS = (
    "REPRO_NATIVE",
    "REPRO_NATIVE_CACHE",
    "REPRO_NATIVE_CC",
)


def _native_env_snapshot() -> dict:
    return {k: os.environ[k] for k in _NATIVE_ENV_KEYS if k in os.environ}


def _process_init(native_env: dict) -> None:
    """Child-process initializer: propagate the parent's native-path
    environment (children then dlopen cached artifacts instead of
    recompiling)."""
    for key, value in native_env.items():
        os.environ.setdefault(key, value)


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------
class WorkerPool:
    """N workers draining the scheduler until it closes."""

    def __init__(
        self,
        scheduler,
        cache: ModelCache,
        store: ResultStore,
        metrics,
        n_workers: int = 2,
        backend: str = "thread",
        flight=None,
        waterfall: bool = True,
    ):
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.scheduler = scheduler
        self.cache = cache
        self.store = store
        self.metrics = metrics
        self.n_workers = n_workers
        self.backend = backend
        #: black-box flight recorder (pass NULL_RECORDER to disable)
        self.flight = flight if flight is not None else get_flight_recorder()
        #: collect per-phase latency marks on every job
        self.waterfall = waterfall
        #: hard child-process crashes survived (BrokenProcessPool rebuilds)
        self.crash_count = 0
        self._threads: list[threading.Thread] = []
        self._proc_pool: Optional[ProcessPoolExecutor] = None
        self._proc_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.metrics.n_workers = self.n_workers
        if self.backend == "process":
            self._proc_pool = self._make_pool()
        for k in range(self.n_workers):
            t = threading.Thread(
                target=self._run, name=f"simserve-worker-{k}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def shutdown(self, wait: bool = True) -> None:
        """Close the queue and (optionally) join the workers.

        Jobs already queued keep draining — workers exit once the closed
        queue is empty.  Use ``Scheduler.drain`` first for a fast abort.
        """
        self.scheduler.close()
        if wait:
            for t in self._threads:
                t.join()
        if self._proc_pool is not None:
            self._proc_pool.shutdown(wait=wait, cancel_futures=True)

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_process_init,
            initargs=(_native_env_snapshot(),),
        )

    def health(self) -> dict:
        """Liveness snapshot for ``/healthz``."""
        alive = sum(1 for t in self._threads if t.is_alive())
        pool_broken = False
        if self.backend == "process":
            with self._proc_lock:
                pool_broken = bool(getattr(self._proc_pool, "_broken", False))
        return {
            "started": self._started,
            "backend": self.backend,
            "workers": self.n_workers,
            "workers_alive": alive,
            "process_pool_broken": pool_broken,
            "crash_count": self.crash_count,
        }

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self.scheduler.next_job(timeout=0.2)
            if item is None:
                if self.scheduler._closed:
                    return
                continue
            if isinstance(item, CoalescedBatch):
                self._execute_coalesced(item)
            else:
                self._execute_job(item)

    def _execute_job(self, job: Job) -> None:
        """One job: :func:`execute_request` through the lifecycle."""
        def run() -> list:
            out, phases = self._run_step(
                execute_request, job.request, job.cancel_event,
                job.phase_s if self.waterfall else None, [job],
            )
            if phases is not None:
                job.phase_s.update(phases)  # the process pool returns a copy
            return [out]

        ident = {"job": job.id}
        tracer = get_tracer()
        if not tracer.enabled:
            self._lifecycle([job], run, ident)
            return
        # the job span attaches to the submitter's open span, so service
        # traffic and the work it triggers share one trace tree
        with tracer.attach(job.trace_parent):
            with tracer.span("service.job", cat="service", args={
                "job": job.id, "kind": job.kind, "priority": job.priority.name,
            }) as span:
                self._lifecycle([job], run, ident)
                span.args["state"] = job.state.name
                span.args["cache_hit"] = job.cache_hit
                queued = job.queued_s()
                if queued is not None:
                    span.args["queue_wait_s"] = queued
                if isinstance(job.request, MILRequest):
                    tracer.instant("service.cache", cat="service", args={
                        "job": job.id, "hit": job.cache_hit,
                    })

    def _execute_coalesced(self, batch: CoalescedBatch) -> None:
        """A coalesced batch: one :func:`execute_coalesced` vector run for
        every member, through the lifecycle."""
        cfg = self.scheduler.coalesce
        members = batch.members
        if cfg is not None and len(members) < cfg.max_batch:
            # step-0 major-step boundary: last call for late arrivals —
            # anything compatible that queued since the batch sealed
            # joins before initialize()
            members.extend(self.scheduler.claim_compatible(
                members[0], cfg.max_batch - len(members) + 1
            ))
        self.metrics.on_coalesce(len(members))

        def run() -> list:
            outs, phases = self._run_step(
                execute_coalesced, [j.request for j in members],
                [j.cancel_event for j in members],
                [] if self.waterfall else None, members,
            )
            for job, ph in zip(members, phases or ()):
                job.phase_s.update(ph)
            # lanes cannot leave a vector run mid-flight: a member
            # cancelled during it is dropped here, at demux
            return [JobCancelled() if job.cancel_event.is_set() else out
                    for job, out in zip(members, outs)]

        ident = {"jobs": [j.id for j in members]}
        tracer = get_tracer()
        if not tracer.enabled:
            self._lifecycle(members, run, ident)
            return
        with tracer.attach(members[0].trace_parent):
            with tracer.span("service.job.coalesced", cat="service", args={
                **ident, "width": len(members),
            }) as span:
                self._lifecycle(members, run, ident)
                span.args["states"] = [j.state.name for j in members]

    def _run_step(
        self, execute: Callable, payload: Any, cancel: Any, phases: Any,
        jobs: list,
    ) -> tuple:
        """``execute(payload, cache, cancel, phases)`` on this worker
        thread, or submitted to the process pool (the child's own model
        cache, no cancel hook).  Returns ``(output, phases)``."""
        if self.backend == "thread":
            return execute(payload, self.cache, cancel, phases), phases
        with self._proc_lock:
            pool = self._proc_pool
        future = pool.submit(_process_entry, execute, payload, phases)
        while True:
            try:
                return future.result(timeout=0.1)
            except FutureTimeout:
                # a queued (not yet started) run can still be cancelled;
                # a running child process cannot be interrupted mid-run
                if all(j.cancel_event.is_set() for j in jobs) and future.cancel():
                    raise JobCancelled()
            except BrokenProcessPool:
                # hard child crash: rebuild the pool so later jobs survive
                with self._proc_lock:
                    if self._proc_pool is pool:
                        self._proc_pool = self._make_pool()
                raise

    def _lifecycle(self, jobs: list, run: Callable[[], list], ident: dict) -> None:
        """Start ``jobs``, run them as one step, and finish each of them.

        ``run()`` is skipped when every job is already cancelled.  It
        returns one outcome per job, ``(summary, result, cache_hit)`` or
        the exception that ended that job; an exception it raises ends
        every job.  A process crash is counted once, however many jobs
        it ended; ``ident`` names the jobs in its records.
        """
        now = time.monotonic()
        for job in jobs:
            job.started_at = now
            job.state = JobState.RUNNING
            self.metrics.on_start()
            if self.waterfall:
                job.mark_queue_phases()
        crashed = False
        try:
            if all(job.cancel_event.is_set() for job in jobs):
                raise JobCancelled()
            outcomes = run()
        except BrokenProcessPool as exc:
            crashed = True
            self.crash_count += 1
            self.flight.record("worker.crash", cat="service",
                               args={**ident, "backend": "process"})
            tracer = get_tracer()
            if tracer.enabled:
                tracer.instant("service.worker_crash", cat="service", args=ident)
            outcomes = [exc] * len(jobs)
        except Exception as exc:  # a bad job must not take the worker down
            outcomes = [exc] * len(jobs)
        for job, outcome in zip(jobs, outcomes):
            self._finish(job, outcome)
        if crashed:
            # after the jobs' job.finish events, so its dump counts them failed
            self.flight.trigger("worker_crash", args={**ident, "error": jobs[0].error})
        for job in jobs:
            job.done_event.set()

    def _finish(self, job: Job, outcome: Any) -> None:
        """Map one job's outcome to its terminal state, then store its
        record, emit ``job.finish`` and count it."""
        summary: dict = {}
        result: Any = None
        if isinstance(outcome, JobCancelled):
            job.state = JobState.CANCELLED
        elif isinstance(outcome, Exception):
            job.state = JobState.FAILED
            job.error = f"{type(outcome).__name__}: {outcome}"
        else:
            summary, result, job.cache_hit = outcome
            job.state = JobState.DONE
        job.finished_at = time.monotonic()
        retain = getattr(job.request, "retain_trace", False)
        rec = JobRecord.from_job(job, summary, result if retain else None)
        t_store = time.perf_counter()
        self.store.put(rec)
        if self.waterfall:
            # stamped after the fact: the record shares the duration even
            # though its phase dict was copied before the put
            store_s = time.perf_counter() - t_store
            job.phase_s["store"] = store_s
            rec.phase_s["store"] = store_s
        record_finish(self.flight, job)
        # a crash fires worker_crash once, from the lifecycle
        if job.state is JobState.FAILED and not isinstance(outcome, BrokenProcessPool):
            self.flight.trigger("job_exception", args={"job": job.id, "error": job.error})
        self.metrics.on_finish(job)
