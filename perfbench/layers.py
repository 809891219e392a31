"""Install the layer wrappers and turn their accumulators into metrics.

Each wrapper sits on a public call of one layer:

=========  ==========================================================
sim        ``PILSimulator.run``, ``split_plant_model``
mcu        ``MCUDevice.schedule`` / ``run_until``,
           ``InterruptController.request``
comm       ``SerialLine.transmit``, ``PacketDecoder.feed``,
           ``PacketCodec.encode`` / ``encode_control``,
           ``ReliableChannel.send`` / ``on_packet``
faults     ``FaultPlan.byte_fault``
core       ``PEERTTarget.build``
model      ``build_servo_model``, ``CompiledModel.build`` (behind
           ``Model.compile``), ``Simulator.initialize`` / ``advance`` /
           ``run``, ``BatchSimulator.run``
native     ``generate_program``, ``ensure_compiled``
fuzz/obs   ``PlanMutator.mutate``, ``extract_signature``
service    ``SimServe.submit``, ``Scheduler.next_job``,
           ``ModelCache.lease``, ``execute_request``, ``ResultStore.put``
=========  ==========================================================

Counters that a layer already publishes (``native_cache_stats()``,
``kernel_fallback_total{reason}``, ``PILResult``, the service metrics
snapshot) are read from those snapshots, not recomputed.
"""

from __future__ import annotations

from time import monotonic, perf_counter

from catalogue import FALLBACK_REASONS
from tracer import LayerTracer

CLASSES = ("clean", "faulted")


def install(tracer: LayerTracer) -> None:
    """Patch every layer entry point to record spans into ``tracer``."""
    import repro.casestudy as casestudy
    import repro.fuzz.signature as signature
    import repro.native as native
    import repro.service.workers as workers
    import repro.sim.pil as pil
    from repro.comm.line import SerialLine
    from repro.comm.packets import PacketCodec, PacketDecoder, PacketType
    from repro.comm.reliable import ReliableChannel
    from repro.core.target import PEERTTarget
    from repro.faults.plan import FaultPlan
    from repro.fuzz.mutate import PlanMutator
    from repro.mcu.device import MCUDevice
    from repro.mcu.interrupts import InterruptController
    from repro.model.batch import BatchSimulator
    from repro.model.compiled import CompiledModel
    from repro.model.engine import Simulator
    from repro.service.client import SimServe
    from repro.service.model_cache import ModelCache
    from repro.service.results import ResultStore
    from repro.service.scheduler import Scheduler

    w = tracer.wrap
    # -- sim ------------------------------------------------------------
    def pil_done(args, result, tr):
        suffix = tr.state().suffix
        tr.count(f"comm{suffix}.retransmits", result.retransmits)
        tr.count(f"comm{suffix}.data_fresh", len(result.data_latencies))

    w(pil.PILSimulator, "run", "sim.pil_run", pil_done)
    w(pil, "split_plant_model", "sim.split")
    # -- mcu ------------------------------------------------------------
    w(MCUDevice, "schedule", "mcu.schedule")
    w(MCUDevice, "run_until", "mcu.run_until")
    w(InterruptController, "request", "mcu.irq")
    # -- comm (split by candidate class) ---------------------------------
    w(SerialLine, "transmit", "comm.line.")
    w(PacketDecoder, "feed", "comm.decode.")
    w(PacketCodec, "encode", "comm.encode.")
    w(PacketCodec, "encode_control", "comm.encode.")

    def arq_send(args, result, tr):
        if args[1] is PacketType.DATA:
            tr.count(f"comm{tr.state().suffix}.data_sent")

    w(ReliableChannel, "send", "comm.arq.", arq_send)
    w(ReliableChannel, "on_packet", "comm.arq.")
    # -- faults / core --------------------------------------------------
    w(FaultPlan, "byte_fault", "faults.byte_hook")
    w(PEERTTarget, "build", "core.build")
    # -- model ------------------------------------------------------------
    w(casestudy, "build_servo_model", "model.build")
    w(CompiledModel, "build", "model.compile")

    def init_done(args, result, tr):
        if args[0].native_active:
            tr.count("engine.native_inits")

    w(Simulator, "initialize", "engine.initialize", init_done)
    _wrap_advance(tracer, Simulator)
    _wrap_run(tracer, Simulator)

    def batch_done(args, result, tr):
        tr.count("batch.lane_steps", result.n_lanes * len(result.t))

    w(BatchSimulator, "run", "batch.run", batch_done)
    # -- native -----------------------------------------------------------
    w(native, "generate_program", "native.codegen")
    w(native, "ensure_compiled", "native.ensure")
    # -- fuzz / obs -------------------------------------------------------
    w(PlanMutator, "mutate", "fuzz.mutate")

    def sig_done(args, result, tr):
        tr.count("obs.capture_events", len(args[0]))

    w(signature, "extract_signature", "fuzz.signature", sig_done)
    # -- service ------------------------------------------------------------
    def submitted(args, result, tr):
        tr.job_of[id(args[1])] = result.job_id

    w(SimServe, "submit", "service.submit", submitted)
    _wrap_next_job(tracer, Scheduler)
    _wrap_lease(tracer, ModelCache)
    _wrap_execute(tracer, workers)
    w(ResultStore, "put", "service.store")


def _wrap_advance(tracer: LayerTracer, Simulator) -> None:
    """``advance`` calls from co-simulation get a span each; the ones
    ``Simulator.run`` makes are left bare and count under ``engine.run``."""
    def make(orig):
        def advance(self):
            if tracer.state().in_run:
                return orig(self)
            return tracer.span("engine.advance", orig, self)
        return advance

    tracer.patch(Simulator, "advance", make)


def _wrap_run(tracer: LayerTracer, Simulator) -> None:
    """``Simulator.run``: span plus the step split by substrate (native
    or Python), with the run's self time as the denominator."""
    def make(orig):
        def run(self):
            ts = tracer.state()
            frame = tracer._open(ts)
            outer = ts.in_run
            ts.in_run = True
            t0 = perf_counter()
            try:
                result = orig(self)
            finally:
                t1 = perf_counter()
                ts.in_run = outer
                self_s = (t1 - t0) - frame[1]
                tracer._close(ts, frame, "engine.run", t0, t1)
            kind = "native" if self.native_active else "python"
            tracer.count(f"engine.{kind}_steps", len(result.t))
            tracer.count(f"engine.{kind}_run_s", self_s)
            return result
        return run

    tracer.patch(Simulator, "run", make)


def _wrap_next_job(tracer: LayerTracer, Scheduler) -> None:
    """``Scheduler.next_job`` is where a worker waits, so it gets no
    span.  It yields the queue wait (submit -> dequeue) and each
    worker's busy window (dequeue -> its next ``next_job`` call)."""
    def make(orig):
        def next_job(self, timeout=None):
            ts = tracer.state()
            if ts.work_open is not None:
                tracer.count("service.worker_busy_s", perf_counter() - ts.work_open)
                ts.work_open = None
            item = orig(self, timeout)
            if item is not None:
                ts.work_open = perf_counter()
                members = getattr(item, "members", None) or [item]
                now = monotonic()
                for job in members:
                    tracer.count("service.queue_wait_s", now - job.submitted_at)
            return item
        return next_job

    tracer.patch(Scheduler, "next_job", make)


class _TimedLease:
    """Context manager proxy: the lease acquisition (hash, lookup, and
    the compile on a miss) is the ``service.cache_lease`` span; the body
    of the ``with`` is not part of it."""

    def __init__(self, tracer: LayerTracer, cm):
        self._tracer = tracer
        self._cm = cm

    def __enter__(self):
        return self._tracer.span("service.cache_lease", self._cm.__enter__)

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


def _wrap_lease(tracer: LayerTracer, ModelCache) -> None:
    def make(orig):
        def lease(self, model, dt):
            return _TimedLease(tracer, orig(self, model, dt))
        return lease

    tracer.patch(ModelCache, "lease", make)


def _wrap_execute(tracer: LayerTracer, workers) -> None:
    """``execute_request`` runs on a worker thread: tag the thread with
    the job id the submit wrapper recorded, then span the call."""
    def make(orig):
        def execute_request(request, *args, **kwargs):
            tracer.set_op(tracer.job_of.get(id(request)), ".clean")
            ts = tracer.state()
            if ts.work_open is None:
                # dequeued by a next_job call made before the wrappers
                # went in: the busy window starts here
                ts.work_open = perf_counter()
            return tracer.span("service.exec", orig, request, *args, **kwargs)
        return execute_request

    tracer.patch(workers, "execute_request", make)


# ---------------------------------------------------------------------------
# read-out
# ---------------------------------------------------------------------------
def fallback_counts() -> dict:
    """``kernel_fallback_total{reason}`` from the obs registry snapshot."""
    from repro.obs.metrics import get_registry

    out = {}
    for key, value in get_registry().snapshot().items():
        if key.startswith("kernel_fallback_total{"):
            reason = key.split('reason="', 1)[1].split('"', 1)[0]
            out[reason] = value
    return out


def snapshot() -> dict:
    """The public counters read before and after a traced phase."""
    from repro.native import native_cache_stats

    return {"native": native_cache_stats(), "fallback": fallback_counts()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer, before: dict, after: dict,
                  service: dict, extra: dict) -> dict:
    """Every per-layer metric value.  ``service`` is the service
    metrics snapshot of the traced phase ({} when no service ran);
    ``extra`` holds what the workload measured itself (ops, work
    window, novel ratio, generator lag, overhead)."""
    stats = tracer.stats()
    counts = tracer.counts()

    def n(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def c(key):
        return counts.get(key, 0)

    m = {
        "sim.pil_runs": n("sim.pil_run"),
        "sim.pil_run_s": stats.get("sim.pil_run", (0, 0.0, 0.0))[1],
        "sim.pil_self_s": self_s("sim.pil_run"),
        "sim.split_s": self_s("sim.split"),
        "mcu.run_until_self_s": self_s("mcu.run_until"),
        "mcu.schedule_calls": n("mcu.schedule"),
        "mcu.schedule_s": self_s("mcu.schedule"),
        "mcu.irq_requests": n("mcu.irq"),
        "mcu.irq_s": self_s("mcu.irq"),
    }
    for cls in CLASSES:
        p = f"comm.{cls}."
        m[p + "line_transmits"] = n(f"comm.line.{cls}")
        m[p + "line_s"] = self_s(f"comm.line.{cls}")
        m[p + "decode_feeds"] = n(f"comm.decode.{cls}")
        m[p + "decode_s"] = self_s(f"comm.decode.{cls}")
        m[p + "encodes"] = n(f"comm.encode.{cls}")
        m[p + "encode_s"] = self_s(f"comm.encode.{cls}")
        m[p + "arq_calls"] = n(f"comm.arq.{cls}")
        m[p + "arq_s"] = self_s(f"comm.arq.{cls}")
        m[p + "retransmits"] = c(f"comm.{cls}.retransmits")
        m[p + "data_fresh_ratio"] = _ratio(
            c(f"comm.{cls}.data_fresh"), c(f"comm.{cls}.data_sent"))
    nat_b, nat_a = before["native"], after["native"]
    fb_b, fb_a = before["fallback"], after["fallback"]
    cache = service.get("cache", {})
    m.update({
        "faults.byte_hook_calls": n("faults.byte_hook"),
        "faults.byte_hook_s": self_s("faults.byte_hook"),
        "core.builds": n("core.build"),
        "core.build_s": self_s("core.build"),
        "model.builds": n("model.build"),
        "model.build_s": self_s("model.build"),
        "model.compiles": n("model.compile"),
        "model.compile_s": self_s("model.compile"),
        "engine.initializes": n("engine.initialize"),
        "engine.initialize_s": self_s("engine.initialize"),
        "engine.advance_calls": n("engine.advance"),
        "engine.advance_s": self_s("engine.advance"),
        "engine.runs": n("engine.run"),
        "engine.run_s": self_s("engine.run"),
        "engine.python_steps_per_s": _ratio(
            c("engine.python_steps"), c("engine.python_run_s")),
        "engine.native_active_ratio": _ratio(
            c("engine.native_inits"), n("engine.initialize")),
    })
    for reason in FALLBACK_REASONS:
        m[f"engine.fallback.{reason}"] = fb_a.get(reason, 0) - fb_b.get(reason, 0)
    m.update({
        "batch.runs": n("batch.run"),
        "batch.run_s": self_s("batch.run"),
        "batch.lane_steps": c("batch.lane_steps"),
        "native.codegens": n("native.codegen"),
        "native.codegen_s": self_s("native.codegen"),
        "native.compile_s": nat_a["compile_s_total"] - nat_b["compile_s_total"],
        "native.cache_hits": nat_a["hits"] - nat_b["hits"],
        "native.cache_misses": nat_a["misses"] - nat_b["misses"],
        "native.steps_per_s": _ratio(
            c("engine.native_steps"), c("engine.native_run_s")),
        "fuzz.clean_candidates": c("fuzz.clean_candidates"),
        "fuzz.faulted_candidates": c("fuzz.faulted_candidates"),
        "fuzz.mutations": n("fuzz.mutate"),
        "fuzz.mutate_s": self_s("fuzz.mutate"),
        "fuzz.signatures": n("fuzz.signature"),
        "fuzz.signature_s": self_s("fuzz.signature"),
        "fuzz.novel_ratio": extra.get("novel_ratio", 0.0),
        "obs.capture_events": c("obs.capture_events"),
        "service.submits": n("service.submit"),
        "service.submit_s": self_s("service.submit"),
        "service.queue_wait_s": c("service.queue_wait_s"),
        "service.cache_leases": n("service.cache_lease"),
        "service.cache_lease_s": self_s("service.cache_lease"),
        "service.model_cache_hit_ratio": cache.get("hit_rate", 0.0),
        "service.execs": n("service.exec"),
        "service.exec_s": self_s("service.exec"),
        "service.store_puts": n("service.store"),
        "service.store_s": self_s("service.store"),
        "service.rejected": service.get("jobs", {}).get("rejected", 0),
        "loadgen.max_lag_ms": extra.get("max_lag_ms", 0.0),
    })
    # work window: the closed loops work on the main thread for the
    # whole phase; the service works on its worker threads while they
    # hold a job, so only those threads' spans count against it
    busy = c("service.worker_busy_s")
    if busy:
        work_s = busy
        where = lambda ts: "service.worker_busy_s" in ts.counts  # noqa: E731
    else:
        work_s, where = extra["wall_s"], None
    layer_self = sum(v[2] for k, v in tracer.stats(where).items()
                     if not k.startswith("bench."))
    m.update({
        "trace.ops": extra["ops"],
        "trace.work_s": work_s,
        "unattributed_s": work_s - layer_self,
        "trace_overhead_pct": extra["overhead_pct"],
    })
    return m
