"""Machine-readable perf harness for the hot substrates.

Measures the throughput numbers the ISSUE/ROADMAP track — engine
steps/s (kernel fast path *and* reference interpreter), batch-ensemble
speedup over serial sweeps, MCU event dispatch events/s, packet-codec
round-trips/s, fault-campaign cells/s (serial and parallel) — and
writes them to ``BENCH_substrates.json`` next to this file.

Regression gating (``--check``) compares against the committed JSON
before overwriting it.  Because CI machines differ wildly in absolute
speed, the default gate uses machine-portable quantities:

* **ratios** measured within one process on one machine — the kernel
  speedup (fast path vs reference interpreter on the same model) and the
  speedup over the recorded pre-optimization seed interpreter is
  structural, not hardware, so a collapse means a real regression;
* **calibrated absolutes** — every throughput is also recorded
  normalized by a fixed pure-Python spin loop timed in the same run,
  which cancels most of the host-speed difference.

``--strict-absolute`` additionally gates the raw per-second numbers
(useful when the baseline was produced on the same machine).
``--update`` rewrites the baseline without checking.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py            # measure + write
    PYTHONPATH=src python benchmarks/perf_harness.py --check    # gate vs committed
    PYTHONPATH=src python benchmarks/perf_harness.py --update   # refresh baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_JSON = HERE / "BENCH_substrates.json"

#: steps/s of the pre-optimization (seed) interpreter on the reference
#: machine, measured at the commit that introduced the kernel fast path —
#: the "before" of the before/after table in README.md
SEED_STEPS_PER_S = 8_700.0

#: relative tolerance of the regression gates
TOLERANCE = 0.20

#: enabled tracing may slow the engine hot loop by at most this much
MAX_TRACING_OVERHEAD_PCT = 5.0

#: the always-on ops plane (flight recorder + per-phase waterfall marks)
#: may slow the service job path by at most this much vs both disabled
MAX_OPS_OVERHEAD_PCT = 5.0

#: a 32-lane batched servo ensemble must beat the serial sweep (one
#: kernel-path Simulator per lane on an already-compiled model) by at
#: least this factor — the PR-5 acceptance floor, machine-portable
#: because both sides run in the same process
MIN_BATCH_SPEEDUP = 3.0

#: continuous batching must beat serially-scheduled identical jobs on
#: the Python kernel path by at least this factor at 16 staggered
#: submissions — the PR-7 acceptance floor (same process, same worker
#: count, so the ratio is structural)
MIN_COALESCE_SPEEDUP = 2.0

#: the native C extension must beat the Python kernel fast path on the
#: servo step loop by at least this factor (warm cache, same process,
#: same model — a structural ratio, not a hardware number)
MIN_NATIVE_SPEEDUP = 2.0


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------
def _calibrate(n: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python spin — the machine-speed yardstick."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(n):
        acc += i * 0.5
    dt = time.perf_counter() - t0
    assert acc != 0.0
    return dt


def bench_engine(use_kernels: bool, t_final: float = 0.5) -> dict:
    from repro.casestudy import ServoConfig, build_servo_model
    from repro.model import Simulator, SimulationOptions

    sm = build_servo_model(ServoConfig(setpoint=100.0))
    # native=False: this bench isolates the *Python* kernel fast path
    # against the reference interpreter; bench_native owns the C side
    sim = Simulator(
        sm.model,
        SimulationOptions(
            dt=1e-4, t_final=t_final, use_kernels=use_kernels, native=False
        ),
    )
    sim.initialize()
    n_steps = int(round(t_final / 1e-4)) + 1
    sim.log.reserve(n_steps)
    t0 = time.perf_counter()
    for _ in range(n_steps):
        sim.advance()
    elapsed = time.perf_counter() - t0
    return {
        "steps": n_steps,
        "steps_per_s": n_steps / elapsed,
        "fast_path_active": sim.fast_path is not None,
        "fallback_reason": sim.kernel_fallback_reason,
    }


def bench_native(t_final: float = 0.5) -> dict:
    """Native C extension vs the Python kernel fast path on the servo.

    Three timed legs on the same compiled model: the Python kernel path,
    a **cold** native run into an empty disk cache (pays codegen + cc),
    and a **warm** native run from a fresh Simulator (regenerates the TU
    in-process, then dlopens the cached ``.so`` — the SimServe repeat-job
    shape).  The gated speedup is warm-native over Python, the results
    must be bit-identical, and the cache stats must show exactly one
    miss then one hit.
    """
    import os
    import shutil
    import tempfile

    import numpy as np

    from repro.casestudy import ServoConfig, build_servo_model
    from repro.model import Simulator, SimulationOptions
    from repro.native import find_cc, native_cache_stats

    dt = 1e-4
    n_steps = int(round(t_final / dt)) + 1
    cm = build_servo_model(ServoConfig(setpoint=100.0)).model.compile(dt)

    def timed_run(native):
        sim = Simulator(
            cm,
            SimulationOptions(
                dt=dt, t_final=t_final, use_kernels=True, native=native
            ),
        )
        t0 = time.perf_counter()
        sim.initialize()
        init_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = sim.run()
        return sim, res, init_s, time.perf_counter() - t0

    if find_cc() is None:
        # toolchain-absent hosts still produce a report: the Python path
        # is the product there and the fallback reason is the datum
        sim, _, _, run_s = timed_run(True)
        return {
            "toolchain": None,
            "native_active": False,
            "fallback_reason": sim.native_fallback_reason,
            "python_steps_per_s": n_steps / run_s,
        }

    prev = os.environ.get("REPRO_NATIVE_CACHE")
    tmp = tempfile.mkdtemp(prefix="repro-native-bench-")
    os.environ["REPRO_NATIVE_CACHE"] = tmp
    try:
        before = native_cache_stats()
        _, py_res, _, py_run_s = timed_run(False)
        cold_sim, cold_res, cold_init_s, cold_run_s = timed_run(True)
        warm_sim, warm_res, warm_init_s, warm_run_s = timed_run(True)
        stats = native_cache_stats()
    finally:
        if prev is None:
            os.environ.pop("REPRO_NATIVE_CACHE", None)
        else:
            os.environ["REPRO_NATIVE_CACHE"] = prev
        shutil.rmtree(tmp, ignore_errors=True)

    bit_identical = py_res.names == warm_res.names and all(
        np.array_equal(py_res[name], warm_res[name])
        and np.array_equal(py_res[name], cold_res[name])
        for name in py_res.names
    )
    py_sps = n_steps / py_run_s
    native_sps = n_steps / warm_run_s
    return {
        "toolchain": stats.get("toolchain"),
        "native_active": warm_sim.native_active,
        "fallback_reason": warm_sim.native_fallback_reason
        or cold_sim.native_fallback_reason,
        "steps": n_steps,
        "python_steps_per_s": py_sps,
        "native_steps_per_s": native_sps,
        "native_speedup": native_sps / py_sps,
        "cold_init_s": cold_init_s,
        "warm_init_s": warm_init_s,
        "compile_amortization": cold_init_s / warm_init_s
        if warm_init_s > 0 else float("inf"),
        "cache_misses": stats["misses"] - before["misses"],
        "cache_hits": stats["hits"] - before["hits"],
        "compile_s": stats["compile_s_total"] - before["compile_s_total"],
        "bit_identical": bit_identical,
    }


def bench_batch_ensemble(n_lanes: int = 32, t_final: float = 0.25) -> dict:
    """Batched scenario ensemble vs the best serial sweep on the servo.

    The serial baseline reuses one compiled model across all lanes with
    the kernel fast path on — compilation already amortized, i.e. the
    strongest sequential opponent.  The batch side pays for everything:
    planning, lane cloning, and the run itself (on native lanes: codegen
    and, in a cold cache, ``cc``).  Lanes must come back bit-identical to
    their serial runs or the whole bench is void.  ``substrate`` names
    the executor that ran the lanes; ``vectorized_fraction`` is reported
    only on the numpy engine, with the reason native lanes did not bind.
    """
    import numpy as np

    from repro.casestudy import ServoConfig, build_servo_model
    from repro.model import BatchSimulator, SimulationOptions, Simulator

    dt = 1e-4
    scenarios = [
        {"controller.ref": {"value": 60.0 + 2.5 * k}} for k in range(n_lanes)
    ]

    cm = build_servo_model(ServoConfig(setpoint=100.0)).model.compile(dt)
    t0 = time.perf_counter()
    serial = []
    for overrides in scenarios:
        for qname, attrs in overrides.items():
            for attr, value in attrs.items():
                setattr(cm.nodes[qname], attr, value)
        serial.append(
            Simulator(
                cm,
                SimulationOptions(
                    dt=dt, t_final=t_final, use_kernels=True, native=False
                ),
            ).run()
        )
    serial_s = time.perf_counter() - t0

    cm_batch = build_servo_model(ServoConfig(setpoint=100.0)).model.compile(dt)
    t0 = time.perf_counter()
    sim = BatchSimulator(
        cm_batch, scenarios, SimulationOptions(dt=dt, t_final=t_final)
    )
    batched = sim.run()
    batch_s = time.perf_counter() - t0

    bit_identical = all(
        np.array_equal(ref[name], batched.lane(b)[name])
        for b, ref in enumerate(serial)
        for name in ref.names
    )
    n_steps = int(batched.t.shape[0])
    out = {
        "lanes": n_lanes,
        "n_steps": n_steps,
        "serial_s": serial_s,
        "batch_s": batch_s,
        "batch_speedup_vs_serial": serial_s / batch_s,
        "lane_steps_per_s": n_lanes * n_steps / batch_s,
        "bit_identical": bit_identical,
        "lanes_diverged": sim.lanes_diverged,
        "substrate": sim.substrate,
        "fallback_reason": sim.native_fallback_reason,
    }
    if not sim.native_active:
        out["vectorized_fraction"] = sim.plan_stats["vectorized_fraction"]
    return out


def bench_continuous_batching(n_jobs: int = 16, t_final: float = 0.4) -> dict:
    """Coalesced (continuous-batching) throughput vs serial scheduling.

    Both sides see the identical workload: ``n_jobs`` staggered
    submissions of the same MIL request into a 1-worker SimServe.  The
    serial side runs them one after another; the coalesced side lets
    the scheduler form one vector job (coalesce window covers the
    stagger) and demux per-lane results.  Every job's result must stay
    bit-identical to a direct Simulator run or the bench is void.

    The workload is a fully-affine closed loop (100% vectorizable), so
    the measured ratio isolates what continuous batching adds on top of
    the batch engine rather than the per-lane residue of a particular
    model (the servo's lane block caps B=16 engine speedup near the
    gate; ``bench_batch_ensemble`` still covers that mixed shape).

    The gated serial leg runs under ``REPRO_NATIVE=off``: its opponent
    is the serial Python kernel path the floor was calibrated on, while
    a short MIL job binds the native artifact once it is built.  The
    coalesced leg runs on native lanes once the artifact is built.

    Ungated, ``coalesced_vs_serial_native`` compares the vector path
    with serial native jobs on queued work: ``n_jobs`` requests through
    one :func:`execute_coalesced` against ``n_jobs``
    :func:`execute_request` calls, on one warm ``ModelCache`` with the
    artifact built (best of 20 per side, interleaved).
    Timing the staggered service legs instead would measure the 1 ms
    arrival spacing: with chunked native jobs the serial leg finishes
    each job before the next arrives.
    """
    import os
    from unittest import mock

    import numpy as np

    from repro.model import Model, SimulationOptions, Simulator
    from repro.model.library import Constant, Gain, Integrator, Scope, Sum
    from repro.native import wait_pending
    from repro.service import CoalesceConfig, MILRequest, ModelCache, SimServe
    from repro.service.workers import execute_coalesced, execute_request

    def build_loop() -> Model:
        m = Model("coalesce_bench_loop")
        ref = m.add(Constant("ref", value=1.0))
        err = m.add(Sum("err", signs="+-"))
        ctrl = m.add(Gain("ctrl", gain=2.0))
        plant = m.add(Integrator("plant"))
        scope = m.add(Scope("y", label="y"))
        m.connect(ref, err, 0, 0)
        m.connect(plant, err, 0, 1)
        m.connect(err, ctrl)
        m.connect(ctrl, plant)
        m.connect(plant, scope)
        return m

    dt = 1e-4
    model = build_loop()
    ref = Simulator(
        model.compile(dt),
        SimulationOptions(dt=dt, t_final=t_final, use_kernels=True),
    ).run()

    def submit_staggered(svc):
        handles = []
        t0 = time.perf_counter()
        for _ in range(n_jobs):
            handles.append(svc.submit(
                MILRequest(model=model, dt=dt, t_final=t_final)
            ))
            time.sleep(0.001)  # staggered arrivals — the serving shape
        assert svc.wait_all(handles, timeout=600.0)
        return handles, time.perf_counter() - t0

    def serial_leg() -> float:
        best = float("inf")
        for _ in range(2):
            with SimServe(workers=1, coalesce=False) as svc:
                _, elapsed = submit_staggered(svc)
            best = min(best, elapsed)
        return best

    # best-of-N on each side: the gated quantity is a ratio of two
    # multi-second wall times, so one scheduler hiccup on either side
    # would swing it well past the acceptance floor
    with mock.patch.dict(os.environ, REPRO_NATIVE="off"):
        serial_s = serial_leg()
    wait_pending()  # the reference run above started the artifact build

    cache = ModelCache()
    queued = [MILRequest(model=model, dt=dt, t_final=t_final)
              for _ in range(n_jobs)]
    execute_request(queued[0], cache)  # warm: compiled model + artifact

    legs = {
        "serial": lambda: [execute_request(req, cache)[1] for req in queued],
        "coalesced": lambda: [out[1] for out in execute_coalesced(queued, cache)],
    }
    queued_s = dict.fromkeys(legs, float("inf"))
    for k in range(20):
        for leg in (("serial", "coalesced") if k % 2 == 0
                    else ("coalesced", "serial")):
            t0 = time.perf_counter()
            lanes = legs[leg]()
            queued_s[leg] = min(queued_s[leg], time.perf_counter() - t0)
            assert all(np.array_equal(lane[name], ref[name])
                       for lane in lanes for name in ref.names)

    cfg = CoalesceConfig(max_batch=n_jobs, window_s=0.04)
    coalesced_s = float("inf")
    for _ in range(3):
        with SimServe(workers=1, coalesce=cfg) as svc:
            handles, elapsed = submit_staggered(svc)
            snap = svc.metrics_snapshot()
        coalesced_s = min(coalesced_s, elapsed)
    results = [h.result(30.0) for h in handles]
    bit_identical = all(
        np.array_equal(r[name], ref[name])
        for r in results
        for name in ref.names
    )
    widths = [
        h.record(30.0).summary.get("coalesced", {}).get("width", 1)
        for h in handles
    ]
    return {
        "jobs": n_jobs,
        "serial_s": serial_s,
        "serial_native_s": queued_s["serial"],
        "coalesced_native_s": queued_s["coalesced"],
        "coalesced_s": coalesced_s,
        "coalesced_speedup": serial_s / coalesced_s,
        "coalesced_vs_serial_native": queued_s["serial"] / queued_s["coalesced"],
        "coalesced_jobs_per_s": n_jobs / coalesced_s,
        "batches": snap["coalesce"]["batches"],
        "coalesced_jobs": snap["coalesce"]["jobs"],
        "max_width": max(widths),
        "bit_identical": bit_identical,
    }


def bench_lane_compaction(n_lanes: int = 16, t_final: float = 0.4) -> dict:
    """Lane compaction on a permanently-diverged event workload.

    Half the lanes sit above an event trigger threshold, so every major
    step dispatches the ISR for a strict subset of lanes — the worst
    case for the per-lane fallback and exactly what compaction re-fuses.
    Gated on ``recovered_lane_steps > 0`` (fused lane-calls that would
    have run per-lane) and on results matching the compaction-off path.
    """
    import numpy as np

    from repro.model import BatchSimulator, Model, SimulationOptions
    from repro.model.block import Block
    from repro.model.library import Constant, Gain, Scope
    from repro.model.library.subsystems import (
        FunctionCallSubsystem,
        Inport,
        Outport,
    )

    class FireAbove(Block):
        n_in = 1
        n_out = 1
        n_events = 1

        def __init__(self, name, threshold=1.0):
            super().__init__(name)
            self.threshold = float(threshold)

        def outputs(self, t, u, ctx):
            if u[0] > self.threshold:
                ctx.fire(0)
            return [u[0]]

    def build() -> Model:
        m = Model("compaction_bench")
        m.add(Constant("level", value=0.0))
        m.add(FireAbove("det", threshold=1.0))
        fc = FunctionCallSubsystem("isr")
        i = fc.inner.add(Inport("in0", index=0))
        g = fc.inner.add(Gain("g", gain=10.0))
        o = fc.inner.add(Outport("out0", index=0))
        fc.inner.connect(i, g)
        fc.inner.connect(g, o)
        m.add(fc)
        m.connect("level", "det")
        m.connect("det", "isr")
        m.connect_event("det", "isr")
        m.connect("isr", m.add(Scope("sc", label="isr_y")))
        return m

    dt = 1e-3
    scenarios = [
        {"level": {"value": 2.0 if k % 2 else 0.0}} for k in range(n_lanes)
    ]
    opts = SimulationOptions(dt=dt, t_final=t_final)

    def run(compaction: bool):
        sim = BatchSimulator(build().compile(dt), scenarios, opts,
                             compaction=compaction)
        t0 = time.perf_counter()
        res = sim.run()
        return sim, res, time.perf_counter() - t0

    sim_off, res_off, off_s = run(False)
    sim_on, res_on, on_s = run(True)
    identical = all(
        np.array_equal(res_off[name], res_on[name]) for name in res_off.names
    )
    stats = sim_on.compaction_stats
    return {
        "lanes": n_lanes,
        "n_steps": int(res_on.t.shape[0]),
        "lanes_diverged": sim_on.lanes_diverged,
        "perlane_s": off_s,
        "compacted_s": on_s,
        "compaction_speedup": off_s / on_s,
        "recovered_lane_steps": stats["recovered_lane_steps"],
        "fused_lane_dispatches": stats["fused_lane_dispatches"],
        "perlane_dispatches_off": sim_off.compaction_stats["perlane_dispatches"],
        "identical_with_compaction_off": identical,
    }


def bench_tracing_overhead(pairs: int = 120, chunk: int = 250) -> dict:
    """Engine hot-loop cost of *enabled* tracing (sampled major-step
    spans at the default stride) against the disabled tracer.

    One servo ``Simulator`` on the Python kernel path runs ``pairs``
    pairs of ``chunk``-step chunks with its bound tracer switched on and
    off between chunks, in ABBA order, so both sides share the
    simulator, the thread and the host.  The overhead is the median over
    pairs of the on/off chunk-time ratio; each side's median rate is
    reported with its spread (interquartile range over median).  The
    host's speed can jump by up to 2x between phases and leave each
    side's chunk times bimodal, which moves a ratio of the two side
    medians by several percent while barely touching two adjacent chunks
    of a pair.  The best of three fresh simulators per side, as this
    bench once ran, read 0 % to 17 % in three calls on a shared 2-vCPU
    host.  The disabled case is the default configuration — its cost is
    a single predicate per step and is what every non-tracing user pays.
    """
    import statistics

    from repro.casestudy import ServoConfig, build_servo_model
    from repro.model import Simulator, SimulationOptions
    from repro.obs import Tracer, use_tracer

    dt = 1e-4
    n_steps = (2 * pairs + 1) * chunk  # one warm-up chunk
    tracer = Tracer(enabled=False)
    with use_tracer(tracer):
        sm = build_servo_model(ServoConfig(setpoint=100.0))
        # native=False: the traced path under test is the Python engine's
        sim = Simulator(sm.model, SimulationOptions(
            dt=dt, t_final=n_steps * dt, use_kernels=True, native=False,
        ))
        sim.initialize()
    sim.log.reserve(n_steps + 1)

    def run_chunk(enabled: bool) -> float:
        tracer.enabled = enabled
        before = len(tracer)
        t0 = time.perf_counter()
        for _ in range(chunk):
            sim.advance()
        elapsed = time.perf_counter() - t0
        assert enabled or len(tracer) == before, "disabled tracer buffered events"
        return elapsed

    run_chunk(False)
    seconds: dict[bool, list[float]] = {False: [], True: []}
    for k in range(pairs):
        for enabled in ((False, True) if k % 2 == 0 else (True, False)):
            seconds[enabled].append(run_chunk(enabled))
    ratio = statistics.median(
        on / off for off, on in zip(seconds[False], seconds[True])
    )
    quartiles = {enabled: statistics.quantiles(times, n=4)
                 for enabled, times in seconds.items()}
    return {
        "chunk_steps": chunk,
        "chunk_pairs": pairs,
        "steps_per_s_disabled": chunk / quartiles[False][1],
        "steps_per_s_enabled": chunk / quartiles[True][1],
        "steps_per_s_disabled_spread_pct":
            (quartiles[False][2] - quartiles[False][0]) / quartiles[False][1] * 100.0,
        "steps_per_s_enabled_spread_pct":
            (quartiles[True][2] - quartiles[True][0]) / quartiles[True][1] * 100.0,
        "events_captured": len(tracer),
        "tracing_overhead_pct": max(0.0, (ratio - 1.0) * 100.0),
    }


def bench_ops_overhead(n_jobs: int = 1200, t_final: float = 0.2) -> dict:
    """Service-path cost of the always-on ops plane — the flight
    recorder plus per-job phase marks (queue/cache/run/store) and their
    registry histograms — against the same service with both disabled
    (the pool's ``flight``/``waterfall``, as ``SimServe(flight=False,
    waterfall=False)`` sets them).

    ``n_jobs`` servo MIL jobs per side run on two workers in bursts of
    four, so every worker is busy and the workers contend for the
    recorder and registry locks as under load; the ops plane is switched
    on and off between bursts (ABBA), so both sides share the host and
    the worker threads.  Each side's rate is ``burst / median burst
    time``, reported with its spread (interquartile range of the burst
    times over their median).  Separate services per side, as this bench
    once ran, do not resolve 5 % on a shared 2-vCPU host: with each
    service's threads placed anew, one 600-job burst per service, best
    of three, read 0 % to 35 %.  The enabled side uses a private
    in-memory recorder (no dump dir) so the bench measures the recording
    path, not disk writes."""
    import statistics

    from repro.casestudy import build_servo_model
    from repro.obs.flight import NULL_RECORDER, FlightRecorder
    from repro.service import MILRequest, SimServe

    workers = 2
    burst = 2 * workers
    flight = FlightRecorder()
    seconds: dict[bool, list[float]] = {False: [], True: []}
    with SimServe(workers=workers, flight=flight) as svc:
        pool = svc.pool

        def run_burst(obs_on: bool) -> float:
            pool.flight = flight if obs_on else NULL_RECORDER
            pool.waterfall = obs_on
            t0 = time.perf_counter()
            handles = [svc.submit(MILRequest(
                builder=build_servo_model, dt=1e-4, t_final=t_final,
            )) for _ in range(burst)]
            assert svc.wait_all(handles, timeout=120.0)
            return time.perf_counter() - t0

        run_burst(True)  # warm-up: codegen + cache
        flight.clear()
        for k in range(n_jobs // burst):
            for obs_on in ((False, True) if k % 2 == 0 else (True, False)):
                seconds[obs_on].append(run_burst(obs_on))
        events = len(flight)
    quartiles = {obs_on: statistics.quantiles(times, n=4)
                 for obs_on, times in seconds.items()}
    off_s = burst / quartiles[False][1]
    on_s = burst / quartiles[True][1]
    overhead_pct = max(0.0, (off_s / on_s - 1.0) * 100.0)
    return {
        "jobs": n_jobs,
        "jobs_per_burst": burst,
        "jobs_per_s_obs_off": off_s,
        "jobs_per_s_obs_on": on_s,
        "jobs_per_s_obs_off_spread_pct":
            (quartiles[False][2] - quartiles[False][0]) / quartiles[False][1] * 100.0,
        "jobs_per_s_obs_on_spread_pct":
            (quartiles[True][2] - quartiles[True][0]) / quartiles[True][1] * 100.0,
        "flight_events_recorded": events,
        "ops_overhead_pct": overhead_pct,
    }


def bench_events(n: int = 20_000) -> float:
    from repro.mcu import InterruptSource, MCUDevice, MC56F8367

    dev = MCUDevice(MC56F8367)
    dev.intc.register(InterruptSource("t", priority=1, cycles=100))
    t0 = time.perf_counter()
    base = dev.time
    for k in range(n):
        dev.schedule(base + k * 1e-5, lambda: dev.intc.request("t"))
    dev.run_for(n * 1e-5 + 1e-3)
    return n / (time.perf_counter() - t0)


def bench_codec(n: int = 20_000) -> float:
    from repro.comm import PacketCodec, PacketDecoder, PacketType

    codec = PacketCodec()
    dec = PacketDecoder()
    t0 = time.perf_counter()
    for k in range(n):
        dec.feed(codec.encode(PacketType.DATA, [k & 0xFFFF, 1234, 42]))
    elapsed = time.perf_counter() - t0
    assert len(dec.packets) == n
    return n / elapsed


def _make_pil(reliable: bool):
    from repro.casestudy import ServoConfig, build_servo_model
    from repro.core import PEERTTarget
    from repro.sim import LossPolicy, PILSimulator

    sm = build_servo_model(ServoConfig(setpoint=100.0))
    return PILSimulator(
        PEERTTarget(sm.model).build(),
        baud=460800,
        plant_dt=1e-4,
        reliable=reliable,
        loss_policy=LossPolicy(mode="safe", max_consecutive=5),
        watchdog_timeout=8e-3 if reliable else None,
    )


def bench_campaign(workers: int) -> dict:
    import os

    from repro.faults import BurstErrors, FaultCampaign, FaultPlan

    plan = FaultPlan([BurstErrors(start=0.01, duration=0.05, rate=0.2)], seed=11)
    campaign = FaultCampaign(
        make_pil=_make_pil, plan=plan, t_final=0.1, reference=100.0
    )
    grid = [0.5, 1.0]
    t0 = time.perf_counter()
    serial = campaign.run(grid)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = campaign.run(grid, workers=workers)
    parallel_s = time.perf_counter() - t0
    assert serial == parallel, "parallel campaign diverged from serial"
    cells = len(serial)
    effective, reason = FaultCampaign.parallel_effective(workers, cells)
    # the obs counters the downgrade path increments unconditionally —
    # surfaced here so BENCH_substrates.json records not just *that* the
    # pool was refused but the machine-level why (single_cpu vs
    # undersized_grid), matching what dashboards scrape
    from repro.obs.metrics import get_registry

    counters = {
        name: value
        for name, value in get_registry().snapshot().items()
        if name.startswith("campaign_auto_serial")
    }
    return {
        "cells": cells,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "cells_per_s_serial": cells / serial_s,
        "cells_per_s_parallel": cells / parallel_s,
        "parallel_speedup": serial_s / parallel_s,
        #: True when FaultCampaign itself downgraded the pool request to
        #: the serial path (single core, tiny grid) — speedup is then ~1.0
        #: by design and must not be gated
        "auto_serial": not effective,
        "auto_serial_reason": reason,
        "auto_serial_reason_tag": FaultCampaign.auto_serial_reason_tag(reason)
        if not effective else None,
        "auto_serial_counters": counters,
        "deterministic": True,
    }


def bench_fuzz_throughput(workers: int) -> dict:
    """Fuzz candidate throughput, chunk-pooled vs per-candidate serial,
    plus the pinned-corpus replay gate.

    Both fuzz runs use the same seed, so the pooled corpus must be
    byte-identical to the serial one — the fuzzer's determinism contract
    says worker count only buys wall-clock.  The replay side re-executes
    every entry pinned under ``tests/fuzz/corpus/`` and fails the bench
    if any signature drifts (the bit-identity gate the regression corpus
    exists for).
    """
    from repro.fuzz import Corpus, FuzzConfig, Fuzzer, replay_corpus

    def run(pool_workers, batch):
        cfg = FuzzConfig(
            target="servo", seed=0, generation_size=8, generations=2,
            workers=pool_workers, batch=batch,
        )
        fuzzer = Fuzzer(cfg, corpus=Corpus())
        t0 = time.perf_counter()
        stats = fuzzer.run()
        elapsed = time.perf_counter() - t0
        return stats, elapsed, fuzzer.corpus

    serial_stats, serial_s, serial_corpus = run(None, 1)
    pooled_stats, pooled_s, pooled_corpus = run(workers, 4)
    deterministic = [
        (h, e.dumps()) for h, e in serial_corpus.entries.items()
    ] == [
        (h, e.dumps()) for h, e in pooled_corpus.entries.items()
    ]

    pinned = Corpus.load(HERE.parent / "tests" / "fuzz" / "corpus")
    t0 = time.perf_counter()
    replays = replay_corpus(pinned)
    replay_s = time.perf_counter() - t0
    mismatches = [h for h, r in replays.items() if not r.ok]
    return {
        "candidates": serial_stats.candidates,
        "novel": serial_stats.novel,
        "workers": workers,
        "candidates_per_s_serial": serial_stats.candidates / serial_s,
        "candidates_per_s_batched": pooled_stats.candidates / pooled_s,
        "batched_speedup": serial_s / pooled_s,
        "deterministic": deterministic,
        "corpus_entries": len(pinned),
        "corpus_replays_per_s": len(pinned) / replay_s if len(pinned) else 0.0,
        "corpus_replay_ok": not mismatches,
        "corpus_mismatches": mismatches,
    }


def bench_service(n_jobs: int = 24) -> dict:
    """SimServe throughput and compiled-model-cache effectiveness.

    The cache speedup is end-to-end job latency, cold (first submission of
    a model content hash) against the median of warm repeats — what a
    sweep client actually feels.  A warm-up job on a throwaway hash runs
    first so the cold number measures compilation, not import costs.
    """
    from repro.service import MILRequest, SimServe
    from repro.service.__main__ import servo_sweep_model

    def req(bandwidth_hz: float) -> MILRequest:
        return MILRequest(
            builder=servo_sweep_model,
            builder_kwargs={"bandwidth_hz": bandwidth_hz},
            dt=1e-4,
            t_final=0.005,
            retain_trace=False,
        )

    def timed(svc, request) -> float:
        t0 = time.perf_counter()
        handle = svc.submit(request)
        assert handle.wait(120.0)
        return time.perf_counter() - t0

    with SimServe(workers=2) as svc:
        timed(svc, req(9.0))  # warm-up: imports + codegen machinery
        cold_s = timed(svc, req(6.0))
        warm = sorted(timed(svc, req(6.0)) for _ in range(7))
        warm_s = warm[len(warm) // 2]
        t0 = time.perf_counter()
        handles = [svc.submit(req(4.0 + (k % 4))) for k in range(n_jobs)]
        assert svc.wait_all(handles, timeout=300.0)
        burst_s = time.perf_counter() - t0
        snap = svc.metrics_snapshot()
    return {
        "jobs": n_jobs,
        "service_jobs_per_s": n_jobs / burst_s,
        "cold_latency_s": cold_s,
        "warm_latency_s": warm_s,
        "model_cache_hit_speedup": cold_s / warm_s,
        "cache_hits": snap["cache"]["hits"],
        "cache_hit_rate": snap["cache"]["hit_rate"],
        "failed": snap["jobs"]["failed"],
    }


def _section_engine(workers: int) -> dict:
    fast = bench_engine(use_kernels=True)
    ref = bench_engine(use_kernels=False)
    return {
        "before_steps_per_s": SEED_STEPS_PER_S,
        "steps_per_s": fast["steps_per_s"],
        "steps_per_s_reference": ref["steps_per_s"],
        "kernel_speedup": fast["steps_per_s"] / ref["steps_per_s"],
        "speedup_vs_seed": fast["steps_per_s"] / SEED_STEPS_PER_S,
        "fast_path_active": fast["fast_path_active"],
        "fallback_reason": fast["fallback_reason"],
    }


def _fallback_counters() -> dict:
    """The ``kernel_fallback_total{reason=...}`` counters accumulated in
    this process — surfaced in the report so a toolchain-less CI host is
    distinguishable from a plan refusal after the fact."""
    from repro.obs.metrics import get_registry

    return {
        name: value
        for name, value in get_registry().snapshot().items()
        if name.startswith("kernel_fallback_total")
    }


#: sections a ``--only`` run can select; each measures independently
BENCHES = {
    "engine": _section_engine,
    "native": lambda workers: {**bench_native(),
                               "fallback_counters": _fallback_counters()},
    "batch": lambda workers: bench_batch_ensemble(),
    "events": lambda workers: {"events_per_s": bench_events()},
    "codec": lambda workers: {"roundtrips_per_s": bench_codec()},
    "campaign": bench_campaign,
    "fuzz": bench_fuzz_throughput,
    "service": lambda workers: bench_service(),
    "continuous_batching": lambda workers: bench_continuous_batching(),
    "compaction": lambda workers: bench_lane_compaction(),
    "obs": lambda workers: {**bench_tracing_overhead(),
                            **bench_ops_overhead()},
}

#: (normalized key, section, field) — machine-portable per-spin forms
_NORMALIZED = [
    ("engine_steps_per_spin", "engine", "steps_per_s"),
    ("engine_reference_steps_per_spin", "engine", "steps_per_s_reference"),
    ("native_steps_per_spin", "native", "native_steps_per_s"),
    ("batch_lane_steps_per_spin", "batch", "lane_steps_per_s"),
    ("events_per_spin", "events", "events_per_s"),
    ("codec_roundtrips_per_spin", "codec", "roundtrips_per_s"),
    ("campaign_cells_per_spin", "campaign", "cells_per_s_serial"),
    ("fuzz_candidates_per_spin", "fuzz", "candidates_per_s_serial"),
    ("service_jobs_per_spin", "service", "service_jobs_per_s"),
    ("coalesced_jobs_per_spin", "continuous_batching", "coalesced_jobs_per_s"),
]


def measure(workers: int, only: list[str] | None = None) -> dict:
    cal = _calibrate()
    report = {"schema": 1, "calibration_spin_s": cal}
    for name, fn in BENCHES.items():
        if only and name not in only:
            continue
        report[name] = fn(workers)
    # machine-portable forms: throughput x spin-time (per-spin units)
    report["normalized"] = {
        key: report[section][field] * cal
        for key, section, field in _NORMALIZED
        if section in report and field in report[section]
    }
    return report


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------
def check(fresh: dict, baseline: dict, strict_absolute: bool) -> list[str]:
    failures: list[str] = []

    def gate(label: str, got: float, want: float) -> None:
        if want > 0 and got < (1.0 - TOLERANCE) * want:
            failures.append(
                f"{label}: {got:.3f} is >{TOLERANCE:.0%} below baseline {want:.3f}"
            )

    if not fresh["engine"]["fast_path_active"]:
        failures.append(
            "kernel fast path inactive: "
            f"{fresh['engine']['fallback_reason']!r}"
        )
    gate(
        "engine.kernel_speedup",
        fresh["engine"]["kernel_speedup"],
        baseline["engine"]["kernel_speedup"],
    )
    nat = fresh.get("native", {})
    if nat.get("toolchain") is None:
        # no compiler on this host: the graceful-degradation leg — the
        # ladder must have recorded why, but nothing perf-gates
        if nat and not nat.get("fallback_reason"):
            failures.append(
                "native: toolchain absent but no fallback reason recorded"
            )
    elif nat:
        if not nat["native_active"]:
            failures.append(
                f"native path inactive with a toolchain present: "
                f"{nat['fallback_reason']!r}"
            )
        elif not nat["bit_identical"]:
            failures.append(
                "native servo trajectories are not bit-identical to the "
                "Python kernel path"
            )
        elif nat["native_speedup"] < MIN_NATIVE_SPEEDUP:
            failures.append(
                f"native.native_speedup: {nat['native_speedup']:.2f}x is "
                f"below the {MIN_NATIVE_SPEEDUP:.1f}x acceptance floor"
            )
        if nat.get("cache_hits", 0) < 1:
            failures.append(
                "native compile cache never hit (warm Simulator recompiled)"
            )
    batch = fresh["batch"]
    if not batch["bit_identical"]:
        failures.append(
            "batch ensemble lanes are not bit-identical to serial runs"
        )
    if batch["batch_speedup_vs_serial"] < MIN_BATCH_SPEEDUP:
        failures.append(
            f"batch.batch_speedup_vs_serial: {batch['batch_speedup_vs_serial']:.2f}x "
            f"is below the {MIN_BATCH_SPEEDUP:.1f}x acceptance floor"
        )
    if "batch" in baseline:
        gate(
            "batch.batch_speedup_vs_serial",
            batch["batch_speedup_vs_serial"],
            baseline["batch"]["batch_speedup_vs_serial"],
        )
    if not fresh["campaign"]["deterministic"]:
        failures.append("campaign parallel/serial outcomes diverged")
    # single-core hosts auto-downgrade the pool to the serial path, so a
    # ~1.0x parallel speedup there is correct behaviour, not a regression
    if not fresh["campaign"].get("auto_serial"):
        camp_base = baseline.get("campaign", {})
        if "parallel_speedup" in camp_base and not camp_base.get("auto_serial"):
            gate(
                "campaign.parallel_speedup",
                fresh["campaign"]["parallel_speedup"],
                camp_base["parallel_speedup"],
            )
    fuzz = fresh.get("fuzz", {})
    if fuzz and not fuzz["deterministic"]:
        failures.append(
            "fuzz pooled corpus differs from serial corpus "
            "(worker count leaked into candidate results)"
        )
    if fuzz and not fuzz["corpus_replay_ok"]:
        failures.append(
            "pinned fuzz corpus no longer replays bit-identically: "
            f"{fuzz['corpus_mismatches']}"
        )
    cb = fresh.get("continuous_batching", {})
    if cb:
        if not cb["bit_identical"]:
            failures.append(
                "continuous batching: coalesced lane results are not "
                "bit-identical to direct runs"
            )
        if cb["coalesced_speedup"] < MIN_COALESCE_SPEEDUP:
            failures.append(
                f"continuous_batching.coalesced_speedup: "
                f"{cb['coalesced_speedup']:.2f}x is below the "
                f"{MIN_COALESCE_SPEEDUP:.1f}x acceptance floor"
            )
        if cb["batches"] == 0:
            failures.append(
                "continuous batching: no vector job formed (staggered "
                "submissions all ran serial)"
            )
    comp = fresh.get("compaction", {})
    if comp:
        if comp["recovered_lane_steps"] <= 0:
            failures.append(
                "compaction: recovered_lane_steps is 0 on a lane-diverging "
                "workload (compactor never re-fused)"
            )
        if not comp["identical_with_compaction_off"]:
            failures.append(
                "compaction: results differ between compaction on/off"
            )
    if fresh["service"]["cache_hits"] == 0:
        failures.append("service model cache never hit (repeat jobs recompiled)")
    if fresh["service"]["failed"]:
        failures.append(f"service bench had {fresh['service']['failed']} failed jobs")
    if "service" in baseline:
        gate(
            "service.model_cache_hit_speedup",
            fresh["service"]["model_cache_hit_speedup"],
            baseline["service"]["model_cache_hit_speedup"],
        )
    overhead = fresh["obs"]["tracing_overhead_pct"]
    if overhead > MAX_TRACING_OVERHEAD_PCT:
        failures.append(
            f"obs.tracing_overhead_pct: enabled tracing costs {overhead:.2f}% "
            f"on the engine hot loop (budget {MAX_TRACING_OVERHEAD_PCT:.1f}%)"
        )
    ops_overhead = fresh["obs"].get("ops_overhead_pct")
    if ops_overhead is not None and ops_overhead > MAX_OPS_OVERHEAD_PCT:
        failures.append(
            f"obs.ops_overhead_pct: the ops plane (flight + waterfall) "
            f"costs {ops_overhead:.2f}% on the service job path "
            f"(budget {MAX_OPS_OVERHEAD_PCT:.1f}%)"
        )
    if fresh["obs"].get("flight_events_recorded", 1) == 0:
        failures.append(
            "obs.flight_events_recorded: the enabled flight recorder "
            "captured no job.finish events during the ops bench"
        )
    for key, want in baseline.get("normalized", {}).items():
        gate(f"normalized.{key}", fresh["normalized"][key], want)
    if strict_absolute:
        gate(
            "engine.steps_per_s",
            fresh["engine"]["steps_per_s"],
            baseline["engine"]["steps_per_s"],
        )
        gate(
            "events.events_per_s",
            fresh["events"]["events_per_s"],
            baseline["events"]["events_per_s"],
        )
        gate(
            "codec.roundtrips_per_s",
            fresh["codec"]["roundtrips_per_s"],
            baseline["codec"]["roundtrips_per_s"],
        )
        gate(
            "campaign.cells_per_s_serial",
            fresh["campaign"]["cells_per_s_serial"],
            baseline["campaign"]["cells_per_s_serial"],
        )
        if "service" in baseline:
            gate(
                "service.jobs_per_s",
                fresh["service"]["service_jobs_per_s"],
                baseline["service"]["service_jobs_per_s"],
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="gate against the committed baseline")
    ap.add_argument("--strict-absolute", action="store_true", help="also gate raw per-second numbers")
    ap.add_argument("--update", action="store_true", help="rewrite the baseline unconditionally")
    ap.add_argument("--out", type=Path, default=DEFAULT_JSON, help="output JSON path")
    ap.add_argument("--workers", type=int, default=2, help="campaign worker count")
    ap.add_argument(
        "--only", action="append", choices=sorted(BENCHES), default=None,
        metavar="BENCH",
        help="measure only this bench (repeatable); prints JSON and "
             "leaves the committed baseline untouched",
    )
    args = ap.parse_args(argv)
    if args.only and (args.check or args.update):
        ap.error("--only cannot be combined with --check/--update "
                 "(partial reports must not gate or overwrite the baseline)")
    if args.check and not args.update and not args.out.exists():
        # a gate with nothing to compare against must fail, not pass
        print(f"no baseline at {args.out}: --check compares against one "
              "(record it with --update)", file=sys.stderr)
        return 2

    fresh = measure(args.workers, only=args.only)
    if "engine" in fresh:
        eng = fresh["engine"]
        print(
            f"engine: {eng['steps_per_s']:.0f} steps/s fast "
            f"({eng['steps_per_s_reference']:.0f} reference, "
            f"kernel speedup {eng['kernel_speedup']:.2f}x, "
            f"{eng['speedup_vs_seed']:.2f}x vs seed {SEED_STEPS_PER_S:.0f})"
        )
    if "native" in fresh:
        nat = fresh["native"]
        if nat.get("native_active"):
            print(
                f"native: {nat['native_steps_per_s']:.0f} steps/s C extension "
                f"({nat['native_speedup']:.2f}x over the Python kernel path, "
                f"cold init {nat['cold_init_s']*1e3:.0f} ms -> warm "
                f"{nat['warm_init_s']*1e3:.1f} ms, "
                f"bit_identical={nat['bit_identical']})"
            )
        else:
            print(f"native: inactive ({nat.get('fallback_reason')!r})")
    if "batch" in fresh:
        bat = fresh["batch"]
        how = f"on {bat['substrate']}"
        if "vectorized_fraction" in bat:
            how += (f" ({bat['fallback_reason']}), "
                    f"{bat['vectorized_fraction']:.0%} vectorized")
        print(
            f"batch:  {bat['batch_speedup_vs_serial']:.2f}x over serial sweep "
            f"({bat['lanes']} lanes {how}, "
            f"{bat['lane_steps_per_s']:.0f} lane-steps/s, "
            f"bit_identical={bat['bit_identical']})"
        )
    if "events" in fresh:
        print(f"events: {fresh['events']['events_per_s']:.0f} events/s")
    if "codec" in fresh:
        print(f"codec:  {fresh['codec']['roundtrips_per_s']:.0f} round-trips/s")
    if "campaign" in fresh:
        camp = fresh["campaign"]
        print(
            f"campaign: {camp['cells_per_s_serial']:.2f} cells/s serial, "
            f"{camp['cells_per_s_parallel']:.2f} cells/s with "
            f"{camp['workers']} workers ({camp['cpu_count']} CPUs)"
        )
    if "fuzz" in fresh:
        fz = fresh["fuzz"]
        print(
            f"fuzz:   {fz['candidates_per_s_serial']:.2f} candidates/s serial, "
            f"{fz['candidates_per_s_batched']:.2f} batched "
            f"({fz['workers']} workers), deterministic={fz['deterministic']}; "
            f"corpus replay {fz['corpus_entries']} entries at "
            f"{fz['corpus_replays_per_s']:.2f}/s, ok={fz['corpus_replay_ok']}"
        )
    if "service" in fresh:
        svc = fresh["service"]
        print(
            f"service: {svc['service_jobs_per_s']:.1f} jobs/s, cache-hit speedup "
            f"{svc['model_cache_hit_speedup']:.2f}x "
            f"(cold {svc['cold_latency_s']*1e3:.1f} ms -> warm "
            f"{svc['warm_latency_s']*1e3:.1f} ms, hit rate {svc['cache_hit_rate']:.0%})"
        )
    if "continuous_batching" in fresh:
        cb = fresh["continuous_batching"]
        print(
            f"coalesce: {cb['coalesced_speedup']:.2f}x over serial scheduling "
            f"({cb['jobs']} staggered jobs -> {cb['batches']} vector job(s), "
            f"max width {cb['max_width']}, bit_identical={cb['bit_identical']}); "
            f"{cb['coalesced_vs_serial_native']:.2f}x over serial native "
            f"jobs, queued (ungated)"
        )
    if "compaction" in fresh:
        comp = fresh["compaction"]
        print(
            f"compaction: {comp['recovered_lane_steps']} recovered lane-steps "
            f"({comp['compaction_speedup']:.2f}x vs per-lane fallback on "
            f"{comp['lanes']} lanes)"
        )
    if "obs" in fresh:
        obs = fresh["obs"]
        print(
            f"tracing: {obs['tracing_overhead_pct']:.2f}% enabled overhead "
            f"({obs['steps_per_s_disabled']:.0f} -> {obs['steps_per_s_enabled']:.0f} "
            f"steps/s, {obs['events_captured']} events captured)"
        )
        if "chunk_pairs" in obs:
            print(
                f"         median ratio of {obs['chunk_pairs']} ABBA pairs "
                f"of {obs['chunk_steps']}-step chunks, spread "
                f"{obs['steps_per_s_disabled_spread_pct']:.0f}% / "
                f"{obs['steps_per_s_enabled_spread_pct']:.0f}%"
            )
        if "ops_overhead_pct" in obs:
            print(
                f"ops plane: {obs['ops_overhead_pct']:.2f}% service-path overhead "
                f"({obs['jobs_per_s_obs_off']:.1f} -> {obs['jobs_per_s_obs_on']:.1f} "
                f"jobs/s, median of {obs['jobs']} jobs per side in alternating "
                f"bursts of {obs['jobs_per_burst']}, spread "
                f"{obs['jobs_per_s_obs_off_spread_pct']:.0f}% / "
                f"{obs['jobs_per_s_obs_on_spread_pct']:.0f}%, "
                f"{obs['flight_events_recorded']} flight events)"
            )

    if args.only:
        print(json.dumps(fresh, indent=2, sort_keys=True))
        return 0

    status = 0
    if args.check and not args.update:
        baseline = json.loads(args.out.read_text())
        failures = check(fresh, baseline, args.strict_absolute)
        if failures:
            print("\nPERF REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            status = 1
        else:
            print("perf check OK (within "
                  f"{TOLERANCE:.0%} of committed baseline)")
    if status == 0 or args.update:
        args.out.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
