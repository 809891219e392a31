"""mil_sweep: a servo design sweep on the native path, then as a batch.

Closed loop, one client.  The seed generates servo parameter points
(setpoint, PID bandwidth): one new point in every ``DISTINCT_EVERY``
jobs, the rest repeats of earlier points.  The repeat share, 5/6, is
that of the repository's own service throughput benchmark
(``benchmarks/perf_harness.py`` ``bench_service`` submits 24 jobs over
4 bandwidths, each point 6 times); no traffic record exists to take it
from.  Each job runs ``build_servo_model`` -> ``Simulator`` (default
options, so ``native="auto"`` engages: the horizon clears the auto
threshold) -> ``run``.  The native compile cache starts empty on every
run, because users pay the compiles: a new point misses (C codegen +
``cc``), a repeat hits (dlopen).  After the jobs, a ``BatchSimulator``
ensemble runs the first ``BATCH_LANES`` points at the same horizon,
``BATCHES`` times per round.

Loads: model compile, kernel planning, native codegen, ``cc``, the disk
cache, the C step loop and the batch engine.  Bypasses: mcu, comm,
faults, fuzz, service.

The same jobs and ensemble run ``ROUNDS`` times, each round from an
empty native cache.  Host times are normalized to the nominal host
speed (``hostspeed.py``) and each job's time is its best of the rounds.
End-to-end: ``throughput_per_s`` is MIL jobs per normalized host
second, ``latency_*`` the host time per job, ``sim_rtf`` the batch
engine's simulated lane-seconds per host second, best ensemble run
(``batch_lane_steps_per_s`` x dt).
"""

from __future__ import annotations

import os

import numpy as np

from common import Outcome, counter_delta, fresh_dir, p50, tail
from hostspeed import SpeedProbe
from layers import fallback_counts, install, layer_metrics, snapshot
from tracer import LayerTracer

DT = 1e-4
#: simulated horizon per job: 6001 steps x 18 scheduled blocks clears the
#: engine's native auto threshold (100k block-steps)
HORIZON = 0.6
#: one new parameter point per this many jobs (repeat share 5/6)
DISTINCT_EVERY = 6
BATCH_LANES = 16
ROUNDS = 5
#: jobs per round, per second of the run: a round runs
#: ``round(ROUND_RATE * seconds)`` jobs, then ``BATCHES`` ensembles.  A
#: traced run makes one untraced and one traced round of one ensemble.
ROUND_RATE = 2.5
BATCHES = 2
#: an untraced ensemble run samples the host speed every this many steps
CHUNK = 500


def job_points(seed: int):
    """Endless seeded stream of ``(setpoint, bandwidth_hz)`` points."""
    rng = np.random.default_rng([seed, 21])
    distinct: list[tuple[float, float]] = []
    j = 0
    while True:
        if j % DISTINCT_EVERY == 0:
            point = (round(float(rng.uniform(60.0, 140.0)), 3),
                     round(float(rng.uniform(3.0, 10.0)), 4))
            distinct.append(point)
        else:
            point = distinct[int(rng.integers(len(distinct)))]
        j += 1
        yield point


def first_distinct(seed: int, k: int) -> list[tuple[float, float]]:
    seen: list = []
    for point in job_points(seed):
        if point not in seen:
            seen.append(point)
            if len(seen) == k:
                return seen


def _servo(point):
    import repro.casestudy as casestudy

    return casestudy.build_servo_model(
        casestudy.ServoConfig(setpoint=point[0], bandwidth_hz=point[1]))


def single_run(point, native="auto"):
    from repro.model import SimulationOptions, Simulator

    sim = Simulator(_servo(point).model,
                    SimulationOptions(dt=DT, t_final=HORIZON, native=native))
    return sim.run(), sim.native_active


def batch_run(points):
    """One ensemble over ``points``; returns the result."""
    from repro.casestudy import ServoConfig
    from repro.model import BatchScenario, BatchSimulator, SimulationOptions

    base = _servo((100.0, 6.0))
    scenarios = [
        BatchScenario({
            "controller.ref": {"value": sp},
            "controller.pid": {"gains": ServoConfig(bandwidth_hz=bw).gains()},
        }, label=f"sp{sp}-bw{bw}")
        for sp, bw in points
    ]
    return BatchSimulator(base.model, scenarios,
                          SimulationOptions(dt=DT, t_final=HORIZON)).run()


def _round(seed: int, n_jobs: int, n_batches: int, cache: str,
           probe: SpeedProbe, tracer=None, chunked: bool = False) -> dict:
    """``n_jobs`` jobs from an empty native cache, then ``n_batches``
    runs of the ensemble.  Host times are kept as ``(start, end)``
    chunks for ``probe`` (sampled between jobs, and every ``CHUNK``
    ensemble steps when ``chunked``)."""
    from repro.model import BatchSimulator

    os.environ["REPRO_NATIVE_CACHE"] = cache
    lanes = first_distinct(seed, BATCH_LANES)
    singles: dict = {}
    jobs: list = []
    native_jobs = 0
    for i, point in zip(range(n_jobs), job_points(seed)):
        probe.maybe_sample()
        if tracer is not None:
            tracer.set_op(f"job-{i}")
            (result, native), chunks = probe.run(tracer.span, "bench.mil_job",
                                                 single_run, point)
        else:
            (result, native), chunks = probe.run(single_run, point)
        jobs.append(chunks)
        native_jobs += native
        if point in lanes and point not in singles:
            singles[point] = result
    batches: list = []
    every = (BatchSimulator, "advance", CHUNK) if chunked else None
    for k in range(n_batches):
        probe.sample()
        if tracer is not None:
            tracer.set_op(f"batch-{k}")
            batch, chunks = probe.run(tracer.span, "bench.batch", batch_run, lanes)
        else:
            batch, chunks = probe.run(batch_run, lanes, every=every)
        batches.append(chunks)
    probe.sample()
    return {"lanes": lanes, "singles": singles, "jobs": jobs,
            "native_jobs": native_jobs, "batches": batches, "batch": batch}


def _raw(chunks) -> float:
    return sum(t1 - t0 for t0, t1 in chunks)


def _same(a, b) -> bool:
    """Bit-equal (atol=0) signals and time base."""
    return (list(a.names) == list(b.names) and np.array_equal(a.t, b.t)
            and all(np.array_equal(a[n], b[n]) for n in a.names))


def _checks(out: Outcome, ph: dict, seed: int) -> None:
    batched = ph["batch"]
    for b, point in enumerate(ph["lanes"]):
        single = ph["singles"].get(point)
        if single is None:
            single = single_run(point)[0]
        out.check(f"mil_sweep.lane[{b}]", _same(batched.lane(b), single))
    rng = np.random.default_rng([seed, 23])
    point = ph["lanes"][int(rng.integers(len(ph["lanes"])))]
    native_result, native = single_run(point)
    python_result, _ = single_run(point, native=False)
    out.check("mil_sweep.native_vs_python", _same(native_result, python_result))
    if not native:
        out.notes.append("note: the native path did not engage (see "
                         "kernel_fallback_delta in the provenance)")


def _doc_hashes(points) -> list:
    from repro.service.model_cache import model_content_hash

    return [model_content_hash(_servo(p).model, dt=DT, solver="rk4") for p in points]


def setup_probe(seed: int) -> None:
    from repro.native import find_cc

    find_cc()
    single_run(first_distinct(seed, 1)[0])


def _e2e(rounds: list, k: int, lane_steps: int, secs) -> tuple[dict, tuple]:
    """End-to-end metrics with ``secs`` turning chunks into seconds
    (normalized or raw); each job and ensemble its best round."""
    jobs_ms = [1e3 * min(secs(rd["jobs"][i]) for rd in rounds) for i in range(k)]
    t_ms, t_pct, n = tail(jobs_ms)
    batch_s = min(secs(c) for rd in rounds for c in rd["batches"])
    return {
        "throughput_per_s": k / sum(jobs_ms) * 1e3,
        "latency_p50_ms": p50(jobs_ms),
        "latency_tail_ms": t_ms,
        "sim_rtf": lane_steps / batch_s * DT,
    }, (t_pct, n)


def run(seed: int, seconds: float, trace: bool, scratch: str):
    out = Outcome()
    k = max(1, round(ROUND_RATE * seconds))
    if not trace:
        fb0 = fallback_counts()
        probe = SpeedProbe()
        rounds = [_round(seed, k, BATCHES, fresh_dir(scratch, f"native-round{r}"),
                         probe, chunked=True)
                  for r in range(ROUNDS)]
        out.fallback_delta = counter_delta(fb0, fallback_counts())
        ph = rounds[0]
        for r, other in enumerate(rounds[1:], 1):
            out.check(f"mil_sweep.round[{r}]_batch", _same(other["batch"], ph["batch"]))
        steps = len(ph["batch"].t)
        lane_steps = len(ph["lanes"]) * steps
        metrics, (t_pct, n) = _e2e(rounds, k, lane_steps, probe.norm)
        out.metrics.update(metrics)
        out.raw.update(_e2e(rounds, k, lane_steps, _raw)[0])
        misses = len({p for _, p in zip(range(k), job_points(seed))})
        out.notes += [
            f"jobs = {k} per round x {ROUNDS} rounds ({ph['native_jobs']} "
            f"native); {misses} distinct points, so native cache "
            f"misses/hits = {misses}/{k - misses} per round (repeat share "
            f"{1 - misses / k:.3f}); normalized round times "
            + ", ".join(f"{sum(map(probe.norm, rd['jobs'] + rd['batches'])):.3f} s"
                        for rd in rounds),
            f"latency_tail_ms is p{t_pct:.2f} of {n} jobs (best of {ROUNDS} "
            "rounds each)",
            f"batch_lane_steps_per_s = {metrics['sim_rtf'] / DT:.6g} 1/s (best of "
            f"{ROUNDS * BATCHES} runs of {len(ph['lanes'])} lanes x {steps} steps)",
        ]
        out.attempted += ROUNDS * (k + BATCHES)
    else:
        probe = SpeedProbe()
        # warm-up (imports, first cc call) so neither round pays it
        os.environ["REPRO_NATIVE_CACHE"] = fresh_dir(scratch, "native-warmup")
        single_run(first_distinct(seed, 1)[0])
        ph_u = _round(seed, k, 1, fresh_dir(scratch, "native-untraced"), probe)
        tracer = LayerTracer()
        cache = fresh_dir(scratch, "native-traced")
        before = snapshot()
        install(tracer)
        try:
            ph = _round(seed, k, 1, cache, probe, tracer)
        finally:
            tracer.uninstall()
        after = snapshot()

        def total(rd, secs):
            return sum(map(secs, rd["jobs"] + rd["batches"]))

        out.fallback_delta = counter_delta(before["fallback"], after["fallback"])
        out.metrics.update(layer_metrics(tracer, before, after, {}, {
            "ops": k + 1,
            "wall_s": total(ph, _raw),
            "overhead_pct": 100.0 * (total(ph, probe.norm) / total(ph_u, probe.norm) - 1.0),
        }))
        out.tracer = tracer
        out.attempted += 2 * (k + 1)
        out.check("mil_sweep.traced_vs_untraced", _same(ph["batch"], ph_u["batch"]))
    _checks(out, ph, seed)
    out.doc_hashes = _doc_hashes(ph["lanes"])
    return out
