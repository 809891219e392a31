"""serve_mixed: open-loop traffic into SimServe.

Open loop: arrivals from the seed, at the fixed offered rate ``RATE``,
go into ``SimServe(workers=2)`` with defaults otherwise (thread workers,
64-deep queue, 32-entry model cache, flight recorder and waterfalls on).
The arrival count is fixed (``RATE`` x seconds) and the times are a
Poisson process conditioned on that count.  The mix:

* a ``1 - PIL`` share of short ``servo_sweep_model`` MIL jobs, whose
  (setpoint, bandwidth) points come from the same stream as
  ``mil_sweep``: one new point in every six jobs, the rest repeats of
  earlier points (the repeat share of the repository's own service
  benchmark, ``bench_service`` in ``benchmarks/perf_harness.py``).  A
  repeat is a model-cache hit while its point is still cached; a new
  point is a miss (compile, insert, and eviction once more points than
  the cache holds have been seen);
* a ``PIL`` share of short ``servo`` PIL jobs.  No traffic record in
  the repository gives this share: it is an assumption, reported with
  the measured shares on every run.

The short MIL runs stay below the native auto threshold, so this is
where the Python kernel path runs.  The offered rate and the latency
limit are constants of the benchmark, never derived from the measured
capacity.  A refused submission (``QueueFull``) counts as failed and is
never retried.  A run whose generator fell behind its schedule by more
than ``MAX_LAG_MS`` is void.

Host times are normalized to the nominal host speed (``hostspeed.py``,
sampled before and after the window and by the generator whenever the
service sits idle).  End-to-end: ``throughput_per_s`` is goodput (jobs
done within ``LIMIT_MS`` of their due time, per second from the first
due time to the last completion), ``latency_*`` is timed from each
arrival's due time, ``sim_rtf`` is the median over MIL jobs of
simulated seconds per host second in the job's ``run`` phase.
"""

from __future__ import annotations

import queue
import statistics
import threading
import time

import numpy as np

from common import Outcome, counter_delta, p50, tail
from hostspeed import SpeedProbe
from layers import install, layer_metrics, snapshot
from mil_sweep import job_points
from tracer import LayerTracer

#: offered arrivals per second, frozen.  At this rate jobs often arrive
#: while another one runs, so the queue and the worker pool are on the
#: blocking path (the latency tail is several lone PIL jobs long), but
#: bursts rarely pile up: at 20 jobs/s and a 0.30 PIL share the tail's
#: spread over five seeds (quartile distance over median) was 0.48.
RATE = 12.0
#: goodput counts jobs done within this latency of their due time.  It
#: lies inside the latency tail at ``RATE`` (about 4 % of the jobs take
#: longer on the reference host), so goodput can move both ways.
LIMIT_MS = 60.0
#: a generator later than this behind its schedule voids the run
MAX_LAG_MS = 250.0
#: share of PIL jobs (an assumption, see above).  With it, about two
#: thirds of the jobs are model-cache hits, so the median latency lies
#: among hits; at 0.30 it fell where hits give way to slower jobs and
#: spread twice as much from seed to seed.
PIL = 0.15
MIL_DT, MIL_T_FINAL = 1e-4, 0.02
PIL_T_FINAL = 0.05
#: the generator samples the host speed (one reference-kernel call) this
#: long before an arrival is due, when the service sits idle
IDLE_PROBE_GAP_S = 0.02
#: seeded sample of results re-run directly and compared bit for bit
SAMPLE_MIL, SAMPLE_PIL = 8, 2
#: a point outside the stream's range, served before the window to
#: finish lazy imports
WARM_POINT = (50.0, 2.0)


class VoidRun(Exception):
    """The load generator could not keep to its schedule."""


def schedule(seed: int, duration: float) -> dict:
    rng = np.random.default_rng([seed, 31])
    n = max(1, round(RATE * duration))
    offsets = np.sort(rng.uniform(0.0, duration, n))
    n_pil = round(PIL * n)
    kinds = ["pil"] * n_pil + ["mil"] * (n - n_pil)
    rng.shuffle(kinds)
    points = job_points(seed)
    jobs = [("mil", next(points)) if kind == "mil" else ("pil", None) for kind in kinds]
    mil_idx = [i for i, (k, _) in enumerate(jobs) if k == "mil"]
    pil_idx = [i for i, (k, _) in enumerate(jobs) if k == "pil"]
    sample = set(int(i) for i in rng.choice(mil_idx, min(SAMPLE_MIL, len(mil_idx)), replace=False))
    sample |= set(int(i) for i in rng.choice(pil_idx, min(SAMPLE_PIL, len(pil_idx)), replace=False)) if pil_idx else set()
    return {"offsets": [float(x) for x in offsets], "jobs": jobs,
            "sample": sample, "duration": duration}


def _request(kind: str, point):
    from repro.fuzz.targets import get_target
    from repro.service import MILRequest, PILRequest
    from repro.service.__main__ import servo_sweep_model

    if kind == "mil":
        return MILRequest(builder=servo_sweep_model,
                          builder_kwargs={"setpoint": point[0], "bandwidth_hz": point[1]},
                          dt=MIL_DT, t_final=MIL_T_FINAL)
    return PILRequest(make_pil=get_target("servo").make_pil, t_final=PIL_T_FINAL)


def _phase(sched: dict, probe: SpeedProbe, tracer=None) -> dict:
    """Serve one schedule; returns per-job rows (raw host times on the
    ``time.monotonic`` clock of ``probe``) and the service snapshots.
    ``probe`` is sampled before and after the window and by the
    generator whenever the service sits idle."""
    from repro.service import QueueFull, SimServe

    probe.sample()
    svc = SimServe(workers=2)
    try:
        # warm-up outside the window: finish lazy imports on both paths
        warm = [svc.submit(_request("mil", WARM_POINT)), svc.submit(_request("pil", None))]
        for h in warm:
            h.result(120)
        cache0 = svc.metrics_snapshot()["cache"]
        before = snapshot()
        if tracer is not None:
            install(tracer)
        #: per arrival: (done, latency_s, submit_t, end_t, exec_s, run_s)
        rows: list = [None] * len(sched["jobs"])
        results: dict = {}
        pending: queue.Queue = queue.Queue()

        def collect():
            while True:
                item = pending.get()
                if item is None:
                    return
                i, handle, due, submit_t = item
                rec = handle.record(120)
                done = rec.state.value == "done"
                rows[i] = (done, submit_t - due + rec.total_s, submit_t,
                           submit_t + rec.total_s, rec.exec_s, rec.phase_s.get("run"))
                if i in sched["sample"] and done:
                    results[i] = rec.result

        collector = threading.Thread(target=collect, name="perfbench-collector")
        collector.start()
        max_lag = 0.0
        refused = 0
        t0 = time.monotonic() + 0.05
        try:
            for i, (off, (kind, point)) in enumerate(zip(sched["offsets"], sched["jobs"])):
                due = t0 + off
                # just before the next arrival is due, sample the host
                # speed if the service sits idle: nothing runs, and
                # nothing arrives before the sample ends
                wait = due - 1.5 * IDLE_PROBE_GAP_S - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                    if svc.metrics.workers_busy == 0 and svc.scheduler.depth == 0:
                        probe.sample(repeats=1)
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                submit_t = time.monotonic()
                max_lag = max(max_lag, submit_t - due)
                if tracer is not None:
                    tracer.set_op(f"arrival-{i}")
                try:
                    handle = svc.submit(_request(kind, point))
                except QueueFull:
                    refused += 1
                    rows[i] = (False, float("inf"), submit_t, submit_t, None, None)
                    continue
                pending.put((i, handle, due, submit_t))
        finally:
            pending.put(None)
            collector.join(300)
        end = time.monotonic()
        snap = svc.metrics_snapshot()
        if tracer is not None:
            # let each worker return to Scheduler.next_job (it polls every
            # 0.2 s), which closes its last busy window
            time.sleep(0.3)
        after = snapshot()
    finally:
        if tracer is not None:
            tracer.uninstall()
        svc.shutdown(wait=True)
    probe.sample()
    return {"rows": rows, "results": results, "max_lag_ms": max_lag * 1e3,
            "refused": refused, "t0": t0, "end": end, "snap": snap,
            "cache0": cache0, "before": before, "after": after}


def _serve(out: Outcome, ph: dict) -> dict:
    """Count one served schedule."""
    rows = ph["rows"]
    done = [r for r in rows if r is not None and r[0]]
    failed = len(rows) - len(done)
    out.attempted += len(rows)
    out.failed += failed
    return {"done": done, "failed": failed,
            "window": max(r[3] for r in done) - ph["t0"]}


def _e2e(sched: dict, ph: dict, served: dict, factor) -> tuple[dict, tuple]:
    """End-to-end metrics, each row's host times multiplied by
    ``factor(row)`` (the host-speed factor of its interval, or 1)."""
    done = served["done"]
    lat_ms = [1e3 * r[1] * factor(r) for r in done]
    good = sum(1 for x in lat_ms if x <= LIMIT_MS)
    mil_rtf = [MIL_T_FINAL / (r[5] * factor(r)) for r, (kind, _) in zip(ph["rows"], sched["jobs"])
               if kind == "mil" and r is not None and r[0] and r[5]]
    t_ms, t_pct, n = tail(lat_ms)
    return {
        "throughput_per_s": good / served["window"],
        "latency_p50_ms": p50(lat_ms),
        "latency_tail_ms": t_ms,
        "sim_rtf": statistics.median(mil_rtf),
    }, (t_pct, n, good)


def _sample_checks(out: Outcome, sched: dict, results: dict) -> None:
    """The sampled job results equal a direct run, bit for bit."""
    from repro.fuzz.targets import get_target
    from repro.model import SimulationOptions, Simulator
    from repro.service.__main__ import servo_sweep_model

    for i in sorted(sched["sample"]):
        kind, point = sched["jobs"][i]
        got = results.get(i)
        if got is None:
            out.check(f"serve_mixed.sample[{i}]", False)
            continue
        if kind == "mil":
            model = servo_sweep_model(setpoint=point[0], bandwidth_hz=point[1])
            want = Simulator(model, SimulationOptions(dt=MIL_DT, t_final=MIL_T_FINAL)).run()
        else:
            pil = get_target("servo").make_pil().run(PIL_T_FINAL)
            if (pil.steps, pil.retransmits) != (got.steps, got.retransmits):
                out.check(f"serve_mixed.sample[{i}]", False)
                continue
            want, got = pil.result, got.result
        ok = (list(want.names) == list(got.names) and np.array_equal(want.t, got.t)
              and all(np.array_equal(want[n], got[n]) for n in want.names))
        out.check(f"serve_mixed.sample[{i}]", ok)


def _doc_hashes(sched: dict) -> list:
    from repro.service.__main__ import servo_sweep_model
    from repro.service.model_cache import model_content_hash

    return [model_content_hash(servo_sweep_model(setpoint=p[0], bandwidth_hz=p[1]), dt=MIL_DT)
            for p in {p for kind, p in sched["jobs"] if kind == "mil"}]


def setup_probe(seed: int) -> None:
    from repro.service import SimServe

    svc = SimServe(workers=2)
    try:
        svc.submit(_request("mil", next(job_points(seed)))).result(60)
    finally:
        svc.shutdown(wait=True)


def _check_lag(ph: dict) -> None:
    if ph["max_lag_ms"] > MAX_LAG_MS:
        raise VoidRun(f"generator lag {ph['max_lag_ms']:.1f} ms > {MAX_LAG_MS} ms")


def run(seed: int, seconds: float, trace: bool, scratch: str):
    out = Outcome()
    probe = SpeedProbe(clock=time.monotonic)
    if not trace:
        sched = schedule(seed, seconds)
        ph = _phase(sched, probe)
        out.fallback_delta = counter_delta(ph["before"]["fallback"], ph["after"]["fallback"])
        _check_lag(ph)
        served = _serve(out, ph)
        metrics, (t_pct, n, good) = _e2e(sched, ph, served,
                                         lambda r: probe.factor(r[2], r[3]))
        out.metrics.update(metrics)
        out.raw.update(_e2e(sched, ph, served, lambda r: 1.0)[0])
        arrivals = len(sched["jobs"])
        n_pil = sum(1 for kind, _ in sched["jobs"] if kind == "pil")
        cache = {k: ph["snap"]["cache"][k] - ph["cache0"][k] for k in ("hits", "misses")}
        out.notes += [
            f"offered = {arrivals / sched['duration']:.3f} jobs/s ({arrivals} "
            f"arrivals); achieved (done per second of window) = "
            f"{len(served['done']) / served['window']:.3f} jobs/s; "
            f"{good} done within the {LIMIT_MS:g} ms goodput limit",
            f"measured mix: PIL {n_pil / arrivals:.3f}, MIL {1 - n_pil / arrivals:.3f} "
            f"of arrivals; model cache hits/misses = {cache['hits']}/{cache['misses']} "
            f"(hit share {cache['hits'] / max(1, cache['hits'] + cache['misses']):.3f})",
            f"latency_tail_ms is p{t_pct:.2f} of {n} completed arrivals",
            f"refused (QueueFull) = {ph['refused']}; failed = {served['failed']}; "
            f"loadgen.max_lag_ms = {ph['max_lag_ms']:.3f}",
        ]
    else:
        sched = schedule(seed, seconds / 2)
        ph_u = _phase(sched, probe)
        tracer = LayerTracer()
        ph = _phase(sched, probe, tracer)
        before, after = ph["before"], ph["after"]
        out.fallback_delta = counter_delta(before["fallback"], after["fallback"])
        for p in (ph_u, ph):
            _check_lag(p)
        served_u, served = _serve(out, ph_u), _serve(out, ph)

        def exec_mean(served):
            return statistics.fmean(r[4] * probe.factor(r[2], r[3])
                                    for r in served["done"] if r[4] is not None)

        out.metrics.update(layer_metrics(tracer, before, after, ph["snap"], {
            "ops": len(sched["jobs"]),
            "wall_s": ph["end"] - ph["t0"],
            "max_lag_ms": ph["max_lag_ms"],
            "overhead_pct": 100.0 * (exec_mean(served) / exec_mean(served_u) - 1.0),
        }))
        out.tracer = tracer
    _sample_checks(out, sched, ph["results"])
    out.doc_hashes = _doc_hashes(sched)
    return out
