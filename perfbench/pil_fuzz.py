"""pil_fuzz: the paper's PIL rig under the fault-space fuzzer.

Closed loop, one client: an in-process serial ``Fuzzer`` (``workers=None``)
runs candidates on the registered ``servo`` target (ARQ, safe loss
policy, watchdog; 0.2 s simulated each).  The seed drives the mutation
stream; generation 0 is the target's fixed grid, which mixes line-fault
candidates (per-byte fault hook, retransmits) with clean-line ones
(StuckSensor, StepOverrun).

Loads: sim, mcu, comm, faults, core/codegen, model (per-step plant
``advance``), fuzz, obs.  Bypasses: native (the short plant run stays
``below_auto_threshold``), batch, service.

The same seeded campaign runs ``ROUNDS`` times (the same candidates
each round).  Host times are normalized to the nominal host speed
(``hostspeed.py``) and each candidate's time is its best of the rounds.
End-to-end: ``throughput_per_s`` is candidates per normalized host
second, ``latency_*`` the host time per candidate, ``sim_rtf`` the PIL
real-time factor (simulated seconds over host seconds inside
``PILSimulator.run``).
"""

from __future__ import annotations

from time import perf_counter

from common import CORPUS, Outcome, counter_delta, p50, tail
from hostspeed import SpeedProbe
from layers import fallback_counts, install, layer_metrics, snapshot
from tracer import LayerTracer

ROUNDS = 3
#: candidates per round, per second of the run: a round runs
#: ``round(ROUND_RATE * seconds)`` candidates, rounded up to whole
#: generations by the fuzzer.  A traced run makes one untraced and one
#: traced round.
ROUND_RATE = 1.2


class _Meter:
    """Wraps ``evaluate_plan`` (one row per candidate) and
    ``PILSimulator.run`` (host vs simulated time).  With a tracer, each
    candidate is also the root span of its layer spans."""

    def __init__(self, tracer: LayerTracer, probe: SpeedProbe):
        self.tracer = tracer
        self.probe = probe
        #: one row per candidate:
        #: (plan_doc, hash, host_s, faulted, pil_s, t_start, t_end)
        self.rows: list[tuple] = []
        self.pil_host_s = 0.0

    def install(self, traced: bool) -> None:
        import repro.fuzz.fuzzer as fuzzer
        from repro.faults import FaultPlan
        from repro.sim.pil import PILSimulator

        meter, tracer = self, self.tracer

        def wrap_eval(orig):
            def evaluate_plan(target, plan_doc, t_final, sig_config):
                faulted = FaultPlan.from_dict(plan_doc).has_line_faults
                if traced:
                    tracer.set_op(f"cand-{len(meter.rows)}",
                                  ".faulted" if faulted else ".clean")
                    tracer.count(f"fuzz.{'faulted' if faulted else 'clean'}_candidates")
                meter.probe.maybe_sample()
                pil0 = meter.pil_host_s
                t0 = perf_counter()
                if traced:
                    out = tracer.span("bench.candidate", orig, target, plan_doc,
                                      t_final, sig_config)
                else:
                    out = orig(target, plan_doc, t_final, sig_config)
                t1 = perf_counter()
                meter.rows.append((plan_doc, out["hash"], t1 - t0, faulted,
                                   meter.pil_host_s - pil0, t0, t1))
                return out
            return evaluate_plan

        def wrap_run(orig):
            def run(self, t_final):
                t0 = perf_counter()
                result = orig(self, t_final)
                meter.pil_host_s += perf_counter() - t0
                return result
            return run

        # the meter wraps outside the layer spans so its own cost is
        # charged to the candidate, not to a layer
        tracer.patch(fuzzer, "evaluate_plan", wrap_eval)
        tracer.patch(PILSimulator, "run", wrap_run)


def _fuzz(seed: int, traced: bool, probe: SpeedProbe, **stop):
    from repro.fuzz import FuzzConfig, Fuzzer

    tracer = LayerTracer()
    meter = _Meter(tracer, probe)
    if traced:
        install(tracer)
    meter.install(traced)
    try:
        stats = Fuzzer(FuzzConfig(target="servo", seed=seed, workers=None, **stop)).run()
    finally:
        tracer.uninstall()
    return stats, meter, tracer


def setup_probe(seed: int) -> None:
    from repro.faults import FaultPlan
    from repro.fuzz import FuzzConfig, Fuzzer
    from repro.fuzz.fuzzer import evaluate_plan

    fz = Fuzzer(FuzzConfig(target="servo", seed=seed, max_candidates=1))
    evaluate_plan(fz.target, FaultPlan([], seed=0).to_dict(), fz.t_final,
                  fz.config.signature)


def _servo_doc_hash() -> str:
    from repro.casestudy import ServoConfig, build_servo_model
    from repro.service.model_cache import model_content_hash

    return model_content_hash(build_servo_model(ServoConfig(setpoint=100.0)).model)


def _replay_corpus(out: Outcome) -> None:
    """The pinned regression corners replay bit-identically (read-only)."""
    from repro.fuzz.corpus import Corpus
    from repro.fuzz.replay import replay_corpus

    for sig_hash, res in replay_corpus(Corpus.load(CORPUS)).items():
        out.check(f"pil_fuzz.corpus[{sig_hash}]", res.ok)


def run(seed: int, seconds: float, trace: bool, scratch: str):
    from repro.fuzz.targets import get_target

    out = Outcome()
    out.doc_hashes.append(_servo_doc_hash())
    k = max(1, round(ROUND_RATE * seconds))
    if not trace:
        fb0 = fallback_counts()
        probe = SpeedProbe()
        rounds = [_fuzz(seed, False, probe, max_candidates=k)[:2]
                  for _ in range(ROUNDS)]
        probe.sample()
        out.fallback_delta = counter_delta(fb0, fallback_counts())
        meters = [m for _, m in rounds]
        # a seed's campaign is deterministic: every round, same hashes
        for r, m in enumerate(meters[1:], 1):
            out.check(f"pil_fuzz.round[{r}]_hashes",
                      [row[1] for row in m.rows] == [row[1] for row in meters[0].rows])
        n = len(meters[0].rows)

        def best_of(field, scale):
            return [min(scale(m.rows[i][field], *m.rows[i][5:7]) for m in meters)
                    for i in range(n)]

        faulted = sum(1 for row in meters[0].rows if row[3])
        t_final = get_target("servo").t_final

        def e2e(scale):
            best, best_pil = best_of(2, scale), best_of(4, scale)
            walls = [s * 1e3 for s in best]
            t_ms, t_pct, _ = tail(walls)
            return {
                "throughput_per_s": n / sum(best),
                "latency_p50_ms": p50(walls),
                "latency_tail_ms": t_ms,
                "sim_rtf": n * t_final / sum(best_pil),
            }, t_pct

        metrics, t_pct = e2e(probe.scale)
        out.metrics.update(metrics)
        out.raw.update(e2e(lambda secs, t0, t1: secs)[0])
        out.notes += [
            f"candidates = {n} per round x {ROUNDS} rounds ({faulted} "
            f"line-faulted, {n - faulted} clean line), novel "
            f"{rounds[0][0].novel}; round walls "
            + ", ".join(f"{st.elapsed_s:.3f} s" for st, _ in rounds),
            f"latency_tail_ms is p{t_pct:.2f} of {n} candidates (best of "
            f"{ROUNDS} rounds each)",
        ]
        out.attempted += n * ROUNDS
    else:
        probe = SpeedProbe()
        setup_probe(seed)  # warm-up (imports, first rig) so neither round pays it
        stats_u, meter_u, _ = _fuzz(seed, False, probe, max_candidates=k)
        before = snapshot()
        probing = probe.spent_s
        stats_t, meter_t, tracer = _fuzz(seed, True, probe, max_candidates=k)
        probing = probe.spent_s - probing
        after = snapshot()
        probe.sample()
        untraced = sum(probe.scale(r[2], *r[5:7]) for r in meter_u.rows)
        traced = sum(probe.scale(r[2], *r[5:7]) for r in meter_t.rows)
        out.fallback_delta = counter_delta(before["fallback"], after["fallback"])
        out.attempted += stats_u.candidates + stats_t.candidates
        # the traced and the untraced run made the same candidates
        out.check("pil_fuzz.traced_vs_untraced",
                  [r[1] for r in meter_u.rows] == [r[1] for r in meter_t.rows])
        out.metrics.update(layer_metrics(tracer, before, after, {}, {
            "ops": stats_t.candidates,
            "wall_s": stats_t.elapsed_s - probing,
            "novel_ratio": stats_t.novel / stats_t.candidates,
            "overhead_pct": 100.0 * (traced / untraced - 1.0),
        }))
        out.tracer = tracer
    _replay_corpus(out)
    return out
