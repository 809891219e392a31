"""Native lanes in thread groups: an ensemble's lanes step each chunk as
contiguous groups, one per usable CPU, and ``nx_run`` writes every
lane's rows straight into the lane-major log.

Each lane owns its context and every buffer the context points into,
so the split cannot change a bit: every comparison here is atol=0
between one group (``cc_slots`` forced to 1) and two (forced to 2),
whatever the host's CPU count.  A chunk below
``SPLIT_MIN_BLOCK_STEPS`` stays on the calling thread.
"""

import threading

import numpy as np
import pytest

import repro.native.cache as native_cache
from repro.model import (
    BatchSimulator,
    SimulationCancelled,
    SimulationOptions,
    Simulator,
)
from repro.native import wait_pending
from repro.native.executor import SPLIT_MIN_BLOCK_STEPS, LaneGroups
from repro.obs import Tracer, use_tracer
from repro.service import CoalesceConfig, JobState, SimServe, SweepRequest
from repro.service.__main__ import servo_sweep_model

from tests.model.test_cancel import FlipsAt
from tests.model.test_kernels import LIBRARY, harness
from tests.native.conftest import require_cc, run_threads
from tests.native.test_native_lanes import (
    DT,
    POINTS,
    assert_same_batch,
    ensemble,
    servo_cm,
    single,
    sweep_scenarios,
)

CHUNK = Simulator._NATIVE_CHUNK
#: servo scheduled blocks per lane-step
SERVO_BLOCKS = 18


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes the CPU helper report ``k`` usable CPUs."""
    require_cc()

    def force(k):
        monkeypatch.setattr(native_cache, "cc_slots", lambda: k)

    return force


@pytest.fixture
def splits(monkeypatch):
    """How many chunks ran split across threads (group runner calls)."""
    calls = []
    real = LaneGroups._split

    def counted(self, *args):
        calls.append(len(self.groups))
        return real(self, *args)

    monkeypatch.setattr(LaneGroups, "_split", counted)
    return calls


def traced_run(make):
    """``(sim, result, batch.run span args)`` of ``make()``'s run."""
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        sim = make()
        result = sim.run()
    (span,) = [e for e in tracer.events() if e["name"] == "batch.run"]
    return sim, result, span["args"]


def one_and_two(cpus, make):
    """``(one-group result, two-group result, two-group sim, its
    batch.run span args)`` of the same ensemble, both on native lanes."""
    runs = {}
    for k in (1, 2):
        cpus(k)
        sim, result, args = traced_run(make)
        assert sim.native_active, sim.native_fallback_reason
        runs[k] = (sim, result, args)
    (sim1, r1, a1), (sim2, r2, a2) = runs[1], runs[2]
    assert sim1.plan_stats["lane_groups"] == a1["lane_groups"] == 1
    return r1, r2, sim2, a2


class TestOneGroupEqualsTwo:
    @pytest.mark.parametrize("solver", ["rk4", "euler"])
    def test_servo_sweep(self, cpus, splits, solver):
        r1, r2, sim, args = one_and_two(cpus, lambda: ensemble(
            native_mode=True, solver=solver))
        assert sim.plan_stats["lane_groups"] == args["lane_groups"] == 2
        assert splits == [2]  # 501 steps: one chunk, split
        assert_same_batch(r1, r2)
        if solver == "rk4":
            for b, point in enumerate(POINTS):
                assert np.array_equal(r2["speed"][:, b],
                                      single(point)["speed"])

    def test_groups_are_contiguous_lanes_on_distinct_threads(
            self, cpus, monkeypatch):
        cpus(2)
        seen = {}
        real = LaneGroups._run

        def recorded(self, first, end, *args):
            seen.setdefault(threading.get_ident(), set()).update(
                range(first, end))
            return real(self, first, end, *args)

        monkeypatch.setattr(LaneGroups, "_run", recorded)
        sim = ensemble(native_mode=True)
        sim.run()
        assert sim._lanes.groups == [(0, 8), (8, 16)]
        assert sorted(map(sorted, seen.values())) == [
            list(range(8)), list(range(8, 16))]
        assert seen[threading.get_ident()] == set(range(8))

    def test_multi_form_ensemble(self, cpus, splits):
        # 16 gain lanes, one of exactly -1 (its own artifact), 5001
        # steps: a split chunk, then one below the split threshold
        gains = [0.25 + 0.5 * k for k in range(15)] + [-1.0]
        scenarios = [{"b": {"gain": g}} for g in gains]

        def make():
            return BatchSimulator(
                harness(LIBRARY["gain"])().compile(1e-3), scenarios,
                SimulationOptions(dt=1e-3, t_final=5.0, native=True,
                                  log_all_signals=True))

        r1, r2, sim, args = one_and_two(cpus, make)
        assert sim.plan_stats["forms"] == 2
        assert args["lane_groups"] == 2 and len(splits) == 1
        assert len(r2.names) > 1
        assert_same_batch(r1, r2)

    def test_all_signals_log(self, cpus):
        r1, r2, sim, args = one_and_two(cpus, lambda: ensemble(
            native_mode=True, log_all_signals=True, t_final=0.5))
        assert args["lane_groups"] == 2
        ref = ensemble(POINTS, native_mode=False, log_all_signals=True,
                       t_final=0.5).run()
        assert len(r2.names) > 2
        assert_same_batch(r1, r2)
        assert_same_batch(ref, r2)

    def test_single_lane(self, cpus, splits):
        r1, r2, sim, args = one_and_two(cpus, lambda: ensemble(
            POINTS[:1], native_mode=True, t_final=1.0))
        assert sim.plan_stats["lane_groups"] == args["lane_groups"] == 1
        assert splits == []
        assert_same_batch(r1, r2)

    def test_small_chunks_stay_on_the_calling_thread(self, cpus, splits):
        cpus(2)
        points = POINTS[:4]
        steps = SPLIT_MIN_BLOCK_STEPS // (len(points) * SERVO_BLOCKS) - 1
        sim, result, args = traced_run(lambda: ensemble(
            points, native_mode=True, t_final=(steps - 1) * DT))
        assert sim.plan_stats["lane_groups"] == 2
        assert args["lane_groups"] == 1 and splits == []
        assert_same_batch(ensemble(points, native_mode=False,
                                   t_final=(steps - 1) * DT).run(), result)


class TestCancelUnderSplit:
    def test_cancel_raises_at_a_chunk_boundary(self, cpus, splits):
        cpus(2)
        full = ensemble(native_mode=True, t_final=1.0).run()
        cancel = FlipsAt(2)
        sim = ensemble(native_mode=True, t_final=1.0, cancel=cancel)
        with pytest.raises(SimulationCancelled) as info:
            sim.run()
        assert info.value.step_index == sim.step_index == CHUNK
        assert cancel.calls == 2 and splits[-1] == 2
        partial = sim.result()
        assert np.array_equal(partial.t, full.t[:CHUNK])
        for name in full.names:
            assert np.array_equal(partial[name], full[name][:CHUNK]), name


class TestConcurrency:
    def test_two_threads_run_split_ensembles_at_once(self, cpus, splits):
        halves = {"a": POINTS[:8], "b": POINTS[8:]}
        cpus(1)
        ref = {key: ensemble(points, native_mode=True, t_final=0.2).run()
               for key, points in halves.items()}
        cpus(2)
        out = {}

        def run(key):
            sim = ensemble(halves[key], native_mode=True, cm=servo_cm(),
                           t_final=0.2)
            out[key] = (sim.run(), sim.native_active)

        run_threads([(run, "a"), (run, "b")])
        assert splits == [2, 2]  # one per thread
        for key in halves:
            result, active = out[key]
            assert active
            assert_same_batch(ref[key], result)

    def test_forked_child_runs_a_split_sweep(self, cpus, splits):
        """A process-pool child forked after the parent split an
        ensemble runs its own split sweep to the end, bit-equal."""
        cpus(2)
        t_final = 0.1  # 16 lanes x 1001 steps: above the split threshold
        parent = ensemble(native_mode=True, t_final=t_final).run()
        assert splits == [2]
        sweep = SweepRequest(
            builder=servo_sweep_model,
            base_kwargs={"setpoint": 100.0, "bandwidth_hz": 6.0},
            execution="batch",
            scenarios=[s.overrides for s in sweep_scenarios(POINTS)],
            dt=DT, t_final=t_final,
        )
        with SimServe(workers=1, backend="process") as svc:
            rec = svc.submit_sweep(sweep).handle.record(timeout=120.0)
        assert rec.state is JobState.DONE, rec.error
        for b, lane in enumerate(rec.result.split()):
            for name in lane.names:
                assert np.array_equal(lane[name], parent[name][:, b]), name


class TestCoalescedBatches:
    def test_201_step_jobs_never_reach_the_group_runner(
            self, cpus, splits, monkeypatch):
        from tests.service.test_coalesce import direct_run, servo_job

        cpus(2)
        width = 16
        batches = []
        real = LaneGroups.run_chunk

        def counted(self, *args):
            batches.append(len(self.lanes))
            return real(self, *args)

        monkeypatch.setattr(LaneGroups, "run_chunk", counted)
        cfg = CoalesceConfig(max_batch=width, window_s=0.2)
        with SimServe(workers=1, coalesce=cfg) as svc:
            svc.submit(servo_job()).result(timeout=60.0)  # warm-up
            assert wait_pending(120)
            handles = [svc.submit(servo_job()) for _ in range(width)]
            records = [h.record(timeout=60.0) for h in handles]
        assert batches == [width]  # one chunk of native lanes...
        assert splits == []  # ...that stayed on the calling thread
        reference = direct_run(servo_job())
        for rec in records:
            assert rec.state is JobState.DONE
            assert rec.summary["coalesced"]["width"] == width
            for name in reference.names:
                assert np.array_equal(rec.result[name], reference[name])
