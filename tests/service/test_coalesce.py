"""Continuous batching: dynamic vector-job formation in SimServe.

Edge cases pinned here, per the scheduler's formation invariants:

* bit-identity — every coalesced lane equals its direct serial run
  (``np.array_equal``, no tolerance);
* a coalesce window that expires with a single member runs the job on
  the serial path, never as a B=1 vector job;
* mixed-priority jobs never coalesce, and an expired peer is shed
  through the normal deadline path during formation — coalescing never
  crosses a deadline-shed boundary;
* a job arriving after the batch's final step boundary (i.e. after the
  vector run completed) starts its own run instead of corrupting the
  finished one.
"""

import os
import time

import numpy as np
import pytest

from repro.model import SimulationOptions, Simulator
from repro.model.engine import simulate
from repro.obs.flight import FlightRecorder
from repro.obs.report import build_report, load_ops_input
from repro.service import (
    CoalesceConfig,
    CoalescedBatch,
    Job,
    JobPriority,
    JobState,
    MILRequest,
    PILRequest,
    Scheduler,
    SimServe,
    SweepRequest,
    coalesce_key,
)

from tests.service.helpers import (
    Gate,
    build_loop_model,
    crash_in_child_builder,
    crashing_builder,
    make_fake_pil,
)

DT = 1e-3
T_FINAL = 0.05


def mil(**overrides) -> MILRequest:
    kwargs = dict(model=build_loop_model(), dt=DT, t_final=T_FINAL)
    kwargs.update(overrides)
    return MILRequest(**kwargs)


def direct_run(request: MILRequest):
    """The serial reference a coalesced lane must match bit-for-bit."""
    sim = Simulator(
        request.resolve_model().compile(request.dt),
        SimulationOptions(
            dt=request.dt,
            t_final=request.t_final,
            solver=request.solver,
            log_all_signals=request.log_all_signals,
        ),
    )
    return sim.run()


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------
class TestCoalesceConfig:
    def test_defaults(self):
        cfg = CoalesceConfig()
        assert cfg.max_batch >= 2
        assert cfg.window_s >= 0

    def test_b1_batch_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            CoalesceConfig(max_batch=1)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window_s"):
            CoalesceConfig(window_s=-0.1)

    def test_from_env_off_by_default(self, monkeypatch):
        monkeypatch.delenv("SIMSERVE_COALESCE", raising=False)
        assert CoalesceConfig.from_env() is None

    def test_from_env_enabled_with_knobs(self, monkeypatch):
        monkeypatch.setenv("SIMSERVE_COALESCE", "1")
        monkeypatch.setenv("SIMSERVE_COALESCE_MAX_BATCH", "8")
        monkeypatch.setenv("SIMSERVE_COALESCE_WINDOW_S", "0.25")
        cfg = CoalesceConfig.from_env()
        assert cfg == CoalesceConfig(max_batch=8, window_s=0.25)

    def test_from_env_falsy_values_stay_off(self, monkeypatch):
        monkeypatch.setenv("SIMSERVE_COALESCE", "0")
        assert CoalesceConfig.from_env() is None


# ---------------------------------------------------------------------------
# compatibility key
# ---------------------------------------------------------------------------
class TestCoalesceKey:
    def test_same_doc_same_options_match(self):
        assert coalesce_key(mil()) == coalesce_key(mil())

    def test_trajectory_shaping_options_differ(self):
        base = coalesce_key(mil())
        assert coalesce_key(mil(dt=2e-3)) != base
        assert coalesce_key(mil(t_final=0.1)) != base
        assert coalesce_key(mil(solver="euler")) != base
        assert coalesce_key(mil(log_all_signals=True)) != base

    def test_retain_trace_does_not_split_batches(self):
        assert coalesce_key(mil(retain_trace=False)) == coalesce_key(mil())

    def test_different_model_doc_differs(self):
        other = MILRequest(
            model=build_loop_model(gain=5.0), dt=DT, t_final=T_FINAL
        )
        assert coalesce_key(other) != coalesce_key(mil())

    def test_batch_sweep_shares_key_with_mil(self):
        # a lane is a lane: one model doc, same options -> one batch
        sweep = SweepRequest(
            builder=build_loop_model,
            execution="batch",
            scenarios=[{"ctrl": {"gain": 3.0}}],
            dt=DT,
            t_final=T_FINAL,
        )
        assert coalesce_key(sweep) == coalesce_key(mil())

    def test_unkeyable_requests_stay_serial(self):
        assert coalesce_key(PILRequest(make_pil=make_fake_pil, t_final=0.1)) is None
        fanout = SweepRequest(
            builder=build_loop_model, grid=[{"gain": 1.0}], dt=DT, t_final=T_FINAL
        )
        assert coalesce_key(fanout) is None
        broken = MILRequest(builder=crashing_builder, dt=DT, t_final=T_FINAL)
        assert coalesce_key(broken) is None


# ---------------------------------------------------------------------------
# scheduler-level formation (deterministic, no workers)
# ---------------------------------------------------------------------------
def queued_job(sched, key=("k",), priority=JobPriority.NORMAL, deadline_s=None):
    job = Job(mil(), priority=priority, deadline_s=deadline_s)
    job.coalesce_key = key
    sched.submit(job)
    return job


class TestSchedulerFormation:
    def cfg(self, **kw):
        kw.setdefault("max_batch", 4)
        kw.setdefault("window_s", 0.0)
        return CoalesceConfig(**kw)

    def test_queued_peers_coalesce_fifo(self):
        sched = Scheduler(coalesce=self.cfg())
        jobs = [queued_job(sched) for _ in range(3)]
        batch = sched.next_job(timeout=1.0)
        assert isinstance(batch, CoalescedBatch)
        assert batch.members == jobs  # submission order = lane order
        assert sched.depth == 0

    def test_single_member_returns_bare_job(self):
        sched = Scheduler(coalesce=self.cfg())
        job = queued_job(sched)
        popped = sched.next_job(timeout=1.0)
        assert popped is job
        assert not isinstance(popped, CoalescedBatch)

    def test_max_batch_caps_width(self):
        sched = Scheduler(coalesce=self.cfg(max_batch=3))
        jobs = [queued_job(sched) for _ in range(5)]
        batch = sched.next_job(timeout=1.0)
        assert isinstance(batch, CoalescedBatch)
        assert batch.members == jobs[:3]
        assert sched.depth == 2  # overflow stays queued for the next pop

    def test_different_keys_never_mix(self):
        sched = Scheduler(coalesce=self.cfg())
        a = queued_job(sched, key=("a",))
        b = queued_job(sched, key=("b",))
        first = sched.next_job(timeout=1.0)
        second = sched.next_job(timeout=1.0)
        assert first is a and second is b

    def test_keyless_job_bypasses_formation(self):
        sched = Scheduler(coalesce=self.cfg())
        job = Job(mil())
        assert job.coalesce_key is None
        sched.submit(job)
        queued_job(sched)
        assert sched.next_job(timeout=1.0) is job

    def test_mixed_priorities_never_coalesce(self):
        sched = Scheduler(coalesce=self.cfg())
        normal = queued_job(sched, priority=JobPriority.NORMAL)
        high = queued_job(sched, priority=JobPriority.HIGH)
        first = sched.next_job(timeout=1.0)
        second = sched.next_job(timeout=1.0)
        assert first is high  # and it did NOT absorb the NORMAL peer
        assert second is normal

    def test_expired_peer_shed_not_absorbed(self):
        shed = []
        sched = Scheduler(coalesce=self.cfg(), on_shed=shed.append)
        live = [queued_job(sched), queued_job(sched)]
        dead = queued_job(sched, deadline_s=0.005)
        time.sleep(0.02)
        batch = sched.next_job(timeout=1.0)
        assert isinstance(batch, CoalescedBatch)
        assert batch.members == live
        assert shed == [dead]
        assert dead.state is JobState.EXPIRED
        assert dead.done_event.is_set()

    def test_cancelled_peer_skipped(self):
        cancelled = []
        sched = Scheduler(coalesce=self.cfg(), on_cancel=cancelled.append)
        live = [queued_job(sched), queued_job(sched)]
        victim = queued_job(sched)
        victim.cancel_event.set()
        batch = sched.next_job(timeout=1.0)
        assert batch.members == live
        assert cancelled == [victim]
        assert victim.state is JobState.CANCELLED

    def test_window_waits_for_straggler(self):
        import threading

        sched = Scheduler(coalesce=self.cfg(window_s=0.5))
        queued_job(sched)

        def late_submit():
            time.sleep(0.05)
            queued_job(sched)

        t = threading.Thread(target=late_submit)
        t.start()
        batch = sched.next_job(timeout=2.0)
        t.join()
        assert isinstance(batch, CoalescedBatch)
        assert batch.width == 2

    def test_step0_late_admission_via_claim_compatible(self):
        sched = Scheduler(coalesce=self.cfg())
        first = queued_job(sched)
        assert sched.next_job(timeout=1.0) is first  # sealed solo
        late = queued_job(sched)  # arrives before initialize()
        assert sched.claim_compatible(first, 4) == [late]
        assert sched.depth == 0

    def test_claim_compatible_without_coalescing_is_noop(self):
        sched = Scheduler()  # no coalesce config
        job = Job(mil())
        assert sched.claim_compatible(job, 4) == []

    def test_batch_requires_two_members(self):
        with pytest.raises(ValueError, match=">= 2"):
            CoalescedBatch(("k",), [Job(mil())])


# ---------------------------------------------------------------------------
# end to end through SimServe
# ---------------------------------------------------------------------------
CFG = CoalesceConfig(max_batch=8, window_s=0.2)


class TestServiceCoalescing:
    def test_every_lane_bit_identical_to_direct_run(self):
        reference = direct_run(mil())
        with SimServe(workers=1, coalesce=CFG) as svc:
            handles = [svc.submit(mil()) for _ in range(5)]
            records = [h.record(timeout=30.0) for h in handles]
        offsets = set()
        for rec in records:
            assert rec.state is JobState.DONE
            assert rec.summary["coalesced"]["width"] == 5
            offsets.add(rec.summary["coalesced"]["lane_offset"])
            lane = rec.result
            assert lane.names == reference.names
            for name in reference.names:
                assert np.array_equal(lane[name], reference[name])
        assert offsets == set(range(5))  # one distinct lane per member
        snap = svc.metrics_snapshot()
        assert snap["coalesce"]["batches"] == 1
        assert snap["coalesce"]["jobs"] == 5

    def test_mil_and_batch_sweep_share_one_run(self):
        sweep = SweepRequest(
            builder=build_loop_model,
            execution="batch",
            scenarios=[{"ctrl": {"gain": 3.0}}, {"ctrl": {"gain": 4.0}}],
            dt=DT,
            t_final=T_FINAL,
        )
        with SimServe(workers=1, coalesce=CFG) as svc:
            hm = svc.submit(mil())
            hs = svc.submit_sweep(sweep)
            rm = hm.record(timeout=30.0)
            rs = hs.handle.record(timeout=30.0)
        assert rm.summary["coalesced"]["width"] == 2
        assert rs.summary["coalesced"]["lanes_total"] == 3
        # sweep lanes still demux against their own serial references
        lanes = rs.result.split()
        for overrides, lane in zip(sweep.scenarios, lanes):
            m = build_loop_model()
            cm = m.compile(DT)
            for qname, attrs in overrides.items():
                for attr, value in attrs.items():
                    setattr(cm.nodes[qname], attr, value)
            ref = Simulator(
                cm, SimulationOptions(dt=DT, t_final=T_FINAL)
            ).run()
            for name in ref.names:
                assert np.array_equal(lane[name], ref[name])

    def test_window_expiry_with_single_job_runs_serial(self):
        with SimServe(workers=1, coalesce=CoalesceConfig(max_batch=8,
                                                         window_s=0.01)) as svc:
            rec = svc.submit(mil()).record(timeout=30.0)
            snap = svc.metrics_snapshot()
        assert rec.state is JobState.DONE
        assert "coalesced" not in rec.summary  # serial path, not a B=1 vector
        assert snap["coalesce"]["batches"] == 0

    def test_arrival_after_final_step_boundary_runs_alone(self):
        # the batch has fully finished before the straggler is submitted:
        # it must form its own (serial) run, bit-identical as ever
        reference = direct_run(mil())
        with SimServe(workers=1, coalesce=CoalesceConfig(max_batch=8,
                                                         window_s=0.02)) as svc:
            first = [svc.submit(mil()) for _ in range(2)]
            assert svc.wait_all(first, timeout=30.0)
            late = svc.submit(mil())
            rec = late.record(timeout=30.0)
        assert rec.state is JobState.DONE
        assert "coalesced" not in rec.summary
        for name in reference.names:
            assert np.array_equal(rec.result[name], reference[name])

    def test_deadline_shed_boundary_not_crossed(self):
        # both jobs queue before the pool starts; B's deadline passes
        # while queued, so formation must shed B instead of absorbing it
        svc = SimServe(workers=1, coalesce=CoalesceConfig(max_batch=8,
                                                          window_s=0.05),
                       autostart=False)
        try:
            ha = svc.submit(mil())
            hb = svc.submit(mil(), deadline_s=0.005)
            time.sleep(0.03)
            svc.start()
            ra = ha.record(timeout=30.0)
            rb = hb.record(timeout=30.0)
        finally:
            svc.shutdown()
        assert ra.state is JobState.DONE
        assert "coalesced" not in ra.summary  # never fused with dead B
        assert rb.state is JobState.EXPIRED

    def test_mixed_priorities_run_as_separate_jobs(self):
        svc = SimServe(workers=1, coalesce=CoalesceConfig(max_batch=8,
                                                          window_s=0.02),
                       autostart=False)
        try:
            hn = svc.submit(mil(), priority=JobPriority.NORMAL)
            hh = svc.submit(mil(), priority=JobPriority.HIGH)
            svc.start()
            rn = hn.record(timeout=30.0)
            rh = hh.record(timeout=30.0)
        finally:
            svc.shutdown()
        assert rn.state is JobState.DONE and rh.state is JobState.DONE
        assert "coalesced" not in rn.summary
        assert "coalesced" not in rh.summary

    def test_coalescing_off_by_default(self):
        with SimServe(workers=1) as svc:
            assert svc.scheduler.coalesce is None
            rec = svc.submit(mil()).record(timeout=30.0)
        assert rec.state is JobState.DONE
        assert "coalesced" not in rec.summary

    def test_env_var_enables_coalescing(self, monkeypatch):
        monkeypatch.setenv("SIMSERVE_COALESCE", "1")
        monkeypatch.setenv("SIMSERVE_COALESCE_MAX_BATCH", "4")
        svc = SimServe(workers=1, autostart=False)
        try:
            assert svc.scheduler.coalesce == CoalesceConfig(max_batch=4)
        finally:
            svc.shutdown()


class TestProcessBackend:
    """A coalesced batch runs in the process pool through the same job
    lifecycle as a single job.  Jobs are queued before the pool starts,
    so the worker's first pop claims them all into one batch."""

    @staticmethod
    def queued_service(**kwargs) -> SimServe:
        return SimServe(workers=1, backend="process", autostart=False, **kwargs)

    def test_batch_runs_in_the_pool_bit_identical(self):
        reference = simulate(build_loop_model(), T_FINAL, dt=DT)
        svc = self.queued_service(coalesce=CoalesceConfig(max_batch=3,
                                                          window_s=0.3))
        try:
            handles = [svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                             t_final=T_FINAL))
                       for _ in range(3)]
            svc.start()
            records = [h.record(timeout=120.0) for h in handles]
        finally:
            svc.shutdown()
        assert svc.metrics_snapshot()["coalesce"]["batches"] == 1
        for rec in records:
            assert rec.state is JobState.DONE
            assert rec.summary["coalesced"]["width"] == 3
            # the child's phase marks crossed the pickle boundary
            for key in ("cache", "run", "demux"):
                assert key in rec.phase_s
            assert rec.result.names == reference.names
            for name in reference.names:
                assert np.array_equal(rec.result[name], reference[name])

    def test_crash_fails_every_member_and_counts_once(self, tmp_path):
        flight = FlightRecorder(dump_dir=str(tmp_path))
        doomed = lambda: MILRequest(
            builder=crash_in_child_builder,
            builder_kwargs={"submitter_pid": os.getpid()},
            dt=DT, t_final=T_FINAL,
        )
        svc = self.queued_service(coalesce=CoalesceConfig(max_batch=4,
                                                          window_s=0.3),
                                  flight=flight)
        try:
            handles = [svc.submit(doomed()) for _ in range(3)]
            svc.start()
            assert svc.wait_all(handles, timeout=120.0)
            assert [h.state for h in handles] == [JobState.FAILED] * 3
            # the pool was rebuilt: the service still serves
            later = svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                          t_final=T_FINAL))
            assert later.record(timeout=120.0).state is JobState.DONE
        finally:
            svc.shutdown()
        assert svc.metrics_snapshot()["coalesce"]["batches"] == 1
        # one crash: one rebuild, one trigger
        assert svc.pool.crash_count == flight.trigger_counts["worker_crash"] == 1
        # the dump was written after every member's job.finish
        report = build_report(load_ops_input(flight.dumps[0]))
        assert report["jobs"]["failed"] == 3


# ---------------------------------------------------------------------------
# coalesced batches ride native lanes
# ---------------------------------------------------------------------------
SERVO_DT = 1e-4
SERVO_T = 0.02  # the serve_mixed MIL shape: 201 servo steps


def servo_job(**overrides):
    from repro.service.__main__ import servo_sweep_model

    kwargs = dict(builder=servo_sweep_model, builder_kwargs={"bandwidth_hz": 6.0},
                  dt=SERVO_DT, t_final=SERVO_T)
    kwargs.update(overrides)
    return MILRequest(**kwargs)


class TestNativeLanes:
    """After a warm-up built the artifact, coalesced jobs and batched
    sweeps run as native lanes, with no fallback counted and results
    bit-equal."""

    @pytest.fixture
    def substrates(self, monkeypatch):
        from repro.model import BatchSimulator
        from repro.native import find_cc

        if find_cc() is None:
            pytest.skip("no C compiler on PATH: batches run the numpy engine")
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        seen = []
        real = BatchSimulator.initialize

        def initialize(sim):
            real(sim)
            seen.append(sim.substrate)

        monkeypatch.setattr(BatchSimulator, "initialize", initialize)
        return seen

    @pytest.fixture
    def held(self, substrates, monkeypatch):
        """``(gate, sims)``: every batch is held inside ``run()``, right
        after ``initialize``, until ``gate`` is released, and lands in
        ``sims``; the batch is then in flight however fast it runs.  A
        test enters ``gate`` inside its service's ``with``, so a failure
        releases it before the service waits for its worker."""
        from repro.model import BatchSimulator

        gate, sims = Gate(), []
        initialize = BatchSimulator.initialize  # the substrates wrapper

        def held_initialize(sim):
            initialize(sim)
            sims.append(sim)
            gate.hold()

        monkeypatch.setattr(BatchSimulator, "initialize", held_initialize)
        return gate, sims

    @staticmethod
    def fallbacks():
        from repro.obs.metrics import get_registry

        return sum(v for k, v in get_registry().snapshot().items()
                   if k.startswith("kernel_fallback_total{"))

    def test_coalesced_jobs_and_batch_sweep_run_native(self, substrates):
        from repro.native import wait_pending
        from repro.service.__main__ import servo_sweep_model

        setpoints = (80.0, 120.0)
        sweep = SweepRequest(
            builder=servo_sweep_model,
            execution="batch",
            scenarios=[{"controller.ref": {"value": v}} for v in setpoints],
            dt=SERVO_DT,
            t_final=SERVO_T,
        )
        with SimServe(workers=1, coalesce=CFG) as svc:
            svc.submit(servo_job()).result(timeout=60.0)  # warm-up
            assert wait_pending(120)
            before = self.fallbacks()
            handles = [svc.submit(servo_job()) for _ in range(4)]
            records = [h.record(timeout=60.0) for h in handles]
            swept = svc.submit_sweep(sweep).handle.record(timeout=60.0)
            assert self.fallbacks() == before
        assert substrates == ["native", "native"]
        reference = direct_run(servo_job())
        for rec in records:
            assert rec.state is JobState.DONE
            assert rec.summary["coalesced"]["width"] == 4
            for name in reference.names:
                assert np.array_equal(rec.result[name], reference[name])
        assert swept.state is JobState.DONE
        for value, lane in zip(setpoints, swept.result.split()):
            ref = direct_run(servo_job(builder_kwargs={"bandwidth_hz": 6.0,
                                                       "setpoint": value}))
            for name in ref.names:
                assert np.array_equal(lane[name], ref[name])

    def test_cancelling_every_member_cancels_the_lockstep_batch(self, substrates,
                                                                 held):
        gate, sims = held
        long_job = lambda: MILRequest(model=build_loop_model(), dt=1e-4,
                                      t_final=60.0)
        with SimServe(workers=1, coalesce=CFG) as svc, gate:
            handles = [svc.submit(long_job()) for _ in range(3)]
            assert gate.entered.wait(30.0)  # the batch is inside its run
            for h in handles:
                assert h.cancel()
            gate.release()
            assert svc.wait_all(handles, timeout=30.0)
        assert substrates == ["native"]
        assert all(h.state is JobState.CANCELLED for h in handles)
        # stopped by its first cancel poll, not demuxed after 600001 steps
        assert sims[0].step_index <= Simulator._NATIVE_CHUNK
