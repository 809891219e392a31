"""SimServe end-to-end: determinism, caching, backpressure, robustness."""

import threading
import time

import numpy as np
import pytest

from repro.faults import FaultCampaign, FaultPlan, LineDropout
from repro.model import SimulationCancelled, Simulator
from repro.model.engine import simulate
from repro.service import (
    CampaignCellRequest,
    JobCancelled,
    JobFailed,
    JobPriority,
    JobState,
    MILRequest,
    PILRequest,
    QueueFull,
    SimServe,
    SweepRequest,
)
from repro.service.__main__ import servo_sweep_model
from repro.service.model_cache import ModelCache
from repro.service.workers import execute_coalesced, execute_request
from tests.model.test_io import port_wired

from .helpers import (
    Gate,
    build_loop_model,
    crashing_builder,
    gated_loop_model,
    make_fake_pil,
)

BANDWIDTHS = (4.0, 6.0, 8.0)
DT = 1e-4
T_FINAL = 0.02


def _direct_results():
    return [
        simulate(servo_sweep_model(bandwidth_hz=b), T_FINAL, dt=DT, use_kernels=True)
        for b in BANDWIDTHS
    ]


def _long_job(gate, t_final=10.0):
    """A 10 s loop-model job that keeps its worker busy until ``gate`` is
    released, however fast the run itself is."""
    return MILRequest(builder=gated_loop_model, builder_kwargs={"gate": gate},
                      dt=1e-4, t_final=t_final)


def _quick_job(**kwargs):
    return MILRequest(model=build_loop_model(**kwargs), dt=1e-3, t_final=0.01)


def _wait_running(handle, gate, timeout=5.0):
    """Until ``handle`` runs and its worker is held at ``gate``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if handle.state is JobState.RUNNING and gate.entered.is_set():
            return
        time.sleep(0.002)
    raise AssertionError(f"job never started: {handle.state}")


class TestDeterminism:
    """The acceptance pin: service answers == direct Simulator answers,
    bit for bit, at any worker count."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sweep_matches_direct_runs(self, workers):
        direct = _direct_results()
        with SimServe(workers=workers) as svc:
            sweep = svc.submit_sweep(
                SweepRequest(
                    builder=servo_sweep_model,
                    grid=[{"bandwidth_hz": b} for b in BANDWIDTHS],
                    dt=DT,
                    t_final=T_FINAL,
                )
            )
            served = sweep.results(timeout=60.0)
        assert len(served) == len(direct)
        for ref, got in zip(direct, served):
            assert np.array_equal(ref.t, got.t)
            assert set(ref.names) == set(got.names)
            for name in ref.names:
                assert np.array_equal(ref[name], got[name]), name

    def test_numpy_integer_ports_are_content_addressed(self):
        """A model wired with numpy-integer ports (at the top level and
        inside a subsystem) has a document, so its jobs run and hit the
        model cache like its int-wired twin's."""
        req = lambda: MILRequest(builder=port_wired,
                                 builder_kwargs={"port": np.int64},
                                 dt=1e-3, t_final=0.05)
        with SimServe(workers=1) as svc:
            first = svc.submit(req()).record(timeout=60.0)
            second = svc.submit(req()).record(timeout=60.0)
        for rec in (first, second):
            assert rec.state is JobState.DONE, rec.error
        assert not first.cache_hit and second.cache_hit
        ref = simulate(port_wired(int), 0.05, dt=1e-3)
        for rec in (first, second):
            assert ref.names == rec.result.names
            for name in ref.names:
                assert np.array_equal(ref[name], rec.result[name]), name

    def test_repeat_submission_bit_identical_despite_cache(self):
        """A cache hit must change latency only, never the numbers."""
        req = lambda: MILRequest(
            builder=servo_sweep_model,
            builder_kwargs={"bandwidth_hz": 6.0},
            dt=DT,
            t_final=T_FINAL,
        )
        with SimServe(workers=1) as svc:
            first = svc.submit(req()).result(timeout=60.0)
            second_h = svc.submit(req())
            second = second_h.result(timeout=60.0)
            assert second_h.record().cache_hit
        assert np.array_equal(first.t, second.t)
        for name in first.names:
            assert np.array_equal(first[name], second[name])


class TestNativeMIL:
    """A short MIL job binds the native artifact once it is built."""

    def test_short_job_runs_native_after_warm_up(self, monkeypatch):
        from repro.native import find_cc, native_cache_stats, wait_pending
        from repro.obs.metrics import get_registry

        if find_cc() is None:
            pytest.skip("no C compiler on PATH: MIL jobs run on Python here")
        monkeypatch.delenv("REPRO_NATIVE", raising=False)

        def fallbacks():
            return sum(v for k, v in get_registry().snapshot().items()
                       if k.startswith("kernel_fallback_total{"))

        req = lambda: MILRequest(  # the serve_mixed MIL shape: 201 steps
            builder=servo_sweep_model,
            builder_kwargs={"bandwidth_hz": 6.0},
            dt=DT,
            t_final=T_FINAL,
        )
        with SimServe(workers=1) as svc:
            svc.submit(req()).result(timeout=60.0)  # warm-up
            assert wait_pending(120)
            hits, before = native_cache_stats()["hits"], fallbacks()
            served = svc.submit(req()).result(timeout=60.0)
            assert native_cache_stats()["hits"] == hits + 1
            assert fallbacks() == before
        ref = simulate(servo_sweep_model(bandwidth_hz=6.0), T_FINAL, dt=DT,
                       native=False)
        assert np.array_equal(ref.t, served.t)
        assert ref.names == served.names
        for name in ref.names:
            assert np.array_equal(ref[name], served[name]), name


class TestBatchSweep:
    """execution="batch" runs the sweep as ONE vector job; its per-lane
    results must be bit-identical to the fan-out path's children."""

    GAINS = (0.5, 1.5, 3.0)

    def _fanout(self):
        return SweepRequest(
            builder=build_loop_model,
            grid=[{"gain": g} for g in self.GAINS],
            dt=1e-3,
            t_final=0.05,
        )

    def _batched(self):
        return SweepRequest(
            builder=build_loop_model,
            execution="batch",
            scenarios=[{"ctrl": {"gain": g}} for g in self.GAINS],
            dt=1e-3,
            t_final=0.05,
        )

    def test_batch_matches_fanout_bit_identical(self):
        with SimServe(workers=2) as svc:
            fan = svc.submit_sweep(self._fanout())
            batch = svc.submit_sweep(self._batched())
            fan_results = fan.results(timeout=60.0)
            batch_results = batch.results(timeout=60.0)
        assert len(batch) == len(self.GAINS)
        assert len(batch_results) == len(fan_results)
        for ref, got in zip(fan_results, batch_results):
            assert np.array_equal(ref.t, got.t)
            assert set(ref.names) == set(got.names)
            for name in ref.names:
                assert np.array_equal(ref[name], got[name]), name

    def test_batch_is_one_job_with_lane_summary(self):
        with SimServe(workers=1) as svc:
            handle = svc.submit_sweep(self._batched())
            rec = handle.handle.record(60.0)
            snap = svc.metrics_snapshot()
        assert rec.state is JobState.DONE
        assert rec.summary["lanes"] == len(self.GAINS)
        assert rec.summary["lanes_diverged"] == 0
        assert len(rec.summary["finals"]["y"]) == len(self.GAINS)
        assert snap["jobs"]["completed"] == 1  # one job, not one per lane

    def test_batch_requires_scenarios(self):
        with pytest.raises(ValueError, match="scenarios"):
            SweepRequest(
                builder=build_loop_model, execution="batch", dt=1e-3, t_final=0.05
            )


class TestCache:
    def test_second_identical_job_hits_and_is_observable(self):
        model = build_loop_model()
        with SimServe(workers=1) as svc:
            a = svc.submit(MILRequest(model=model, dt=1e-3, t_final=0.01))
            a.wait(30.0)
            b = svc.submit(MILRequest(model=model, dt=1e-3, t_final=0.01))
            b.wait(30.0)
            assert not a.record().cache_hit
            assert b.record().cache_hit
            snap = svc.metrics_snapshot()
        assert snap["cache"]["hits"] == 1
        assert snap["cache"]["misses"] == 1
        assert snap["cache"]["hit_rate"] == 0.5

    def test_crashing_job_does_not_poison_cache_or_pool(self):
        with SimServe(workers=1) as svc:
            bad = svc.submit(MILRequest(builder=crashing_builder, dt=1e-3, t_final=0.01))
            bad.wait(30.0)
            rec = bad.record()
            assert rec.state is JobState.FAILED
            assert "builder exploded" in rec.error
            with pytest.raises(JobFailed):
                bad.result()
            # the worker survived and the cache is clean
            good = svc.submit(_quick_job())
            assert good.record(30.0).state is JobState.DONE
            snap = svc.metrics_snapshot()
        assert snap["jobs"]["failed"] == 1
        assert snap["jobs"]["completed"] == 1
        assert snap["cache"]["entries"] == 1  # only the good model


class TestBackpressure:
    def test_queue_full_is_explicit_reject_not_hang(self):
        with (SimServe(workers=1, queue_depth=1, autostart=True) as svc,
              Gate() as gate):
            running = svc.submit(_long_job(gate))
            _wait_running(running, gate)
            pending = svc.submit(_quick_job())  # fills the queue
            t0 = time.monotonic()
            with pytest.raises(QueueFull):
                svc.submit(_quick_job())
            assert time.monotonic() - t0 < 1.0  # immediate, not a hang
            assert svc.metrics_snapshot()["jobs"]["rejected"] == 1
            pending.cancel()
            running.cancel()
            gate.release()
            assert running.wait(30.0)

    def test_half_admitted_sweep_rolls_back(self):
        with SimServe(workers=1, queue_depth=2) as svc, Gate() as gate:
            running = svc.submit(_long_job(gate))
            _wait_running(running, gate)
            with pytest.raises(QueueFull):
                svc.submit_sweep(
                    SweepRequest(
                        builder=servo_sweep_model,
                        grid=[{"bandwidth_hz": float(b)} for b in range(4, 10)],
                        dt=DT,
                        t_final=T_FINAL,
                    )
                )
            running.cancel()
            gate.release()
            assert running.wait(30.0)
            svc.shutdown(cancel_pending=True)
            # rolled-back children never execute
            assert svc.metrics_snapshot()["jobs"]["completed"] == 0


class TestCancellation:
    def test_cancel_running_job_frees_worker(self):
        with SimServe(workers=1) as svc, Gate() as gate:
            running = svc.submit(_long_job(gate))
            _wait_running(running, gate)
            assert running.cancel()
            gate.release()  # the run starts cancelled: its first poll stops it
            assert running.wait(30.0)
            assert running.state is JobState.CANCELLED
            # worker is free again: a follow-up job completes promptly
            nxt = svc.submit(_quick_job())
            assert nxt.record(30.0).state is JobState.DONE

    def test_cancel_pending_job_never_runs(self):
        with SimServe(workers=1) as svc, Gate() as gate:
            running = svc.submit(_long_job(gate))
            _wait_running(running, gate)
            queued = svc.submit(_quick_job())
            assert queued.cancel()
            running.cancel()
            gate.release()
            assert queued.wait(30.0)
            assert queued.state is JobState.CANCELLED
            assert queued.record().exec_s is None  # never started

    def test_deadline_shed_end_to_end(self):
        with SimServe(workers=1) as svc, Gate() as gate:
            running = svc.submit(_long_job(gate))
            _wait_running(running, gate)
            doomed = svc.submit(_quick_job(), deadline_s=0.02)
            time.sleep(0.1)  # deadline lapses while the worker is busy
            running.cancel()
            gate.release()
            assert doomed.wait(30.0)
            assert doomed.state is JobState.EXPIRED
            with pytest.raises(JobFailed):
                doomed.result()
            assert svc.metrics_snapshot()["jobs"]["shed"] == 1


class FlippingEvent(threading.Event):
    """A cancel event whose ``is_set()`` reads true from its ``k``-th
    call on."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.calls = 0

    def is_set(self) -> bool:
        self.calls += 1
        return self.calls >= self.k


class TestCancelPolls:
    """A job's cancel event is its run's ``cancel`` predicate: the run
    stops at the poll where the event reads set, at most ``K`` chunks of
    ``Simulator._NATIVE_CHUNK`` steps in, and the job raises
    ``JobCancelled``."""

    K = 3

    @staticmethod
    def servo_job():
        # 10001 steps: three native chunks, so a third poll exists
        return MILRequest(builder=servo_sweep_model,
                          builder_kwargs={"bandwidth_hz": 6.0},
                          dt=DT, t_final=1.0)

    def assert_cancelled(self, excinfo, event):
        cause = excinfo.value.__cause__
        assert isinstance(cause, SimulationCancelled)
        assert event.calls == self.K
        assert cause.step_index <= self.K * Simulator._NATIVE_CHUNK

    def test_mil_job(self):
        event = FlippingEvent(self.K)
        with pytest.raises(JobCancelled) as excinfo:
            execute_request(self.servo_job(), ModelCache(), event)
        self.assert_cancelled(excinfo, event)

    def test_batched_sweep(self):
        sweep = SweepRequest(
            builder=servo_sweep_model,
            execution="batch",
            scenarios=[{"controller.ref": {"value": v}} for v in (80.0, 120.0)],
            dt=DT,
            t_final=1.0,
        )
        event = FlippingEvent(self.K)
        with pytest.raises(JobCancelled) as excinfo:
            execute_request(sweep, ModelCache(), event)
        self.assert_cancelled(excinfo, event)

    def test_coalesced_batch(self):
        event, other = FlippingEvent(self.K), threading.Event()
        other.set()
        with pytest.raises(JobCancelled) as excinfo:
            execute_coalesced([self.servo_job(), self.servo_job()],
                              ModelCache(), [event, other])
        self.assert_cancelled(excinfo, event)


class TestPriorities:
    def test_high_priority_sweep_overtakes_low(self):
        with SimServe(workers=1) as svc, Gate() as gate:
            blocker = svc.submit(_long_job(gate))
            _wait_running(blocker, gate)
            low = svc.submit_sweep(
                SweepRequest(
                    builder=servo_sweep_model,
                    grid=[{"bandwidth_hz": b} for b in BANDWIDTHS],
                    dt=DT,
                    t_final=0.005,
                ),
                priority=JobPriority.LOW,
            )
            high = svc.submit_sweep(
                SweepRequest(
                    builder=servo_sweep_model,
                    grid=[{"bandwidth_hz": b} for b in BANDWIDTHS],
                    dt=DT,
                    t_final=0.005,
                ),
                priority=JobPriority.HIGH,
            )
            blocker.cancel()
            gate.release()
            assert high.wait(60.0) and low.wait(60.0)
            last_high = max(h._job.finished_at for h in high.handles)
            first_low = min(h._job.finished_at for h in low.handles)
        assert last_high <= first_low


class TestOtherKinds:
    def test_pil_request(self):
        with SimServe(workers=1) as svc:
            h = svc.submit(
                PILRequest(
                    make_pil=make_fake_pil, t_final=0.5, make_kwargs={"reliable": True}
                )
            )
            rec = h.record(30.0)
        assert rec.state is JobState.DONE
        assert rec.summary["steps"] == 12
        assert rec.summary["retransmits"] == 1
        assert rec.result.reliable is True

    def test_campaign_cell_request(self):
        campaign = FaultCampaign(
            make_pil=make_fake_pil,
            plan=FaultPlan([LineDropout(start=0.1, duration=0.05)], seed=3),
            t_final=0.5,
            reference=99.0,
        )
        with SimServe(workers=1) as svc:
            h = svc.submit(
                CampaignCellRequest(campaign=campaign, intensity=0.5, reliable=True)
            )
            rec = h.record(30.0)
        assert rec.state is JobState.DONE
        assert rec.summary["intensity"] == 0.5 and rec.summary["reliable"] is True
        assert rec.result is None  # campaign cells keep summaries only


class TestStore:
    def test_bounded_store_evicts_oldest(self):
        with SimServe(workers=1, store_capacity=2) as svc:
            handles = [svc.submit(_quick_job(gain=float(g))) for g in (1, 2, 3)]
            assert svc.wait_all(handles, timeout=60.0)
            # drain is ordered: last two records survive, the first is gone
            assert handles[2].record().state is JobState.DONE
            with pytest.raises(KeyError):
                handles[0].record()


class TestProcessBackend:
    def test_smoke_and_per_process_cache(self):
        req = MILRequest(
            builder=servo_sweep_model,
            builder_kwargs={"bandwidth_hz": 6.0},
            dt=DT,
            t_final=0.01,
        )
        direct = simulate(
            servo_sweep_model(bandwidth_hz=6.0), 0.01, dt=DT, use_kernels=True
        )
        with SimServe(workers=1, backend="process") as svc:
            first = svc.submit(req)
            assert first.record(120.0).state is JobState.DONE
            second = svc.submit(req)
            rec = second.record(120.0)
        assert rec.state is JobState.DONE
        assert rec.cache_hit  # the worker process kept its own cache
        got = rec.result
        assert np.array_equal(direct.t, got.t)
        for name in direct.names:
            assert np.array_equal(direct[name], got[name])

    def test_validation_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            SimServe(workers=1, backend="fiber", autostart=False)
