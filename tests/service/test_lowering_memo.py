"""The model cache's lowering memo: a repeat MIL job on a cached compiled
model plans and lowers nothing, and stays bit-identical (atol=0) to the
Python path.  A model the caller holds never memoizes, an ensemble
never reads the memo, and a refusal is memoized but still counted."""

import shutil
import sys
import threading

import numpy as np
import pytest

from repro import native
from repro.casestudy import ServoConfig
from repro.model import BatchSimulator, Simulator, kernels
from repro.model.engine import SimulationOptions, simulate
from repro.native import find_cc, wait_pending
from repro.obs.metrics import get_registry
from repro.service import MILRequest, SimServe, SweepRequest
from repro.service.__main__ import servo_sweep_model
from repro.service.model_cache import ModelCache
from repro.service.workers import execute_request

from .helpers import build_loop_model, build_noise_model

DT = 1e-4
T_FINAL = 0.02


@pytest.fixture
def lowerings(monkeypatch):
    """Counts of ``generate_program`` and ``plan_kernels`` calls, both
    looked up where the engine finds them at call time."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    calls = {"generate_program": 0, "plan_kernels": 0}
    for module, name in ((native, "generate_program"), (kernels, "plan_kernels")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def started(monkeypatch):
    """Every Simulator / BatchSimulator initialized, in order."""
    sims = []
    for cls in (Simulator, BatchSimulator):
        real = cls.initialize

        def spy(self, _real=real):
            _real(self)
            sims.append(self)

        monkeypatch.setattr(cls, "initialize", spy)
    return sims


def require_cc():
    if find_cc() is None:
        pytest.skip("no C compiler on PATH: nothing binds native")


def fallbacks(reason=None):
    """``kernel_fallback_total`` for ``reason``, or over every reason."""
    if reason is not None:
        return get_registry().counter(
            "kernel_fallback_total", labels={"reason": reason}).value
    return sum(v for k, v in get_registry().snapshot().items()
               if k.startswith("kernel_fallback_total{"))


def python_run(model, solver="rk4", t_final=T_FINAL, dt=DT):
    return simulate(model, t_final, dt=dt, solver=solver, native=False)


def assert_identical(ref, got):
    assert np.array_equal(ref.t, got.t)
    assert ref.names == got.names
    for name in ref.names:
        assert np.array_equal(ref[name], got[name]), name


def servo_job(solver="rk4"):
    return MILRequest(builder=servo_sweep_model,
                      builder_kwargs={"bandwidth_hz": 6.0},
                      dt=DT, t_final=T_FINAL, solver=solver)


class TestRepeatJob:
    def test_repeat_simserve_job_lowers_nothing(self, lowerings, started):
        require_cc()
        with SimServe(workers=1) as svc:
            svc.submit(servo_job()).result(timeout=60.0)  # the cache miss
            assert wait_pending(120)
            before = dict(lowerings)
            moved = fallbacks()
            handle = svc.submit(servo_job())
            served = handle.result(timeout=60.0)
            assert handle.record().cache_hit
            assert lowerings == before  # no plan, no TU
            assert fallbacks() == moved
        sim = started[-1]
        assert sim.native_active, sim.native_fallback_reason
        assert sim.fast_path is None
        assert_identical(python_run(servo_sweep_model(bandwidth_hz=6.0)), served)

    def test_warm_job_after_its_cache_directory_was_removed(
            self, tmp_path, monkeypatch, started):
        """A cache directory is created once per path and process, so a
        warm job whose directory was removed since finds no artifact: it
        runs on Python while the build re-creates the directory, then
        binds it again, bit-equal throughout."""
        require_cc()
        cache_dir = tmp_path / "native-cache"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache_dir))
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        ref = python_run(servo_sweep_model(bandwidth_hz=6.0))
        with SimServe(workers=1) as svc:
            svc.submit(servo_job()).result(timeout=60.0)  # the cache miss
            assert wait_pending(120)
            shutil.rmtree(cache_dir)
            handle = svc.submit(servo_job())
            served = handle.result(timeout=60.0)
            assert handle.record().cache_hit
            assert started[-1].native_fallback_reason == "compile_pending"
            assert_identical(ref, served)
            assert wait_pending(120)
            assert list(cache_dir.glob("*.so"))
            again = svc.submit(servo_job()).result(timeout=60.0)
            assert started[-1].native_active, started[-1].native_fallback_reason
        assert_identical(ref, again)

    def test_each_solver_keeps_its_own_lowering(self, lowerings, started):
        require_cc()
        cache = ModelCache()
        for solver in ("rk4", "euler"):  # one entry: the key excludes the solver
            execute_request(servo_job(solver), cache)
        assert wait_pending(120)
        assert lowerings["generate_program"] == 2
        for solver in ("rk4", "euler", "rk4"):
            _, served, hit = execute_request(servo_job(solver), cache)
            assert hit
            assert started[-1].native_active, started[-1].native_fallback_reason
            assert_identical(
                python_run(servo_sweep_model(bandwidth_hz=6.0), solver), served)
        assert lowerings["generate_program"] == 2
        assert cache.stats()["entries"] == 1


class TestConcurrency:
    def test_workers_sharing_one_entry_lower_once_per_solver(self, lowerings):
        """Four threads (more than the host's cores) on one cache entry:
        the lease serializes the memo's first fill, so each solver lowers
        once and every job stays bit-identical."""
        require_cc()
        warm = ModelCache()
        for solver in ("rk4", "euler"):  # build both artifacts
            execute_request(servo_job(solver), warm)
        assert wait_pending(120)
        refs = {solver: python_run(servo_sweep_model(bandwidth_hz=6.0), solver)
                for solver in ("rk4", "euler")}
        before = lowerings["generate_program"]
        cache, served, errors = ModelCache(), [], []

        def worker(k):
            try:
                for j in range(6):
                    solver = ("rk4", "euler")[(k + j) % 2]
                    served.append((solver, execute_request(servo_job(solver),
                                                           cache)[1]))
            except Exception as exc:  # reported below, on the test thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(served) == 24
        assert lowerings["generate_program"] - before == 2
        for solver, got in served:
            assert_identical(refs[solver], got)


class TestUserModel:
    def test_parameter_set_after_compile_is_lowered_again(self, lowerings, started):
        require_cc()
        cm = servo_sweep_model(bandwidth_hz=6.0).compile(DT)
        opts = SimulationOptions(dt=DT, t_final=T_FINAL, native=True)
        Simulator(cm, opts).run()
        setattr(cm.nodes["controller.pid"], "gains",
                ServoConfig(bandwidth_hz=9.0).gains())
        got = Simulator(cm, opts).run()
        assert started[-1].native_active, started[-1].native_fallback_reason
        assert lowerings["generate_program"] == 2
        assert cm.lowering_memo is None
        assert_identical(python_run(servo_sweep_model(bandwidth_hz=9.0)), got)


class TestEnsembles:
    GAINS = (1.5, -1.0, 3.0)  # -1.0 renders ``-S[k]``: a form of its own

    def sweep(self):
        return SweepRequest(
            builder=build_loop_model, dt=1e-3, t_final=0.05,
            execution="batch",
            scenarios=[{"ctrl": {"gain": g}} for g in self.GAINS],
        )

    def job(self):
        return MILRequest(builder=build_loop_model, dt=1e-3, t_final=0.05)

    def test_sweep_with_another_form_then_single_job(self, lowerings, started):
        require_cc()
        warm = ModelCache()
        for _ in range(2):  # the base artifact, then the -1.0 form's
            execute_request(self.sweep(), warm)
            assert wait_pending(120)
        cache = ModelCache()
        runs = [execute_request(req, cache)
                for req in (self.job(), self.sweep(), self.job())]
        assert [hit for _s, _r, hit in runs] == [False, True, True]
        batch = started[-2]
        assert batch.native_active, batch.native_fallback_reason
        assert batch.plan_stats["forms"] == 2
        assert started[-1].native_active
        ref = python_run(build_loop_model(), t_final=0.05, dt=1e-3)
        assert_identical(ref, runs[0][1])
        assert_identical(ref, runs[2][1])
        swept = runs[1][1]
        for b, gain in enumerate(self.GAINS):
            assert_identical(
                python_run(build_loop_model(gain=gain), t_final=0.05, dt=1e-3),
                swept.lane(b))


class TestRefusal:
    def test_refused_model_is_lowered_once_and_counted_every_run(
            self, lowerings, started):
        cache = ModelCache()
        req = MILRequest(builder=build_noise_model, dt=1e-3, t_final=0.05)
        ref = python_run(build_noise_model(), t_final=0.05, dt=1e-3)
        refused = fallbacks("plan_refused")
        for k in range(3):
            _, served, hit = execute_request(req, cache)
            assert hit == (k > 0)
            sim = started[-1]
            assert sim.native_fallback_reason.startswith("plan_refused")
            assert sim.fast_path is not None
            assert_identical(ref, served)
        assert fallbacks("plan_refused") == refused + 3
        # the reference run above planned once; the three jobs once more
        assert lowerings == {"generate_program": 1, "plan_kernels": 2}
