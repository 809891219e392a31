"""Block parameters are context data: one artifact per model structure.

Every value a native template or fused affine row emits lives in the
program's parameter vector, read by the C code as ``P[k]``.  Design
points of one diagram therefore lower to byte-identical translation
units and share one compiled artifact, while a value that selects a
different emitted form (an affine ±1/0 shortcut) still yields a TU of
its own.  Every run stays bit-identical (atol=0) to the Python paths,
non-finite parameters included.
"""

import math

import pytest

from repro.model import Model, Simulator, SimulationOptions
from repro.model.library import Bias, Constant, Gain, Saturation, Scope, SineWave
from repro.native import native_cache_stats

from tests.native.conftest import require_cc
from tests.native.test_native_equivalence import (
    assert_identical,
    assert_native_active,
    run_both_native,
)

DT = 1e-4
#: (setpoint, PID bandwidth) — both differ between every pair
SWEEP = ((100.0, 6.0), (72.5, 4.25), (131.0, 9.5))


def servo_factory(setpoint, bandwidth_hz):
    from repro.casestudy import ServoConfig, build_servo_model

    def build():
        return build_servo_model(
            ServoConfig(setpoint=setpoint, bandwidth_hz=bandwidth_hz)).model

    return build


def affine_chain(gain, bias):
    """sine -> Gain -> Bias -> scope: one fused affine run."""

    def build():
        m = Model("chain")
        src = m.add(SineWave("src", amplitude=2.0, frequency=25.0))
        g = m.add(Gain("g", gain=gain))
        b = m.add(Bias("b", bias=bias))
        m.connect(src, g)
        m.connect(g, b)
        m.connect(b, m.add(Scope("sc", label="y")))
        return m

    return build


def native_run(factory, t_final=0.05):
    """Reference vs forced native, asserted exact; the native sim."""
    ref, native, sims = run_both_native(factory, t_final=t_final, dt=DT)
    assert_native_active(sims)
    assert_identical(ref, native)
    return sims[1]


class TestDesignSweep:
    def test_three_points_one_compile(self):
        require_cc()
        before = native_cache_stats()
        sims = [native_run(servo_factory(*p)) for p in SWEEP]
        after = native_cache_stats()
        programs = [s.native_path.program for s in sims]
        assert len({p.source for p in programs}) == 1
        assert len({tuple(p.params) for p in programs}) == len(SWEEP)
        assert len({s.native_path.so_path for s in sims}) == 1
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == len(SWEEP) - 1


class TestValueSelectedForms:
    @pytest.mark.parametrize("a, b", [
        ((1.0, 0.25), (2.0, 0.25)),   # unit gain: S[x], no multiply
        ((2.0, 0.0), (2.0, 0.5)),     # zero bias: no constant term
    ], ids=["gain", "bias"])
    def test_shortcut_changes_the_tu_and_stays_exact(self, a, b):
        require_cc()
        first, second = (native_run(affine_chain(*p)) for p in (a, b))
        one, two = first.native_path.program, second.native_path.program
        assert one.source != two.source
        assert len(one.params) != len(two.params)
        assert first.native_path.so_path != second.native_path.so_path


class TestNonFiniteParameters:
    @pytest.mark.parametrize("lower, upper", [
        (-math.inf, math.inf), (-math.inf, 0.5), (-0.5, math.inf),
    ])
    def test_infinite_saturation_limits(self, lower, upper):
        require_cc()

        def build():
            m = Model("sat")
            src = m.add(SineWave("src", amplitude=2.0, frequency=25.0))
            sat = m.add(Saturation("sat", lower=lower, upper=upper))
            m.connect(src, sat)
            m.connect(sat, m.add(Scope("sc", label="y")))
            return m

        sim = native_run(build)
        params = sim.native_path.program.params
        assert [v for v in params if math.isinf(v)]

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_constant_feeding_a_gain(self, value):
        require_cc()

        def build():
            m = Model("infconst")
            c = m.add(Constant("c", value=value))
            g = m.add(Gain("g", gain=-2.0))
            m.connect(c, g)
            m.connect(g, m.add(Scope("sc", label="y")))
            return m

        sim = native_run(build)
        assert value in sim.native_path.program.params
        assert sim.result()["y"][-1] == -2.0 * value


class TestFastPathOnlyAsFallback:
    """The Python kernel passes are built only when native did not bind."""

    def _counter(self, reason):
        from repro.obs.metrics import get_registry

        return get_registry().counter(
            "kernel_fallback_total", labels={"reason": reason}).value

    def test_native_bound_sim_has_no_fast_path(self):
        require_cc()
        sim = native_run(servo_factory(*SWEEP[0]), t_final=0.01)
        assert sim.fast_path is None
        assert sim.kernel_fallback_reason is None

    def test_kernel_disabled_counts_only_reference_runs(self):
        require_cc()
        factory = servo_factory(*SWEEP[0])
        before = self._counter("kernel_disabled")
        native = Simulator(factory().compile(DT), SimulationOptions(
            dt=DT, t_final=0.01, native=True, use_kernels=False))
        native.initialize()
        assert native.native_active, native.native_fallback_reason
        assert self._counter("kernel_disabled") == before
        reference = Simulator(factory().compile(DT), SimulationOptions(
            dt=DT, t_final=0.01, native=False, use_kernels=False))
        reference.initialize()
        assert reference.fast_path is None
        assert self._counter("kernel_disabled") == before + 1

    def test_compile_pending_binds_the_fast_path(self):
        require_cc()
        from repro.native import wait_pending

        sim = Simulator(affine_chain(3.0, 0.125)().compile(DT),
                        SimulationOptions(dt=DT, t_final=0.01, native="reuse"))
        sim.initialize()
        assert wait_pending(120)
        assert sim.native_fallback_reason == "compile_pending"
        assert sim.fast_path is not None

    def test_below_auto_threshold_binds_the_fast_path(self):
        # in an empty cache a short "auto" run finishes on Python
        from repro.native import find_cc, wait_pending

        sim = Simulator(affine_chain(3.0, 0.125)().compile(DT),
                        SimulationOptions(dt=DT, t_final=0.01, native="auto"))
        sim.initialize()
        assert wait_pending(120)
        expected = "compile_pending" if find_cc() else "toolchain_missing"
        assert sim.native_fallback_reason.startswith(expected)
        assert sim.fast_path is not None

    def test_plan_refused_binds_the_fast_path(self):
        from tests.model.test_kernels import LIBRARY, harness

        sim = Simulator(harness(LIBRARY["white_noise"])().compile(1e-3),
                        SimulationOptions(dt=1e-3, t_final=0.01, native=True))
        sim.initialize()
        assert sim.native_fallback_reason.startswith("plan_refused")
        assert sim.fast_path is not None


class TestReferenceSchedulesOnlyAsFallback:
    """The reference interpreter's schedules are built only when a Python
    path binds; a native bind reads the contexts, the scope schedule and
    the scheduled-block count alone."""

    @pytest.fixture
    def schedules(self, monkeypatch):
        """Every Simulator that built its reference schedules, in order."""
        built = []
        real = Simulator._schedule_reference

        def counted(sim):
            built.append(sim)
            real(sim)

        monkeypatch.setattr(Simulator, "_schedule_reference", counted)
        return built

    def _servo(self, native, **kwargs):
        return Simulator(servo_factory(*SWEEP[0])().compile(DT),
                         SimulationOptions(dt=DT, t_final=0.02, native=native,
                                           log_all_signals=True, **kwargs))

    def test_native_bound_sim_builds_no_reference_schedule(self, schedules):
        require_cc()
        sim = self._servo(True)
        res = sim.run()
        assert sim.native_active, sim.native_fallback_reason
        assert schedules == []
        assert sim._sched == sim._minor_sched == sim._upd_sched == []
        assert sim._deriv_sched == []
        cm = sim.cm
        assert sim._n_scheduled == sum(
            not getattr(cm.nodes[q], "triggerable", False) for q in cm.order)
        assert [q for q, _i in sim._scope_sched]  # the log still has its scopes
        assert_identical(self._servo(False, use_kernels=False).run(), res)

    @pytest.mark.parametrize("use_kernels", [True, False])
    def test_env_off_builds_them_and_stays_exact(
            self, schedules, monkeypatch, use_kernels):
        require_cc()
        native = self._servo(True).run()
        monkeypatch.setenv("REPRO_NATIVE", "off")
        sim = self._servo(True, use_kernels=use_kernels)
        res = sim.run()
        assert sim.native_fallback_reason == "disabled"
        assert schedules == [sim]
        assert len(sim._sched) == sim._n_scheduled
        assert (sim.fast_path is not None) == use_kernels
        assert_identical(native, res)

    def test_compile_pending_builds_them_and_stays_exact(self, schedules):
        require_cc()
        from repro.native import wait_pending

        assert wait_pending(120)
        sim = self._servo("reuse")
        res = sim.run()
        assert sim.native_fallback_reason == "compile_pending"
        assert schedules == [sim]
        assert wait_pending(120)
        bound = self._servo("reuse")
        native = bound.run()
        assert bound.native_active, bound.native_fallback_reason
        assert schedules == [sim]
        assert_identical(native, res)
