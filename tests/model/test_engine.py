"""Integration tests for the fixed-step engine."""

import math

import numpy as np
import pytest

from repro.model import Model, Simulator, SimulationOptions
from repro.model.engine import simulate
from repro.model.library import (
    Clock,
    Constant,
    Gain,
    Integrator,
    Scope,
    SineWave,
    Step,
    Sum,
    TransferFunction,
    UnitDelay,
)


def first_order_loop(gain=5.0):
    """Step -> (+-) -> K -> 1/(s+1) -> scope, unity feedback."""
    m = Model("loop")
    ref = m.add(Step("ref", step_time=0.0, final=1.0))
    err = m.add(Sum("err", signs="+-"))
    k = m.add(Gain("k", gain=gain))
    plant = m.add(TransferFunction("plant", [1.0], [1.0, 1.0]))
    sc = m.add(Scope("sc", label="y"))
    m.connect(ref, err, 0, 0)
    m.connect(err, k)
    m.connect(k, plant)
    m.connect(plant, err, 0, 1)
    m.connect(plant, sc)
    return m


class TestClosedLoopAccuracy:
    def test_dc_value(self):
        res = simulate(first_order_loop(5.0), t_final=3.0, dt=1e-3)
        assert res.final("y") == pytest.approx(5.0 / 6.0, rel=1e-3)

    def test_rk4_matches_analytic_transient(self):
        # closed loop: y(t) = K/(K+1) * (1 - exp(-(K+1) t))
        K = 5.0
        res = simulate(first_order_loop(K), t_final=1.0, dt=1e-3)
        expected = K / (K + 1) * (1 - np.exp(-(K + 1) * res.t))
        assert np.max(np.abs(res["y"] - expected)) < 1e-4

    def test_euler_less_accurate_than_rk4(self):
        K = 5.0
        res_e = simulate(first_order_loop(K), t_final=1.0, dt=5e-3, solver="euler")
        res_r = simulate(first_order_loop(K), t_final=1.0, dt=5e-3, solver="rk4")
        exp_e = K / (K + 1) * (1 - np.exp(-(K + 1) * res_e.t))
        err_e = np.max(np.abs(res_e["y"] - exp_e))
        err_r = np.max(np.abs(res_r["y"] - exp_e))
        assert err_r < err_e


class TestIntegrator:
    def test_integrates_constant(self):
        m = Model()
        c = m.add(Constant("c", value=2.0))
        i = m.add(Integrator("i"))
        s = m.add(Scope("s", label="x"))
        m.connect(c, i)
        m.connect(i, s)
        res = simulate(m, t_final=1.0, dt=1e-3)
        assert res.final("x") == pytest.approx(2.0, rel=1e-9)

    def test_integrates_sine_rk4_accuracy(self):
        m = Model()
        w = 2 * math.pi
        src = m.add(SineWave("src", amplitude=1.0, frequency=1.0))
        i = m.add(Integrator("i"))
        s = m.add(Scope("s", label="x"))
        m.connect(src, i)
        m.connect(i, s)
        res = simulate(m, t_final=1.0, dt=1e-3)
        expected = (1 - np.cos(w * res.t)) / w
        assert np.max(np.abs(res["x"] - expected)) < 1e-6

    def test_integrator_limits(self):
        m = Model()
        c = m.add(Constant("c", value=1.0))
        i = m.add(Integrator("i", lower=0.0, upper=0.5))
        s = m.add(Scope("s", label="x"))
        m.connect(c, i)
        m.connect(i, s)
        res = simulate(m, t_final=2.0, dt=1e-3)
        assert res.final("x") == pytest.approx(0.5, abs=1e-6)
        assert np.max(res["x"]) <= 0.5 + 1e-9


class TestDiscreteExecution:
    def test_unit_delay_shifts_by_one_period(self):
        m = Model()
        clk = m.add(Clock("clk"))
        d = m.add(UnitDelay("d", sample_time=1e-2))
        s = m.add(Scope("s", label="y"))
        sc2 = m.add(Scope("s2", label="t"))
        m.connect(clk, d)
        m.connect(d, s)
        m.connect(clk, sc2)
        res = simulate(m, t_final=0.1, dt=1e-2)
        # y[k] = t[k-1]
        assert np.allclose(res["y"][1:], res["t"][:-1])

    def test_discrete_holds_between_hits(self):
        m = Model()
        clk = m.add(Clock("clk"))
        d = m.add(UnitDelay("d", sample_time=1e-2))
        s = m.add(Scope("s", label="y"))
        m.connect(clk, d)
        m.connect(d, s)
        res = simulate(m, t_final=0.1, dt=1e-3)  # base step 10x faster
        y = res["y"]
        # within each 10-step window the held value must be constant
        for k in range(0, len(y) - 10, 10):
            assert np.all(y[k : k + 10] == y[k])


class TestEngineApi:
    def test_incremental_advance(self):
        sim = Simulator(first_order_loop(), SimulationOptions(dt=1e-3, t_final=1.0))
        sim.initialize()
        for _ in range(100):
            sim.advance()
        assert sim.time == pytest.approx(0.1)
        assert 0.0 < sim.read_signal("plant", 0) < 1.0

    def test_advance_requires_initialize(self):
        sim = Simulator(first_order_loop(), SimulationOptions(dt=1e-3, t_final=1.0))
        with pytest.raises(RuntimeError):
            sim.advance()

    def test_log_all_signals(self):
        opts = SimulationOptions(dt=1e-3, t_final=0.01, log_all_signals=True)
        res = Simulator(first_order_loop(), opts).run()
        assert "plant:0" in res.names

    def test_mismatched_dt_rejected(self):
        m = first_order_loop()
        cm = m.compile(1e-3)
        with pytest.raises(ValueError):
            Simulator(cm, SimulationOptions(dt=2e-3, t_final=1.0))

    def test_bad_solver_rejected(self):
        with pytest.raises(ValueError):
            SimulationOptions(solver="ode45")


class TestResultContainer:
    def test_mapping_interface(self):
        res = simulate(first_order_loop(), t_final=0.1, dt=1e-3)
        assert "y" in res
        assert res.names == ["y"]
        assert len(res) == 1

    def test_at_and_slice(self):
        res = simulate(first_order_loop(), t_final=1.0, dt=1e-3)
        assert res.at("y", 1.0) == res.final("y")
        sub = res.slice(0.5, 1.0)
        assert sub.t[0] >= 0.5 and sub.t[-1] <= 1.0

    def test_length_mismatch_rejected(self):
        from repro.model.result import SimulationResult

        with pytest.raises(ValueError):
            SimulationResult(np.arange(3), {"a": np.arange(4)})
