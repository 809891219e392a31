"""Tests for model persistence (save/load round trips)."""

import numpy as np
import pytest

from repro.analysis import trajectory_rmse
from repro.casestudy import ServoConfig, build_servo_model
from repro.model import Model, ModelError
from repro.model.engine import simulate
from repro.model.io import load_model, model_from_dict, model_to_dict, save_model
from repro.model.library import (
    Constant,
    DiscreteTransferFunction,
    Gain,
    Lookup1D,
    Scope,
    StateSpace,
    Step,
    Subsystem,
    Sum,
    Terminator,
    TransferFunction,
    UnitDelay,
    Inport,
    Outport,
)


def roundtrip(model: Model) -> Model:
    return model_from_dict(model_to_dict(model))


def behaviour(model: Model, t_final=0.1, dt=1e-3):
    return simulate(model, t_final=t_final, dt=dt)


class TestBasicRoundTrip:
    def build(self):
        m = Model("rt")
        r = m.add(Step("r", step_time=0.01, final=2.0))
        e = m.add(Sum("e", signs="+-"))
        g = m.add(Gain("g", gain=3.0))
        p = m.add(TransferFunction("p", [1.0], [0.05, 1.0]))
        d = m.add(UnitDelay("d", sample_time=1e-3))
        sc = m.add(Scope("sc", label="y"))
        m.connect(r, e, 0, 0)
        m.connect(p, e, 0, 1)
        m.connect(e, g)
        m.connect(g, d)
        m.connect(d, p)
        m.connect(p, sc)
        return m

    def test_structure_preserved(self):
        m = self.build()
        m2 = roundtrip(m)
        assert m2.structural_signature()[1] == m.structural_signature()[1]  # lines
        assert set(m2.blocks) == set(m.blocks)

    def test_behaviour_identical(self):
        m = self.build()
        res1 = behaviour(m)
        res2 = behaviour(roundtrip(self.build()))
        assert np.array_equal(res1["y"], res2["y"])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.build(), str(path))
        m2 = load_model(str(path))
        assert set(m2.blocks) == set(self.build().blocks)

    def test_format_version_checked(self):
        doc = model_to_dict(self.build())
        doc["format"] = 99
        with pytest.raises(ModelError, match="format"):
            model_from_dict(doc)


class TestParameterFidelity:
    def test_lookup_table(self):
        m = Model()
        c = m.add(Constant("c", value=0.7))
        lk = m.add(Lookup1D("lk", [0.0, 1.0], [5.0, 9.0], mode="linear"))
        t = m.add(Terminator("t"))
        m.connect(c, lk)
        m.connect(lk, t)
        m2 = roundtrip(m)
        lk2 = m2.block("lk")
        assert list(lk2.breakpoints) == [0.0, 1.0]
        assert lk2.mode == "linear"

    def test_discrete_tf_coefficients(self):
        m = Model()
        c = m.add(Constant("c"))
        f = m.add(DiscreteTransferFunction("f", [0.2, 0.3], [1.0, -0.5], 1e-3))
        t = m.add(Terminator("t"))
        m.connect(c, f)
        m.connect(f, t)
        f2 = roundtrip(m).block("f")
        assert np.allclose(f2.b, f.b) and np.allclose(f2.a, f.a)

    def test_state_space_matrices(self):
        m = Model()
        c = m.add(Constant("c"))
        ss = m.add(StateSpace("ss", A=[[-1.0, 0.5], [0.0, -2.0]],
                              B=[[1.0], [0.5]], C=[[1.0, 0.0]]))
        t = m.add(Terminator("t"))
        m.connect(c, ss)
        m.connect(ss, t)
        ss2 = roundtrip(m).block("ss")
        assert np.allclose(ss2.A, ss.A)
        assert np.allclose(ss2.B, ss.B)

    def test_subsystem_nesting(self):
        sub = Subsystem("sub")
        i = sub.inner.add(Inport("i", index=0))
        g = sub.inner.add(Gain("g", gain=4.0))
        o = sub.inner.add(Outport("o", index=0))
        sub.inner.connect(i, g)
        sub.inner.connect(g, o)
        m = Model()
        c = m.add(Constant("c", value=2.0))
        m.add(sub)
        sc = m.add(Scope("sc", label="y"))
        m.connect(c, sub)
        m.connect(sub, sc)
        m2 = roundtrip(m)
        assert behaviour(m2).final("y") == 8.0


class TestServoModelRoundTrip:
    def test_full_case_study(self):
        sm = build_servo_model(ServoConfig(setpoint=100.0))
        doc = model_to_dict(sm.model)
        m2 = model_from_dict(doc)
        r1 = behaviour(sm.model, t_final=0.2, dt=1e-4)
        r2 = behaviour(m2, t_final=0.2, dt=1e-4)
        assert trajectory_rmse(r1.t, r1["speed"], r2.t, r2["speed"]) < 1e-9

    def test_loaded_model_builds(self):
        from repro.core import PEERTTarget

        sm = build_servo_model(ServoConfig(setpoint=100.0))
        m2 = model_from_dict(model_to_dict(sm.model))
        app = PEERTTarget(m2).build()
        assert app.artifacts.loc > 100

    def test_fixed_point_variant(self):
        sm = build_servo_model(ServoConfig(setpoint=100.0, fixed_point=True))
        m2 = model_from_dict(model_to_dict(sm.model))
        pid = m2.block("controller").inner.block("pid")
        assert pid.e_scale == sm.model.block("controller").inner.block("pid").e_scale


class TestUnserializable:
    def test_chart_block_rejected(self):
        from repro.stateflow import Chart, ChartBlock, State

        ch = Chart()
        ch.add_state(State("s"))
        m = Model()
        m.add(ChartBlock("cb", ch, sample_time=1e-3))
        with pytest.raises(ModelError, match="not registered"):
            model_to_dict(m)

    def test_unstored_parameter_rejected_on_every_call(self, monkeypatch):
        from repro.model import io

        class Trimmed(Gain):
            def __init__(self, name, gain=1.0, trim=0.0):
                super().__init__(name, gain=gain)

        monkeypatch.setitem(io._CLASSES, "Trimmed", Trimmed)
        kept = Trimmed("kept")
        kept.trim = 0.5
        assert io.block_to_dict(kept)["params"] == {"gain": 1.0, "trim": 0.5}
        bare = Trimmed("bare")
        for _ in range(2):  # the memoized signature must not skip the check
            with pytest.raises(ModelError, match="'trim' is not a stored"):
                io.block_to_dict(bare)

    def test_unknown_type_on_load(self):
        with pytest.raises(ModelError, match="unknown block type"):
            model_from_dict({
                "format": 1, "name": "x",
                "blocks": [{"type": "FluxCapacitor", "name": "f", "params": {}}],
                "connections": [], "events": [],
            })
