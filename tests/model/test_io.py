"""Tests for model persistence (save/load round trips)."""

import enum
import json

import numpy as np
import pytest

from repro.analysis import trajectory_rmse
from repro.casestudy import ServoConfig, build_servo_model
from repro.model import Model, ModelError
from repro.model.engine import simulate
from repro.model.io import (
    block_from_dict,
    load_model,
    model_content_hash,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.model.library import (
    Constant,
    DataTypeConversion,
    DiscreteTransferFunction,
    FunctionCallSubsystem,
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
from repro.model.types import DOUBLE
from repro.service.__main__ import servo_sweep_model
from tests.core.test_event_driven_controller import build_event_driven_servo
from tests.model.test_kernels import LIBRARY, harness


def roundtrip(model: Model) -> Model:
    return model_from_dict(model_to_dict(model))


def behaviour(model: Model, t_final=0.1, dt=1e-3):
    return simulate(model, t_final=t_final, dt=dt)


def subsystem_model():
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
    return m


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
        m2 = roundtrip(subsystem_model())
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


#: one model per block type; DataTypeConversion is not registered for
#: serialisation (a model holding one bypasses the model cache)
DOCUMENT_MODELS = {
    **{f"library.{key}": harness(make) for key, make in LIBRARY.items()},
    "dtype_conversion_double": harness(lambda: DataTypeConversion("b", DOUBLE)),
    "subsystem": subsystem_model,
    "function_call_subsystem": lambda: build_event_driven_servo()[0],
    "servo": lambda: build_servo_model(ServoConfig(setpoint=100.0)).model,
    "servo_q15": lambda: build_servo_model(
        ServoConfig(setpoint=100.0, fixed_point=True)).model,
    "servo_adc": lambda: build_servo_model(
        ServoConfig(setpoint=100.0, feedback="adc")).model,
}


def diagram(reverse: bool) -> Model:
    """One diagram, its blocks added and its lines drawn in either order."""
    def order(items):
        return items[::-1] if reverse else items

    sub = Subsystem("sub")
    for b in order([Inport("i", index=0), Gain("k", gain=0.5), Outport("o", index=0)]):
        sub.inner.add(b)
    for src, dst in order([("i", "k"), ("k", "o")]):
        sub.inner.connect(src, dst)
    m = Model("order")
    for b in order([Step("r", step_time=0.01, final=2.0), Sum("e", signs="+-"),
                    Gain("g", gain=3.0), sub, TransferFunction("p", [1.0], [0.05, 1.0]),
                    UnitDelay("d", sample_time=1e-3), Scope("sc", label="y")]):
        m.add(b)
    for src, dst, sp, dp in order([("r", "e", 0, 0), ("p", "e", 0, 1), ("e", "g", 0, 0),
                                   ("g", "sub", 0, 0), ("sub", "d", 0, 0),
                                   ("d", "p", 0, 0), ("p", "sc", 0, 0)]):
        m.connect(src, dst, sp, dp)
    return m


class TestCanonicalDocument:
    @pytest.mark.parametrize("key", sorted(DOCUMENT_MODELS))
    def test_round_trip_is_a_fixed_point(self, key):
        model = DOCUMENT_MODELS[key]()
        doc = model_to_dict(model)
        clone = model_from_dict(json.loads(json.dumps(doc)))
        assert model_to_dict(clone) == doc
        assert model_content_hash(clone) == model_content_hash(model)

    def test_insertion_order_does_not_reach_the_file(self, tmp_path):
        save_model(diagram(reverse=False), str(tmp_path / "a.json"))
        save_model(diagram(reverse=True), str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_a_file_written_in_any_order_loads(self, tmp_path):
        model = build_servo_model(ServoConfig(setpoint=100.0)).model
        doc = model_to_dict(model)
        shuffled = dict(doc, blocks=doc["blocks"][::-1],
                        connections=doc["connections"][::-1])
        path = tmp_path / "shuffled.json"
        path.write_text(json.dumps(shuffled))
        save_model(model, str(tmp_path / "a.json"))
        save_model(load_model(str(path)), str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_transfer_function_reloads_as_itself(self):
        m = Model("tf")
        c = m.add(Constant("c"))
        p = m.add(TransferFunction("p", [1.0], [1.0, 3.0, 2.0]))
        sc = m.add(Scope("sc", label="y"))
        m.connect(c, p)
        m.connect(p, sc)
        clone = roundtrip(m)
        assert type(clone.block("p")) is TransferFunction
        assert model_content_hash(clone) == model_content_hash(m)
        assert np.array_equal(behaviour(clone)["y"], behaviour(m)["y"])

    @pytest.mark.parametrize("node", [
        # a TransferFunction written as its state-space realisation
        {"type": "TransferFunction", "name": "p",
         "params": {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]], "x0": [0.0]}},
        {"type": "TransferFunction", "name": "p", "params": {"num": [1.0], "den": [0.0, 1.0]}},
        {"type": "Gain", "name": "g", "params": {"gian": 2.0}},
        {"type": "PIDController", "name": "pid", "params": {"sample_time": 1e-3}},
        {"type": "DCMotor", "name": "m", "params": {"params": {"R": 1.0}}},
        {"type": "Subsystem", "name": "s", "params": {}},
        {"type": "DataTypeConversion", "name": "c", "params": {"target": "int16"}},
        {"type": "DataTypeConversion", "name": "c", "params": {"target": {
            "name": "int16", "fixpt": {"word_length": 16, "fraction_length": 0,
                                       "signed": True, "overflow": "CLAMP",
                                       "rounding": "FLOOR"}}}},
    ], ids=lambda node: node["type"])
    def test_malformed_node_raises_model_error(self, node):
        with pytest.raises(ModelError, match="malformed"):
            block_from_dict(node)

    def test_content_addresses_are_pinned(self):
        # every model cache key, coalesce key and perfbench's recorded
        # model_doc_hashes derive from these; a change here re-keys them all
        assert model_content_hash(build_servo_model().model, dt=1e-4, solver="rk4") == (
            "32bce3727da402c9c819c8ecf6541e6e9f113a101665fc5559227863600d33d2")
        assert model_content_hash(
            servo_sweep_model(setpoint=100.0, bandwidth_hz=6.0), dt=1e-4) == (
            "cf6c2fd478e23c3fce4edb3a11f61e6af96d43887a22b937789eaebb727f3d93")
        assert model_content_hash(build_servo_model(ServoConfig(setpoint=100.0)).model) == (
            "746a74f93d7861312a7da629473b3dcd768c06ea348f70aa3e4ce092cb074e31")


def port_wired(port) -> Model:
    """:func:`diagram`'s model, every port number given as ``port(k)``
    (at the top level and inside the subsystem)."""
    sub = Subsystem("sub")
    for b in [Inport("i", index=0), Gain("k", gain=0.5), Outport("o", index=0)]:
        sub.inner.add(b)
    sub.inner.connect("i", "k", port(0), port(0))
    sub.inner.connect("k", "o", port(0), port(0))
    m = Model("ports")
    for b in [Step("r", step_time=0.01, final=2.0), Sum("e", signs="+-"), sub,
              TransferFunction("p", [1.0], [0.05, 1.0]), Scope("sc", label="y")]:
        m.add(b)
    for src, dst, sp, dp in [("r", "e", 0, 0), ("p", "e", 0, 1), ("e", "sub", 0, 0),
                             ("sub", "p", 0, 0), ("p", "sc", 0, 0)]:
        m.connect(src, dst, port(sp), port(dp))
    return m


class TestPortNumbers:
    """Port numbers are stored as ``int``, whatever integer type wired
    them, so the document and its content hash cannot tell them apart."""

    @pytest.mark.parametrize("port", [np.int64, np.int32, np.uint8],
                             ids=lambda t: t.__name__)
    def test_numpy_ports_write_the_int_document(self, port):
        doc, ref = model_to_dict(port_wired(port)), model_to_dict(port_wired(int))
        assert json.dumps(doc) == json.dumps(ref)
        assert model_content_hash(port_wired(port), dt=1e-3) == (
            model_content_hash(port_wired(int), dt=1e-3))
        model = port_wired(port)
        inner = model.block("sub").inner
        for c in model.connections + inner.connections:
            assert type(c.src_port) is int and type(c.dst_port) is int

    @pytest.mark.parametrize("port", [1.0, np.float64(0.0), "0", None],
                             ids=repr)
    def test_a_non_integral_port_raises_model_error(self, port):
        m = Model("bad")
        c = m.add(Constant("c"))
        g = m.add(Gain("g"))
        with pytest.raises(ModelError, match="port number must be an integer"):
            m.connect(c, g, port, 0)
        with pytest.raises(ModelError, match="port number must be an integer"):
            m.connect(c, g, 0, port)
        assert m.connections == []

    def test_a_non_integral_event_port_raises_model_error(self):
        m = Model("bad")
        src = m.add(Constant("c"))
        isr = m.add(FunctionCallSubsystem("isr"))
        with pytest.raises(ModelError, match="port number must be an integer"):
            m.connect_event(src, isr, 0.0)
        assert m.event_connections == []


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def _written(value):
    """``("ok", result)`` or ``("raises", type, message)`` for a
    ``_jsonify``-like call."""
    from repro.model import io

    def outcome(fn):
        try:
            return ("ok", fn(value))
        except Exception as exc:  # noqa: BLE001 - compared below
            return ("raises", type(exc), str(exc))

    return outcome(io._jsonify), outcome(io._jsonify_any)


def _typed(value):
    """``value`` with every leaf's exact type, so 1, 1.0 and True differ."""
    if isinstance(value, list):
        return ("list", [_typed(v) for v in value])
    if isinstance(value, dict):
        return ("dict", {k: _typed(v) for k, v in value.items()})
    return (type(value), value)


class TestJsonify:
    """The exact-type fast path of ``_jsonify`` returns what the
    isinstance chain (``_jsonify_any``) returns, or raises what it
    raises."""

    @pytest.mark.parametrize("value", [
        np.float64(0.1), np.float32(0.1), np.int64(7), np.bool_(True),
        np.array([[1.0, 2.5], [3.0, -0.0]]), np.array([1, 2], dtype=np.int32),
        (1, 2.5, "a", None, True), [True, 1, False, 0, 1.0],
        [np.float64(2.0), 3.0], (np.int64(1), (2, 3)),
        {"a": {"b": [1, np.float64(2.0)], "c": (3,)}, "d": None},
        {"kp": 0.5, "on": True, "n": 3}, {"x": np.float32(0.25)},
        _Level.HIGH, [_Level.LOW, 2], {"level": _Level.HIGH},
        [], (), {}, "text", 0, -0.0, float("inf"), None, False,
    ], ids=repr)
    def test_fast_path_matches_the_chain(self, value):
        fast, chain = _written(value)
        assert fast[0] == chain[0]
        if fast[0] == "raises":
            assert fast == chain
        else:
            assert _typed(fast[1]) == _typed(chain[1])
            assert json.dumps(fast[1]) == json.dumps(chain[1])

    @pytest.mark.parametrize("value", [
        lambda x: x, print, [1.0, len], {"f": lambda: 0}, (object(),),
    ], ids=["lambda", "builtin", "list", "dict", "object"])
    def test_unserialisable_values_still_raise(self, value):
        from repro.model import io

        with pytest.raises(ModelError, match="cannot serialise"):
            io._jsonify(value)

    def test_containers_are_copied(self):
        from repro.model import io

        for value in ([1.0, 2.0], {"a": 1.0}):
            assert io._jsonify(value) == value
            assert io._jsonify(value) is not value


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

        monkeypatch.setitem(io._CODECS, "Trimmed", None)  # removed on teardown
        io.register_block_class(Trimmed)
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
