"""Native lanes: a :class:`~repro.model.BatchSimulator` ensemble runs each
scenario as one context on one compiled artifact.

The base model is lowered once (one ``generate_program``, one artifact);
each lane re-emits only the blocks its scenario overrides for its own
``P``/``DW`` vectors.  A lane whose override selects another emitted form
gets an artifact of its own.  Every lane stays bit-identical (atol=0) to
its serial run, and to the numpy engine — run (chunked ``nx_run`` per
lane) and stepped by hand (one-step chunks), with co-simulation taps
between steps.  Whatever keeps the ensemble off native lanes is counted
once and runs the numpy engine.
"""

import copy
import inspect
import struct
import types
from collections import deque

import numpy as np
import pytest

import repro.native as native
import repro.native.emit as emit
from repro.casestudy import ServoConfig
from repro.model import BatchScenario, BatchSimulator, SimulationOptions, Simulator
from repro.native import native_cache_stats, wait_pending
from repro.obs.metrics import get_registry

from repro.model import Model
from repro.model.io import model_to_dict
from repro.model.library import Constant, Gain, Scope
from repro.sim import ControllerProxy

from tests.model.test_batch import (
    DRIVER_SWEEP,
    assert_lanes_identical,
    diverging_event_model,
    run_pair,
)
from tests.model.test_kernels import LIBRARY, harness
from tests.native.conftest import require_cc, run_threads
from tests.native.test_native_equivalence import assert_identical
from tests.native.test_native_params import servo_factory

DT = 1e-4
T_FINAL = 0.05
#: ``mil_sweep``'s ensemble shape: (setpoint, PID bandwidth) per lane
POINTS = [(60.0 + 5.0 * k, 3.0 + 0.4 * k) for k in range(16)]


def sweep_scenarios(points):
    return [
        BatchScenario({
            "controller.ref": {"value": sp},
            "controller.pid": {"gains": ServoConfig(bandwidth_hz=bw).gains()},
        }, label=f"sp{sp}-bw{bw}")
        for sp, bw in points
    ]


def servo_cm():
    return servo_factory(100.0, 6.0)().compile(DT)


def ensemble(points=POINTS, native_mode="auto", cm=None, **opts):
    return BatchSimulator(
        cm if cm is not None else servo_cm(), sweep_scenarios(points),
        SimulationOptions(dt=DT, t_final=opts.pop("t_final", T_FINAL),
                          native=native_mode, **opts),
    )


def single(point, native_mode=False):
    return Simulator(
        servo_factory(*point)().compile(DT),
        SimulationOptions(dt=DT, t_final=T_FINAL, native=native_mode),
    ).run()


def assert_same_batch(a, b):
    assert np.array_equal(a.t, b.t)
    assert a.names == b.names and a.labels == b.labels
    for name in a.names:
        assert np.array_equal(a[name], b[name]), name


def fallback_count(reason):
    return get_registry().counter(
        "kernel_fallback_total", labels={"reason": reason}).value


class TestOneArtifact:
    def test_servo_ensemble_binds_the_single_runs_artifact(self, monkeypatch):
        require_cc()
        Simulator(servo_factory(*POINTS[0])().compile(DT),
                  SimulationOptions(dt=DT, t_final=T_FINAL)).run()
        assert wait_pending(120)
        misses = native_cache_stats()["misses"]
        calls = []
        real = native.generate_program

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(native, "generate_program", counted)
        sim = ensemble()
        batched = sim.run()
        assert sim.native_active, sim.native_fallback_reason
        assert sim.native_fallback_reason is None
        assert sim.plan_stats["forms"] == 1
        assert len(calls) == 1  # no lane re-renders the TU
        assert native_cache_stats()["misses"] == misses
        for b, point in enumerate(POINTS):
            assert_identical(single(point), batched.lane(b))

    def test_a_form_changing_gain_binds_its_own_artifact(self):
        require_cc()
        misses = native_cache_stats()["misses"]
        scenarios = [{"b": {"gain": g}} for g in (-2.5, -1.0, 0.5, 4.0)]
        serial, sim, batched = run_pair(harness(LIBRARY["gain"]), scenarios,
                                        native=True)
        assert sim.native_active, sim.native_fallback_reason
        assert sim.plan_stats["forms"] == 2  # -1.0 renders ``-S[k]``
        assert native_cache_stats()["misses"] == misses + 2
        assert_lanes_identical(serial, batched)


class TestHooks:
    @staticmethod
    def tapped(sim):
        """Step ``sim`` by hand with co-simulation taps between steps:
        record ``plant.motor`` after every step, and right after the
        step-50 PID sample hit force lane 1's PID output, which holds
        (and so reaches the plant) until the next hit.  Returns the
        rows and the result."""
        sim.initialize()
        rows = []
        for _ in range(int(round(T_FINAL / DT)) + 1):
            sim.advance()
            rows.append(sim.read_signal("plant.motor", 0))
            if sim.step_index == 51:
                sim.write_signal("controller.pid", 0, 1.0, lane=1)
        return rows, sim.result()

    def test_hooked_lockstep_equals_the_numpy_engine(self):
        require_cc()
        points = POINTS[:4]
        sim = ensemble(points, native_mode=True)
        rows_n, hooked = self.tapped(sim)
        assert sim.native_active, sim.native_fallback_reason
        rows_p, ref = self.tapped(ensemble(points, native_mode=False))
        assert_same_batch(ref, hooked)
        assert len(rows_n) == len(rows_p) == len(hooked.t)
        for a, b in zip(rows_p, rows_n):
            assert np.array_equal(a, b)
        # the write reached lane 1 only
        assert not np.array_equal(hooked["speed"][:, 1], single(points[1])["speed"])
        assert np.array_equal(hooked["speed"][:, 0], single(points[0])["speed"])

    def test_stepping_by_hand_equals_run(self):
        require_cc()
        points = POINTS[:3]
        sim = ensemble(points, native_mode=True)
        sim.initialize()
        assert sim.native_active, sim.native_fallback_reason
        for _ in range(int(round(T_FINAL / DT)) + 1):
            sim.advance()
        assert_same_batch(ensemble(points, native_mode=True).run(), sim.result())

    def test_all_signals_log_equals_the_numpy_engine(self):
        require_cc()
        points = POINTS[:3]
        sim = ensemble(points, native_mode=True, log_all_signals=True)
        logged = sim.run()
        assert sim.native_active, sim.native_fallback_reason
        ref = ensemble(points, native_mode=False, log_all_signals=True).run()
        assert len(logged.names) > 2
        assert_same_batch(ref, logged)


class TestSharedModel:
    def test_two_ensembles_on_one_compiled_model_from_two_threads(self):
        require_cc()
        cm = servo_cm()
        pid, ref = cm.nodes["controller.pid"], cm.nodes["controller.ref"]
        gains, value = pid.gains, ref.value
        halves = {"a": POINTS[:8], "b": POINTS[8:]}
        out = {}

        def run(key):
            sim = ensemble(halves[key], native_mode=True, cm=cm)
            out[key] = (sim.run(), sim.native_active)

        run_threads([(run, "a"), (run, "b")])
        for key, points in halves.items():
            batched, active = out[key]
            assert active
            assert_same_batch(ensemble(points, native_mode=False).run(), batched)
        # lane set-up works on clones: the leased model is untouched
        assert cm.nodes["controller.pid"] is pid and pid.gains is gains
        assert cm.nodes["controller.ref"] is ref and ref.value == value


def held_model():
    """A plant-side diagram: a controller proxy's held actuation through a
    gain into a scope, and a constant into the proxy."""
    m = Model("held")
    m.add(Constant("u", value=0.25))
    m.add(ControllerProxy("proxy", n_in=1, n_out=1))
    m.add(Gain("g", gain=3.0))
    m.connect("u", "proxy")
    m.connect("proxy", "g")
    m.connect("g", m.add(Scope("sc", label="y")))
    return m


def same(a, b) -> bool:
    """Equal nested values: containers and attribute dicts item by item,
    arrays and floats bit for bit, functions and classes by identity."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple, deque)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, (types.FunctionType, types.BuiltinFunctionType, type)):
        return False  # not the same object
    if hasattr(a, "__dict__"):
        return same(vars(a), vars(b))
    return a == b


def own_override(block_factory) -> dict:
    """``{"b": {param: value}}``: the block's first constructor parameter
    holding a float or a float array, moved to ``1.5 * v + 0.5`` — the
    lane's clone then holds its own value there and shares every other
    attribute with the model's block (``{}`` for a block without one)."""
    block = block_factory()
    for name in inspect.signature(type(block).__init__).parameters:
        v = getattr(block, name, None)
        if type(v) is float or (isinstance(v, np.ndarray) and v.dtype == float):
            return {"b": {name: 1.5 * v + 0.5}}
    return {}


class TestLaneClones:
    @pytest.mark.parametrize("key", sorted(LIBRARY))
    def test_lane_set_up_leaves_the_model_untouched(self, key):
        """Native lanes start shallow copies of the blocks they override
        (the numpy engine deep copies): after an ensemble, the compiled
        model holds the same blocks, with the same nested values, and
        writes the same document."""
        require_cc()
        model = harness(LIBRARY[key])()
        cm = model.compile(1e-3)
        own = own_override(LIBRARY[key])
        scenarios = [{**lane, **own} for lane in DRIVER_SWEEP]
        overridden = {q for sc in scenarios for q in sc}
        blocks = {q: cm.nodes[q] for q in overridden}
        before = {q: copy.deepcopy(vars(b)) for q, b in blocks.items()}
        doc = model_to_dict(model)
        sim = BatchSimulator(cm, scenarios, SimulationOptions(
            dt=1e-3, t_final=0.05, native=True))
        sim.run()
        reason = sim.native_fallback_reason
        assert sim.native_active or reason.startswith("plan_refused"), reason
        for q, b in blocks.items():
            assert cm.nodes[q] is b
            assert same(vars(b), before[q]), q
        assert model_to_dict(model) == doc


class TestLadder:
    """Each rung is counted once per ensemble, and the ensemble runs the
    numpy engine bit for bit (these run with or without a compiler)."""

    def check(self, reason, model=servo_cm, scenarios=None):
        scenarios = scenarios or sweep_scenarios(POINTS[:3])
        opts = dict(dt=DT, t_final=0.01)
        ref = BatchSimulator(model(), scenarios,
                             SimulationOptions(native=False, **opts)).run()
        before = fallback_count(reason)
        sim = BatchSimulator(model(), scenarios,
                             SimulationOptions(native=True, **opts))
        batched = sim.run()
        assert not sim.native_active
        assert sim.native_fallback_reason.startswith(reason), \
            sim.native_fallback_reason
        assert fallback_count(reason) == before + 1
        assert_same_batch(ref, batched)

    def test_env_off_reports_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        self.check("disabled")

    def test_function_call_subsystem_reports_plan_refused(self):
        self.check("plan_refused",
                   model=lambda: diverging_event_model().compile(DT),
                   scenarios=[{"level": {"value": v}} for v in (0.0, 2.0)])

    def test_held_outputs_report_plan_refused_before_any_lane_lowers(
            self, monkeypatch):
        """A base program with held outputs is refused at once: no lane
        re-emits a block or lowers a form of its own first."""
        require_cc()
        calls = {"generate_program": 0, "relower": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(native, "generate_program",
                            counted("generate_program", native.generate_program))
        monkeypatch.setattr(emit.Lowering, "relower",
                            counted("relower", emit.Lowering.relower))
        self.check("plan_refused", model=lambda: held_model().compile(DT),
                   scenarios=[{"g": {"gain": 2.0}}, {"g": {"gain": -1.0}}, {}])
        assert calls == {"generate_program": 1, "relower": 0}

    def test_missing_compiler_reports_toolchain_missing(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        self.check("toolchain_missing")
