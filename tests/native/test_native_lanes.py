"""Native lanes: a :class:`~repro.model.BatchSimulator` ensemble runs each
scenario as one context on one compiled artifact.

The base model is lowered once (one ``generate_program``, one artifact);
each lane re-emits only the blocks its scenario overrides for its own
``P``/``DW`` vectors.  A lane whose override selects another emitted form
gets an artifact of its own.  Every lane stays bit-identical (atol=0) to
its serial run, and to the numpy engine — unhooked (chunked ``nx_run``
per lane), hooked (lockstep), and stepped by hand.  Whatever keeps the
ensemble off native lanes is counted once and runs the numpy engine.
"""

import numpy as np

import repro.native as native
from repro.casestudy import ServoConfig
from repro.model import BatchScenario, BatchSimulator, SimulationOptions, Simulator
from repro.native import native_cache_stats, wait_pending
from repro.obs.metrics import get_registry

from tests.model.test_batch import (
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
    def recorder(self):
        rows = []

        def hook(t, engine):
            rows.append(engine.read_signal("plant.motor", 0))
            if engine.step_index == 50:  # a PID sample hit: update reads it
                engine.write_signal("controller.err", 0, 250.0, lane=1)

        return rows, hook

    def test_hooked_lockstep_equals_the_numpy_engine(self):
        require_cc()
        points = POINTS[:4]
        rows_n, hook_n = self.recorder()
        sim = ensemble(points, native_mode=True, step_hook=hook_n)
        hooked = sim.run()
        assert sim.native_active, sim.native_fallback_reason
        rows_p, hook_p = self.recorder()
        ref = ensemble(points, native_mode=False, step_hook=hook_p).run()
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

    def test_missing_compiler_reports_toolchain_missing(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        self.check("toolchain_missing")
