"""A finished run frees itself.

Every runner here — a single MIL run on each substrate, an ensemble on
native lanes and on the numpy engine, a SimServe MIL and PIL job, a PIL
session after a fault-plan run, a fuzz candidate and a HIL run — must
die on its last reference: run once with the collector disabled, drop
the runner and its result, and weak references to the runner, its log
(and, for the co-simulation rigs, their application and device) are
dead, and a collection then finds no object of a ``repro`` type.  A
cycle anywhere in a finished run fails the test, since reference
counting alone cannot free it.

Each case warms up first (imports, native artifacts, caches), so only
what the measured run itself leaves is counted.  The cases hold under
``REPRO_NATIVE=off`` too, where the native ones run on Python.
"""

from __future__ import annotations

import gc
import time
import weakref

import pytest

from repro.model import BatchSimulator, SimulationOptions, Simulator


def _servo():
    from repro.casestudy import ServoConfig, build_servo_model

    return build_servo_model(ServoConfig(setpoint=100.0)).model


def _repro_garbage() -> list:
    """What a collection frees now that is of a ``repro`` type."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = [f"{type(o).__module__}.{type(o).__qualname__}"
                 for o in gc.garbage
                 if type(o).__module__.startswith("repro")]
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
    return found


def _wait_dead(refs, timeout=2.0) -> list:
    """The names of ``refs`` still alive after up to ``timeout`` seconds:
    a worker thread may still be unwinding the frame that held one (with
    the collector off, only reference counting can free it)."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [name for name, ref in refs.items() if ref() is not None]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.01)


def assert_frees_itself(run, warm=1):
    """``run()`` returns ``(refs, result)``: ``{name: weakref}`` of what
    must die, and the run's result.  After ``warm`` unmeasured calls,
    one measured call with the collector disabled must leave nothing for
    the collector."""
    from repro.native import wait_pending

    for _ in range(warm):
        run()
    wait_pending(120)
    gc.collect()
    gc.disable()
    try:
        refs, result = run()
        del result
        alive = _wait_dead(refs)
        garbage = _repro_garbage()
    finally:
        gc.enable()
    assert not alive, f"alive after del: {alive}"
    assert not garbage, f"cyclic garbage: {sorted(set(garbage))}"


def _refs(**objects):
    return {name: weakref.ref(obj) for name, obj in objects.items()}


# ---------------------------------------------------------------------------
# MIL
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("substrate", ["reference", "kernels", "native"])
def test_simulator(substrate):
    model = _servo()
    opts = {"reference": dict(native=False, use_kernels=False),
            "kernels": dict(native=False),
            "native": dict(native=True)}[substrate]

    def run():
        sim = Simulator(model, SimulationOptions(dt=1e-4, t_final=0.05,
                                                 **opts))
        res = sim.run()
        return _refs(sim=sim, log=sim.log), res

    assert_frees_itself(run)


def test_simulator_with_events():
    """The kernel path's event dispatch holds the run's state, not the
    simulator."""
    from tests.model.test_batch import diverging_event_model

    model = diverging_event_model()
    model.blocks["level"].value = 2.0  # the detector fires every step

    def run():
        sim = Simulator(model, SimulationOptions(dt=1e-3, t_final=0.02,
                                                 native=False))
        res = sim.run()
        assert sim.fast_path is not None, sim.kernel_fallback_reason
        assert res.final("isr_y") == 20.0
        return _refs(sim=sim, log=sim.log, fast_path=sim.fast_path), res

    assert_frees_itself(run)


@pytest.mark.parametrize("native", [True, False], ids=["lanes", "numpy"])
def test_ensemble(native):
    """Four design points (each lane overriding the set-point and the
    gains), plus a lane whose gain of exactly -1 is a form of its own on
    native lanes."""
    from tests.native.test_native_lanes import POINTS, sweep_scenarios

    model = _servo()
    scenarios = sweep_scenarios(POINTS[:4])
    scenarios.append({"plant.tacho_gain": {"gain": -1.0}})

    def run():
        sim = BatchSimulator(model, scenarios, SimulationOptions(
            dt=1e-4, t_final=0.05, native=native))
        res = sim.run()
        return _refs(sim=sim, log=sim.log), res

    assert_frees_itself(run)


def test_ensemble_with_diverging_events():
    """The numpy engine's per-lane entries and lane contexts hold its
    event dispatch, not the ensemble."""
    from tests.model.test_batch import diverging_event_model

    model = diverging_event_model()
    scenarios = [{"level": {"value": v}} for v in (0.0, 0.5, 2.0)]

    for compaction in (True, False):
        def run():
            sim = BatchSimulator(model, scenarios, SimulationOptions(
                dt=1e-3, t_final=0.02, native=False), compaction=compaction)
            res = sim.run()
            assert sim.lanes_diverged > 0
            return _refs(sim=sim, log=sim.log), res

        assert_frees_itself(run)


# ---------------------------------------------------------------------------
# co-simulation rigs
# ---------------------------------------------------------------------------
def _servo_pil():
    """The fuzz target's rig: ARQ, safe-state loss policy, watchdog."""
    from repro.fuzz.targets import get_target

    return get_target("servo").make_pil()


def _fault_plan():
    from repro.faults import BurstErrors, FaultPlan, LineDropout, StepOverrun

    return FaultPlan([
        BurstErrors(start=0.01, duration=0.03, rate=0.2),
        StepOverrun(start=0.035, duration=0.015, factor=20.0),
        LineDropout(start=0.06, duration=0.015),
    ], seed=21)


def _rig_refs(pil):
    return _refs(pil=pil, app=pil.app, device=pil.device,
                 log=pil.plant_sim.log)


def test_pil_session_after_a_fault_plan_run():
    def run():
        pil = _servo_pil()
        _fault_plan().attach(pil)
        res = pil.run(0.1)
        assert res.steps > 0
        # what stays readable after the release
        assert pil.device.cpu.records and pil.profiler().vectors()
        assert pil.sci.baud > 0
        return _rig_refs(pil), res

    assert_frees_itself(run)


def test_pil_session_with_a_button_isr():
    """A bean bound to the device (the button's BitIO pin) must not close
    over itself: the model that owns it would keep the device alive."""
    from repro.core import PEERTTarget
    from repro.sim import PILSimulator

    from tests.sim.test_pil_events import build_model_with_button_isr

    def run():
        model, _bump = build_model_with_button_isr()
        pil = PILSimulator(PEERTTarget(model).build(), baud=460800,
                           plant_dt=1e-4)
        pil.trigger_event("KEY_UP")
        res = pil.run(0.05)
        return _rig_refs(pil), res

    assert_frees_itself(run)


@pytest.mark.parametrize("link", ["spi", "can"])
def test_pil_session_on_the_linux_target(link):
    from repro.casestudy import ServoConfig, build_servo_model
    from repro.core import PEERTTarget
    from repro.sim import LINUX_TARGET, CANAdapter, PILSimulator

    def run():
        app = PEERTTarget(build_servo_model(ServoConfig(setpoint=100.0)).model).build()
        adapter = (CANAdapter(bitrate=500e3, app_traffic=[(0x050, 8, 0.7e-3)])
                   if link == "can" else "spi")
        pil = PILSimulator(app, plant_dt=1e-4, link=adapter,
                           target=LINUX_TARGET)
        res = pil.run(0.05)
        refs = _rig_refs(pil)
        refs["link"] = weakref.ref(pil.link)
        return refs, res

    assert_frees_itself(run)


def test_fuzz_candidate():
    """``evaluate_plan``: the rig and the capture tracer it ran under."""
    import dataclasses

    from repro.fuzz.fuzzer import evaluate_plan
    from repro.fuzz.signature import SignatureConfig
    from repro.fuzz.targets import get_target
    from repro.obs import trace

    made = {}

    def make_pil():
        # built under the candidate's capture tracer
        pil = _servo_pil()
        made.update(_refs(pil=pil, app=pil.app, tracer=trace.get_tracer()))
        return pil

    target = dataclasses.replace(get_target("servo"), make_pil=make_pil)
    plan = target.seed_grid()[1].to_dict()

    def run():
        made.clear()
        row = evaluate_plan(target, plan, 0.1, SignatureConfig())
        assert made["tracer"]() is not trace.get_tracer()
        return dict(made), row

    assert_frees_itself(run)


def test_hil():
    from repro.casestudy import ServoConfig, build_servo_model
    from repro.core import PEERTTarget
    from repro.sim import HILSimulator

    def run():
        app = PEERTTarget(build_servo_model(ServoConfig(setpoint=100.0)).model).build()
        hil = HILSimulator(app, plant_dt=1e-4)
        res = hil.run(0.05)
        assert hil.profiler().vectors()
        refs = _refs(hil=hil, app=app, device=app.device,
                     log=hil.plant_sim.log)
        return refs, res

    assert_frees_itself(run)


# ---------------------------------------------------------------------------
# SimServe jobs on thread workers
# ---------------------------------------------------------------------------
class _Recorded:
    """Weak references to what a job's runner made, filled from inside
    the worker (the service hands back only the result)."""

    def __init__(self):
        self.refs = {}


@pytest.fixture
def service():
    from repro.service import SimServe

    with SimServe(workers=1, backend="thread", flight=False) as svc:
        yield svc


def test_simserve_mil_job(service, monkeypatch):
    from repro.casestudy import ServoConfig, build_servo_model
    from repro.model import engine
    from repro.service import MILRequest

    seen = _Recorded()

    class RecordingSimulator(Simulator):
        def run(self):
            res = super().run()
            seen.refs.update(_refs(sim=self, log=self.log))
            return res

    monkeypatch.setattr(engine, "Simulator", RecordingSimulator)

    def run():
        seen.refs.clear()
        handle = service.submit(MILRequest(
            builder=build_servo_model,
            builder_kwargs={"config": ServoConfig(setpoint=100.0)},
            dt=1e-4, t_final=0.05))
        assert handle.wait(120) and handle.state.name == "DONE", \
            handle.record().error
        assert set(seen.refs) == {"sim", "log"}
        return dict(seen.refs), handle

    assert_frees_itself(run, warm=2)


def test_simserve_pil_job(service):
    from repro.service import PILRequest

    seen = _Recorded()

    def make_pil():
        pil = _servo_pil()
        seen.refs.update(_refs(pil=pil, app=pil.app))
        return pil

    def run():
        seen.refs.clear()
        handle = service.submit(PILRequest(make_pil=make_pil, t_final=0.05))
        assert handle.wait(120) and handle.state.name == "DONE", \
            handle.record().error
        return dict(seen.refs), handle

    assert_frees_itself(run)
