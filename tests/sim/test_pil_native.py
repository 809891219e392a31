"""The PIL plant on the native per-step path.

A PIL run's plant-side simulator binds the native artifact under
``SimulationOptions(native="reuse")`` whatever the run length: when the
artifact is built it runs the plant, otherwise the plant runs on Python
(fallback reason ``compile_pending``) while a background build makes it.
Which executor ran the plant must not be observable: on the fuzzer's
servo rig (ARQ, watchdog, safe loss policy) under every seed-grid fault
plan, the whole ``PILResult`` — link ledger, latencies and trajectories —
is identical with the native plant and with ``REPRO_NATIVE=off``.
"""

import dataclasses

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.fuzz.targets import get_target
from repro.native import find_cc, wait_pending

pytestmark = pytest.mark.skipif(
    find_cc() is None,
    reason="no C compiler on PATH (cc/gcc/clang): the PIL plant can only "
           "run on Python here",
)

SERVO = get_target("servo")
GRID = SERVO.seed_grid()


def run_rig(plan):
    pil = SERVO.make_pil()
    FaultPlan.from_dict(plan.to_dict()).attach(pil)
    return pil, pil.run(SERVO.t_final)


def assert_same_pil(a, b):
    for f in dataclasses.fields(a):
        if f.name != "result":
            assert getattr(a, f.name) == getattr(b, f.name), f.name
    assert np.array_equal(a.result.t, b.result.t)
    assert a.result.names == b.result.names
    for name in a.result.names:
        assert np.array_equal(a.result[name], b.result[name]), name


@pytest.fixture
def default_policy(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)


@pytest.fixture
def built_plant(default_policy):
    """Make sure the servo plant's artifact exists in the session cache."""
    run_rig(FaultPlan([], seed=0))
    assert wait_pending(120)


@pytest.mark.parametrize("k", range(len(GRID)))
def test_native_plant_matches_python_plant(k, built_plant, monkeypatch):
    native, res_native = run_rig(GRID[k])
    assert native.plant_sim.native_active, native.plant_sim.native_fallback_reason
    monkeypatch.setenv("REPRO_NATIVE", "off")
    python, res_python = run_rig(GRID[k])
    assert not python.plant_sim.native_active
    assert python.plant_sim.native_fallback_reason == "disabled"
    assert_same_pil(res_native, res_python)


def test_first_run_pends_then_a_later_run_binds(
        tmp_path, monkeypatch, default_policy):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    plan = GRID[0]
    first, res_first = run_rig(plan)
    assert not first.plant_sim.native_active
    assert first.plant_sim.native_fallback_reason == "compile_pending"
    assert wait_pending(120)
    later, res_later = run_rig(plan)
    assert later.plant_sim.native_active, later.plant_sim.native_fallback_reason
    assert later.plant_sim.native_path.so_path.startswith(str(tmp_path))
    assert_same_pil(res_first, res_later)
