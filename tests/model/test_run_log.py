"""The run log: a :class:`~repro.model.Simulator` (one lane) and a
:class:`~repro.model.BatchSimulator` (``B`` lanes) log into one
lane-major :class:`~repro.model.result.RunLog`, whichever executor
steps them, so they name the same signals at every step count.
"""

import numpy as np
import pytest

from repro.casestudy import ServoConfig, build_servo_model
from repro.model import BatchScenario, BatchSimulator, SimulationOptions, Simulator

from tests.native.conftest import require_cc

DT = 1e-4
SETPOINTS = (80.0, 120.0)

#: simulator kind -> (ensemble?, SimulationOptions.native)
KINDS = {
    "single": (False, False),
    "single-native": (False, True),
    "lanes": (True, True),
    "numpy": (True, False),
}


def make(kind, log_all_signals):
    ensemble, native = KINDS[kind]
    if native:
        require_cc()
    cm = build_servo_model(ServoConfig(setpoint=100.0)).model.compile(DT)
    opts = SimulationOptions(dt=DT, t_final=0.01, native=native,
                             log_all_signals=log_all_signals)
    if not ensemble:
        return Simulator(cm, opts)
    return BatchSimulator(cm, [BatchScenario({"controller.ref": {"value": v}})
                               for v in SETPOINTS], opts)


@pytest.mark.parametrize("log_all_signals", [False, True],
                         ids=["scopes", "all-signals"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_result_before_the_first_step(kind, log_all_signals):
    """After ``initialize()`` alone, ``result()`` has an empty time base
    and every signal a run logs (the scope labels, and each
    ``qname:port`` under ``log_all_signals``), each with no samples."""
    sim = make(kind, log_all_signals)
    sim.initialize()
    assert sim.native_active is KINDS[kind][1], sim.native_fallback_reason
    empty = sim.result()
    full = make(kind, log_all_signals).run()
    assert len(empty.t) == 0 and len(full.t) > 0
    assert empty.names == full.names
    assert ("plant.motor:0" in full.names) is log_all_signals
    lanes = (len(SETPOINTS),) if KINDS[kind][0] else ()
    for name in empty.names:
        assert empty[name].shape == (0, *lanes), name
        assert empty[name].dtype == np.float64


def test_native_advance_is_one_nx_run_into_the_next_row():
    """A native ``advance()`` (how a PIL/HIL plant steps) is one
    ``nx_run(step, 1)`` call writing the log's next row; the log, never
    reserved, grows under it, and the rows equal a chunked run's."""
    sim = make("single-native", True)
    sim.initialize()
    log = sim.log
    calls = []
    nx_run = sim.native_path.nx_run

    def counted(step, n, scope_at, trace_at):
        calls.append((step, n, scope_at - log.scope_at, trace_at - log.trace_at))
        nx_run(step, n, scope_at, trace_at)

    sim.native_path.nx_run = counted
    steps = int(round(sim.options.t_final / DT)) + 1
    for _ in range(steps):
        sim.advance()
    assert calls == [(k, 1, k * log.scope_row, k * log.trace_row)
                     for k in range(steps)]
    assert log.n == steps < log.capacity
    stepped, ran = sim.result(), make("single-native", True).run()
    assert stepped.names == ran.names and np.array_equal(stepped.t, ran.t)
    for name in ran.names:
        assert np.array_equal(stepped[name], ran[name]), name
