"""The batch engine's array library is numpy, called directly.

The engine allocates its lane arrays with numpy and nothing else; these
tests pin that this changes *nothing*: a ``simulate_batch`` run on the
numpy engine is bit-identical to the serial runs and to a
``BatchSimulator`` run of the same scenarios, and ``plan_stats`` names
the engine that ran.
"""

import numpy as np

from repro.model import BatchSimulator, SimulationOptions, simulate_batch

from tests.model.test_batch import (
    assert_lanes_identical,
    diverging_event_model,
    run_pair,
)


class TestNumpyParity:
    """Running the ensemble on the numpy engine must change nothing."""

    def test_batch_run_bit_identical_through_seam(self):
        scenarios = [{"level": {"value": v}} for v in (0.0, 0.5, 2.0, 3.0)]
        serial, _sim, batched = run_pair(diverging_event_model, scenarios)
        direct = simulate_batch(
            diverging_event_model(),
            scenarios,
            dt=1e-3,
            t_final=0.05,
            log_all_signals=True,
            native=False,
        )
        assert_lanes_identical(serial, direct)
        for name in batched.names:
            assert np.array_equal(batched[name], direct[name])

    def test_plan_stats_report_backend(self):
        sim = BatchSimulator(
            diverging_event_model().compile(1e-3),
            [{}, {}],
            SimulationOptions(dt=1e-3, t_final=0.01, native=False),
        )
        sim.initialize()
        assert sim.plan_stats["substrate"] == sim.substrate == "numpy"
