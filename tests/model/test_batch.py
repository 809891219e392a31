"""Equivalence matrix: batch ensemble engine vs serial simulator.

Every test runs the same scenarios twice — one serial
:class:`~repro.model.Simulator` per scenario (the reference interpreter)
and one :class:`~repro.model.BatchSimulator` carrying all scenarios as
lanes — and asserts each lane is **bit-identical** (``np.array_equal``,
no tolerance) to its serial run.  The matrix mirrors
``tests/model/test_kernels.py``: whole block library, both solvers,
mixed rates, per-lane affine coefficients, lane-diverging events, and
the full servo case study.  It runs on both ensemble substrates: each
class runs the numpy engine (``native=False``), and its ``...Native``
subclass runs the same tests on native lanes (``native=True``; that leg
skips without a C compiler, and a model that does not lower must report
``plan_refused``).  Assertions about numpy-engine internals
(``plan_stats`` entries, ``lanes_diverged``) run on the numpy leg only.
"""

import dataclasses

import numpy as np
import pytest

from repro.model import (
    BatchPlanError,
    BatchScenario,
    BatchSimulator,
    Model,
    SimulationOptions,
    Simulator,
    simulate_batch,
)
from repro.model.block import Block
from repro.model.library import (
    Constant,
    FunctionCallSubsystem,
    Gain,
    Inport,
    Outport,
    Scope,
)

from tests.model.test_kernels import (
    LIBRARY,
    event_model,
    harness,
    mixed_rate_model,
    wide_affine_model,
)


class Matrix:
    """A test class of the matrix; ``native`` picks the substrate."""

    native = False


class NativeLeg:
    """Mixin: the same tests on native lanes."""

    native = True

    @pytest.fixture(autouse=True)
    def _native_lanes(self, monkeypatch):
        from repro.native import find_cc

        if find_cc() is None:
            pytest.skip("no C compiler on PATH (cc/gcc/clang) — native "
                        "lanes untestable here; the numpy leg still runs")
        # the leg sets the mode through SimulationOptions
        monkeypatch.delenv("REPRO_NATIVE", raising=False)


def run_pair(factory, scenarios, t_final=0.05, dt=1e-3, solver="rk4",
             native=False):
    """Serial runs (one fresh model per scenario) vs one batched run on
    the numpy engine (``native=False``) or on native lanes."""
    serial = []
    for overrides in scenarios:
        cm = factory().compile(dt)
        for qname, attrs in overrides.items():
            for attr, value in attrs.items():
                setattr(cm.nodes[qname], attr, value)
        sim = Simulator(
            cm,
            SimulationOptions(
                dt=dt,
                t_final=t_final,
                solver=solver,
                log_all_signals=True,
                use_kernels=False,
                native=False,
            ),
        )
        serial.append(sim.run())
    batch = BatchSimulator(
        factory().compile(dt),
        scenarios,
        SimulationOptions(
            dt=dt, t_final=t_final, solver=solver, log_all_signals=True,
            native=native,
        ),
    )
    batched = batch.run()
    if native:
        reason = batch.native_fallback_reason
        assert batch.native_active or reason.startswith("plan_refused"), reason
    else:
        assert not batch.native_active
        assert batch.plan_stats["substrate"] == batch.substrate == "numpy"
    return serial, batch, batched


def assert_lanes_identical(serial, batched, signs=False):
    """Each lane equals its serial run (with ``signs``, also in the sign
    of every zero, which ``np.array_equal`` calls equal)."""
    assert batched.n_lanes == len(serial)
    for b, ref in enumerate(serial):
        lane = batched.lane(b)
        assert np.array_equal(ref.t, lane.t)
        assert ref.names == lane.names
        for name in ref.names:
            assert np.array_equal(ref[name], lane[name]), (
                f"lane {b} signal '{name}' diverges: max |Δ| = "
                f"{np.max(np.abs(ref[name] - lane[name]))}"
            )
            if signs:
                assert np.array_equal(np.signbit(ref[name]),
                                      np.signbit(lane[name])), (
                    f"lane {b} signal '{name}' differs in the sign of a zero"
                )


#: vary the sine driver so lanes take genuinely different trajectories
DRIVER_SWEEP = [{"d0": {"amplitude": a}} for a in (1.0, 2.0, 2.5, 3.25)]


# ---------------------------------------------------------------------------
# whole-library matrix
# ---------------------------------------------------------------------------
class TestLibraryMatrix(Matrix):
    @pytest.mark.parametrize("key", sorted(LIBRARY))
    def test_block_bit_identical(self, key):
        serial, _sim, batched = run_pair(harness(LIBRARY[key]), DRIVER_SWEEP,
                                         native=self.native)
        assert_lanes_identical(serial, batched)

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_solvers(self, solver):
        serial, _sim, batched = run_pair(
            harness(LIBRARY["transfer_function"]),
            DRIVER_SWEEP,
            solver=solver,
            t_final=0.2,
            native=self.native,
        )
        assert_lanes_identical(serial, batched)

    def test_block_param_sweep(self):
        scenarios = [{"b": {"gain": g}} for g in (-2.5, -1.0, 0.5, 4.0)]
        serial, _sim, batched = run_pair(harness(LIBRARY["gain"]), scenarios,
                                         native=self.native)
        assert_lanes_identical(serial, batched)


# ---------------------------------------------------------------------------
# structure-specific models
# ---------------------------------------------------------------------------
class TestStructures(Matrix):
    def test_mixed_rates(self):
        scenarios = [{"src": {"final": f}} for f in (0.5, 1.0, 1.5)]
        serial, _sim, batched = run_pair(
            mixed_rate_model, scenarios, t_final=0.3, native=self.native
        )
        assert_lanes_identical(serial, batched)

    def test_wide_affine_per_lane_coefficients(self):
        # per-lane gains on a fused affine run exercise the (rows, B)
        # coefficient path of BatchAffineKernel
        scenarios = [
            {"g0": {"gain": 0.5 + 0.1 * b}, "b3": {"bias": -1.0 + 0.2 * b}}
            for b in range(4)
        ]
        serial, sim, batched = run_pair(
            wide_affine_model, scenarios, t_final=0.2, native=self.native
        )
        if not self.native:
            assert sim.plan_stats["affine_rows"] >= 8
        assert_lanes_identical(serial, batched)

    def test_event_driven_subsystem(self):
        # EveryNSteps fires in every lane -> no divergence, but the full
        # per-lane dispatch path runs
        serial, sim, batched = run_pair(event_model, [{}] * 3, t_final=0.05,
                                        native=self.native)
        assert_lanes_identical(serial, batched)
        if not self.native:
            assert sim.lanes_diverged == 0

    def test_mixed_rate_solvers(self):
        for solver in ("euler", "rk4"):
            scenarios = [{"src": {"final": f}} for f in (0.8, 1.2)]
            serial, _sim, batched = run_pair(
                mixed_rate_model, scenarios, t_final=0.1, solver=solver,
                native=self.native,
            )
            assert_lanes_identical(serial, batched)


# ---------------------------------------------------------------------------
# lane divergence: one lane trips the trigger, the others don't
# ---------------------------------------------------------------------------
class FireAbove(Block):
    """Fires its function-call port while the input exceeds a threshold."""

    n_in = 1
    n_out = 1
    n_events = 1

    def __init__(self, name, threshold=1.0):
        super().__init__(name)
        self.threshold = float(threshold)

    def outputs(self, t, u, ctx):
        if u[0] > self.threshold:
            ctx.fire(0)
        return [u[0]]


def diverging_event_model():
    m = Model("diverge")
    m.add(Constant("level", value=0.0))
    m.add(FireAbove("det", threshold=1.0))
    fc = FunctionCallSubsystem("isr")
    i = fc.inner.add(Inport("in0", index=0))
    g = fc.inner.add(Gain("g", gain=10.0))
    o = fc.inner.add(Outport("out0", index=0))
    fc.inner.connect(i, g)
    fc.inner.connect(g, o)
    m.add(fc)
    m.connect("level", "det")
    m.connect("det", "isr")
    m.connect_event("det", "isr")
    m.connect("isr", m.add(Scope("sc", label="isr_y")))
    m.connect("det", m.add(Scope("sc2", label="det_y")))
    return m


class TestLaneDivergence(Matrix):
    def test_one_lane_fires_others_hold(self):
        # lane 2 exceeds the threshold and drives its ISR; lanes 0/1 never
        # trigger and must keep the untriggered trajectory bit-exactly
        scenarios = [{"level": {"value": v}} for v in (0.0, 0.5, 2.0)]
        serial, sim, batched = run_pair(
            diverging_event_model, scenarios, t_final=0.02, native=self.native
        )
        assert_lanes_identical(serial, batched)
        if not self.native:
            assert sim.lanes_diverged > 0
        assert batched.final("isr_y")[2] == 20.0
        assert batched.final("isr_y")[0] == 0.0

    def test_all_lanes_fire_no_divergence(self):
        scenarios = [{"level": {"value": v}} for v in (1.5, 2.0, 3.0)]
        serial, sim, batched = run_pair(
            diverging_event_model, scenarios, t_final=0.02, native=self.native
        )
        assert_lanes_identical(serial, batched)
        if not self.native:
            assert sim.lanes_diverged == 0


# ---------------------------------------------------------------------------
# servo case study
# ---------------------------------------------------------------------------
class TestServoCaseStudy(Matrix):
    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_gain_sweep_bit_identical(self, solver):
        from repro.casestudy import ServoConfig, build_servo_model

        probe = build_servo_model(ServoConfig(setpoint=100.0))
        base = probe.pid_block.gains

        def factory():
            return build_servo_model(ServoConfig(setpoint=100.0)).model

        scenarios = [
            {
                "controller.pid": {
                    "gains": dataclasses.replace(base, kp=base.kp * s)
                }
            }
            for s in (0.5, 1.0, 2.0)
        ]
        serial, sim, batched = run_pair(
            factory, scenarios, t_final=0.1, dt=1e-4, solver=solver,
            native=self.native,
        )
        # the plant and most of the controller must actually vectorize
        if not self.native:
            assert sim.plan_stats["batch_blocks"] >= 5
        assert_lanes_identical(serial, batched)

    def test_setpoint_sweep_fully_vectorized_controller(self):
        from repro.casestudy import ServoConfig, build_servo_model

        def factory():
            return build_servo_model(ServoConfig(setpoint=100.0)).model

        scenarios = [
            {"controller.ref": {"value": v}} for v in (50.0, 80.0, 120.0)
        ]
        serial, sim, batched = run_pair(
            factory, scenarios, t_final=0.1, dt=1e-4, native=self.native
        )
        if not self.native:
            assert sim.plan_stats["lane_blocks"] <= 1  # only the timer block
        assert_lanes_identical(serial, batched)


# ---------------------------------------------------------------------------
# lane set-up: each lane changes only what its own scenario overrides
# ---------------------------------------------------------------------------
def lane_mix():
    """Servo lanes overriding different blocks: none, one, two, a
    stateful one, a form-changing gain of exactly -1 (alone and with an
    override of its own), and a setpoint of -0.0."""
    from repro.casestudy import ServoConfig

    return [
        {},
        {"controller.ref": {"value": 80.0}},
        {"controller.pid": {"gains": ServoConfig(bandwidth_hz=4.0).gains()}},
        {"plant.tacho_gain": {"gain": -1.0}},
        {"load": {"value": 0.002}, "controller.filt": {"alpha": 0.25}},
        {"plant.tacho_gain": {"gain": -1.0}, "controller.ref": {"value": 120.0}},
        {"plant.motor": {"initial_speed": 5.0}},
        {"controller.ref": {"value": -0.0}},
    ]


def alone(factory, overrides, native, dt, t_final):
    """One scenario run by itself on the executor its ensemble used, its
    overrides set on the model: a ``Simulator`` on native, a one-lane
    ensemble on the numpy engine."""
    cm = factory().compile(dt)
    for qname, attrs in overrides.items():
        for attr, value in attrs.items():
            setattr(cm.nodes[qname], attr, value)
    opts = SimulationOptions(dt=dt, t_final=t_final, log_all_signals=True,
                             native=native)
    if native:
        sim = Simulator(cm, opts)
        result = sim.run()
    else:
        sim = BatchSimulator(cm, [{}], opts)
        result = sim.run().lane(0)
    assert sim.native_active == native, sim.native_fallback_reason
    return result


class TestLaneSetUp(Matrix):
    def test_lanes_overriding_different_blocks(self):
        """Each lane equals the reference run of its scenario (atol=0)
        and, signs of zero included, its scenario run alone on the same
        executor: lane set-up changes what the lane overrides and
        nothing else."""
        from repro.casestudy import ServoConfig, build_servo_model

        def factory():
            return build_servo_model(ServoConfig(setpoint=100.0)).model

        scenarios = lane_mix()
        serial, sim, batched = run_pair(factory, scenarios, t_final=0.02,
                                        dt=1e-4, native=self.native)
        if self.native:
            assert sim.native_active, sim.native_fallback_reason
            assert sim.plan_stats["forms"] == 2  # the -1 gain lanes
        assert_lanes_identical(serial, batched)
        assert_lanes_identical(
            [alone(factory, sc, self.native, 1e-4, 0.02) for sc in scenarios],
            batched, signs=True)


# ---------------------------------------------------------------------------
# API surface
# ---------------------------------------------------------------------------
class TestBatchApi(Matrix):
    def test_unknown_block_rejected(self):
        with pytest.raises(BatchPlanError, match="unknown block"):
            simulate_batch(
                mixed_rate_model(), [{"nope": {"x": 1.0}}], t_final=0.01
            )

    def test_unknown_attribute_rejected(self):
        with pytest.raises(BatchPlanError, match="no attribute"):
            simulate_batch(
                mixed_rate_model(), [{"src": {"nope": 1.0}}], t_final=0.01
            )

    def test_empty_scenarios_rejected(self):
        with pytest.raises(BatchPlanError, match="at least one scenario"):
            BatchSimulator(
                mixed_rate_model().compile(1e-3),
                [],
                SimulationOptions(dt=1e-3, t_final=0.01),
            )

    def test_dt_mismatch_rejected(self):
        with pytest.raises(ValueError, match="base step"):
            BatchSimulator(
                mixed_rate_model().compile(1e-3),
                [{}],
                SimulationOptions(dt=2e-3, t_final=0.01),
            )

    def test_labels_and_split(self):
        res = simulate_batch(
            mixed_rate_model(),
            [
                BatchScenario({"src": {"final": 0.5}}, label="low"),
                BatchScenario({"src": {"final": 1.5}}, label="high"),
            ],
            t_final=0.02,
        )
        assert res.labels == ["low", "high"]
        lanes = res.split()
        assert len(lanes) == 2
        assert np.array_equal(res["y"][:, 1], lanes[1]["y"])
        assert res.final("y").shape == (2,)

    def test_read_write_signal_lane_addressing(self):
        sim = BatchSimulator(
            mixed_rate_model().compile(1e-3),
            [{}, {}],
            SimulationOptions(dt=1e-3, t_final=0.01, native=self.native),
        )
        sim.initialize()
        assert sim.native_active == self.native
        sim.advance()
        sim.write_signal("hold", 0, -5.0, lane=1)
        row = sim.read_signal("hold", 0)
        assert row.shape == (2,)
        assert row[1] == -5.0
        assert sim.read_signal("hold", 0, lane=1) == -5.0


# ---------------------------------------------------------------------------
# the same matrix on native lanes
# ---------------------------------------------------------------------------
class TestLibraryMatrixNative(NativeLeg, TestLibraryMatrix):
    pass


class TestStructuresNative(NativeLeg, TestStructures):
    pass


class TestLaneDivergenceNative(NativeLeg, TestLaneDivergence):
    pass


class TestServoCaseStudyNative(NativeLeg, TestServoCaseStudy):
    pass


class TestBatchApiNative(NativeLeg, TestBatchApi):
    pass


class TestLaneSetUpNative(NativeLeg, TestLaneSetUp):
    pass
