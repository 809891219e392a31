"""Equivalence matrix: kernel fast path vs reference interpreter.

Every test runs the same model twice — ``use_kernels=False`` (the
reference block-by-block interpreter) and ``use_kernels=True`` (the
generated fast path) — and asserts the trajectories are **bit-identical**
(``np.array_equal``, no tolerance).  The matrix spans the whole block
library, both solvers, mixed rates, event-driven models, co-simulation
injection, and the full servo case study.
"""

import numpy as np
import pytest

from repro.model import Model, Simulator, SimulationOptions
from repro.model.block import Block
from repro.model.kernels import (
    VECTOR_MIN_ROWS,
    AffineRun,
    plan_kernels,
)
from repro.model.library import (
    Abs,
    Backlash,
    Bias,
    Clock,
    Constant,
    Coulomb,
    DataTypeConversion,
    DeadZone,
    DiscreteDerivative,
    DiscreteIntegrator,
    DiscreteTransferFunction,
    EdgeDetector,
    FunctionCallSubsystem,
    Gain,
    Inport,
    Integrator,
    LogicalOperator,
    Lookup1D,
    ManualSwitch,
    MathFunction,
    Memory,
    MinMax,
    Outport,
    Product,
    PulseGenerator,
    Quantizer,
    Ramp,
    RateLimiter,
    Relay,
    RelationalOperator,
    Saturation,
    Scope,
    Sign,
    SineWave,
    Step,
    Sum,
    Switch,
    Terminator,
    TransferFunction,
    TransportDelay,
    UnitDelay,
    WhiteNoise,
    ZeroOrderHold,
)
from repro.model.types import INT16


def run_both(factory, t_final=0.05, dt=1e-3, solver="rk4", hook=None):
    """Run a freshly built model on both paths; return (ref, fast, sims).
    Native is off on both: the subject is the Python kernel path."""
    results, sims = [], []
    for use_kernels in (False, True):
        sim = Simulator(
            factory().compile(dt),
            SimulationOptions(
                dt=dt,
                t_final=t_final,
                solver=solver,
                log_all_signals=True,
                step_hook=hook,
                use_kernels=use_kernels,
                native=False,
            ),
        )
        results.append(sim.run())
        sims.append(sim)
    return results[0], results[1], sims


def assert_identical(ref, fast):
    assert np.array_equal(ref.t, fast.t)
    assert ref.names == fast.names
    for name in ref.names:
        assert np.array_equal(ref[name], fast[name]), (
            f"signal '{name}' diverges: max |Δ| = "
            f"{np.max(np.abs(ref[name] - fast[name]))}"
        )


def assert_fast_active(sims):
    """The second sim must actually be on the fast path."""
    assert sims[1].fast_path is not None, sims[1].kernel_fallback_reason
    assert sims[0].fast_path is None


# ---------------------------------------------------------------------------
# whole-library matrix
# ---------------------------------------------------------------------------
TS = 2e-3  # discrete-block sample time: divisor 2 at the 1e-3 base step

LIBRARY = {
    "integrator": lambda: Integrator("b", initial=0.5, lower=-3.0, upper=3.0),
    "transfer_function": lambda: TransferFunction("b", [1.0], [0.01, 1.0]),
    "dtype_conversion": lambda: DataTypeConversion("b", INT16),
    "discrete_derivative": lambda: DiscreteDerivative("b", TS, gain=2.0),
    "discrete_integrator": lambda: DiscreteIntegrator("b", TS, gain=1.5),
    "discrete_tf": lambda: DiscreteTransferFunction("b", [0.2, 0.1], [1.0, -0.7], TS),
    "memory": lambda: Memory("b", initial=0.25),
    "unit_delay": lambda: UnitDelay("b", TS, initial=1.0),
    "zoh": lambda: ZeroOrderHold("b", TS),
    "backlash": lambda: Backlash("b", width=0.5),
    "edge_detector": lambda: EdgeDetector("b", TS),
    "transport_delay": lambda: TransportDelay("b", TS, delay_steps=3),
    "lookup1d": lambda: Lookup1D("b", [-2.0, 0.0, 2.0], [0.0, 1.0, 4.0]),
    "abs": lambda: Abs("b"),
    "bias": lambda: Bias("b", bias=0.3),
    "gain": lambda: Gain("b", gain=-2.5),
    "logical": lambda: LogicalOperator("b", op="AND", n_in=2),
    "math_function": lambda: MathFunction("b", function="square"),
    "minmax": lambda: MinMax("b", mode="max", n_in=2),
    "product": lambda: Product("b", ops="**"),
    "relational": lambda: RelationalOperator("b", op="<"),
    "sign": lambda: Sign("b"),
    "sum": lambda: Sum("b", signs="+-"),
    "coulomb": lambda: Coulomb("b", offset=0.1, gain=0.4),
    "dead_zone": lambda: DeadZone("b", start=-0.5, end=0.5),
    "quantizer": lambda: Quantizer("b", interval=0.25),
    "rate_limiter": lambda: RateLimiter("b", TS, rising=2.0),
    "relay": lambda: Relay("b", on_point=0.5, off_point=-0.5),
    "saturation": lambda: Saturation("b", lower=-1.0, upper=1.0),
    "manual_switch": lambda: ManualSwitch("b", position=1),
    "switch": lambda: Switch("b", threshold=0.0),
    "clock": lambda: Clock("b"),
    "constant": lambda: Constant("b", value=3.25),
    "pulse": lambda: PulseGenerator("b", amplitude=2.0, period=0.01),
    "ramp": lambda: Ramp("b", slope=4.0, start_time=0.01),
    "sine": lambda: SineWave("b", amplitude=2.0, frequency=30.0),
    "step": lambda: Step("b", step_time=0.02, initial=-1.0, final=1.0),
    "white_noise": lambda: WhiteNoise("b", std=1.0, sample_time=TS, seed=7),
}


def harness(block_factory):
    """sine/clock/const drivers -> block -> scope, terminating all ports."""

    def build():
        m = Model("h")
        blk = m.add(block_factory())
        drivers = [
            m.add(SineWave("d0", amplitude=2.0, frequency=25.0)),
            m.add(Clock("d1")),
            m.add(Constant("d2", value=0.5)),
        ]
        for port in range(blk.n_in):
            m.connect(drivers[port], blk, 0, port)
        if blk.n_out:
            m.connect(blk, m.add(Scope("sc", label="y")))
            for port in range(1, blk.n_out):
                m.connect(blk, m.add(Terminator(f"t{port}")), port, 0)
        else:
            m.connect(drivers[0], m.add(Scope("sc", label="y")))
        return m

    return build


class TestLibraryMatrix:
    @pytest.mark.parametrize("key", sorted(LIBRARY))
    def test_block_bit_identical(self, key):
        ref, fast, sims = run_both(harness(LIBRARY[key]))
        assert_fast_active(sims)
        assert_identical(ref, fast)

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_solvers(self, solver):
        ref, fast, sims = run_both(
            harness(LIBRARY["transfer_function"]), solver=solver, t_final=0.2
        )
        assert_fast_active(sims)
        assert_identical(ref, fast)


# ---------------------------------------------------------------------------
# structure-specific models
# ---------------------------------------------------------------------------
def mixed_rate_model():
    """Continuous plant + two discrete rates (divisors 2 and 5)."""
    m = Model("rates")
    src = m.add(Step("src", step_time=0.0, final=1.0))
    err = m.add(Sum("err", signs="+-"))
    pi = m.add(DiscreteIntegrator("pi", 2e-3, gain=20.0))
    hold = m.add(ZeroOrderHold("hold", 5e-3))
    plant = m.add(TransferFunction("plant", [1.0], [0.05, 1.0]))
    m.connect(src, err, 0, 0)
    m.connect(err, pi)
    m.connect(pi, hold)
    m.connect(hold, plant)
    m.connect(plant, err, 0, 1)
    m.connect(plant, m.add(Scope("sc", label="y")))
    return m


def long_hyperperiod_model():
    """Divisors 63 and 64 -> lcm 4032 > PHASE_CAP, forcing guarded passes."""
    m = Model("longh")
    src = m.add(SineWave("src", amplitude=1.0, frequency=5.0))
    a = m.add(ZeroOrderHold("a", 63e-3))
    b = m.add(ZeroOrderHold("b", 64e-3))
    s = m.add(Sum("s", signs="++"))
    m.connect(src, a)
    m.connect(src, b)
    m.connect(a, s, 0, 0)
    m.connect(b, s, 0, 1)
    m.connect(s, m.add(Scope("sc", label="y")))
    return m


def wide_affine_model(rows=VECTOR_MIN_ROWS + 4):
    """A parallel bank of gain/bias chains wide enough to vectorize."""
    m = Model("wide")
    src = m.add(SineWave("src", amplitude=3.0, frequency=11.0))
    acc = m.add(Sum("acc", signs="+" * rows))
    for i in range(rows):
        g = m.add(Gain(f"g{i}", gain=0.5 + 0.25 * i))
        bi = m.add(Bias(f"b{i}", bias=0.125 * i - 1.0))
        m.connect(src, g)
        m.connect(g, bi)
        m.connect(bi, acc, 0, i)
    m.connect(acc, m.add(Scope("sc", label="y")))
    return m


class EveryNSteps(Block):
    """Fires its function-call port every n-th major step (test helper)."""

    n_in = 0
    n_out = 1
    n_events = 1

    def __init__(self, name, n=2):
        super().__init__(name)
        self.n = n

    def start(self, ctx):
        ctx.dwork["k"] = 0

    def outputs(self, t, u, ctx):
        k = ctx.dwork["k"]
        if not ctx.minor and k % self.n == 0:
            ctx.fire(0)
        return [float(k)]

    def update(self, t, u, ctx):
        ctx.dwork["k"] += 1


def event_model():
    """Event source triggering a function-call subsystem (ISR pattern)."""
    m = Model("events")
    src = m.add(EveryNSteps("src", n=3))
    fc = FunctionCallSubsystem("isr")
    i = fc.inner.add(Inport("in0", index=0))
    g = fc.inner.add(Gain("g", gain=10.0))
    o = fc.inner.add(Outport("out0", index=0))
    fc.inner.connect(i, g)
    fc.inner.connect(g, o)
    m.add(fc)
    m.connect(src, fc)
    m.connect(fc, m.add(Scope("sc", label="y")))
    return m


class TestStructures:
    def test_mixed_rates(self):
        ref, fast, sims = run_both(mixed_rate_model, t_final=0.3)
        assert_fast_active(sims)
        assert sims[1].fast_path.plan.hyperperiod == 10
        assert_identical(ref, fast)

    def test_hyperperiod_overflow_falls_back_to_guards(self):
        ref, fast, sims = run_both(long_hyperperiod_model, t_final=1.0)
        assert_fast_active(sims)
        assert sims[1].fast_path.plan.hyperperiod is None
        assert_identical(ref, fast)

    def test_wide_affine_uses_vector_kernel(self):
        ref, fast, sims = run_both(wide_affine_model, t_final=0.2)
        assert_fast_active(sims)
        assert sims[1].fast_path.plan.stats["vector_runs"] >= 1
        assert_identical(ref, fast)

    def test_event_driven_subsystem(self):
        ref, fast, sims = run_both(event_model, t_final=0.05)
        assert_fast_active(sims)
        assert_identical(ref, fast)

    def test_step_hook_injection(self):
        """Co-simulation style: a hook forcing a held discrete line."""

        def hook(t, sim):
            if 0.01 <= t <= 0.02:
                sim.write_signal("hold", 0, -5.0)

        ref, fast, sims = run_both(mixed_rate_model, t_final=0.1, hook=hook)
        assert_fast_active(sims)
        assert_identical(ref, fast)

    def test_use_kernels_false_disables(self):
        _, _, sims = run_both(mixed_rate_model, t_final=0.01)
        assert sims[0].kernel_fallback_reason == "disabled by SimulationOptions"
        assert sims[1].kernel_fallback_reason is None


class TestServoCaseStudy:
    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_full_case_study_bit_identical(self, solver):
        from repro.casestudy import ServoConfig, build_servo_model

        def factory():
            return build_servo_model(ServoConfig(setpoint=100.0)).model

        ref, fast, sims = run_both(
            factory, t_final=0.2, dt=1e-4, solver=solver
        )
        assert_fast_active(sims)
        assert_identical(ref, fast)

    def test_planner_report(self):
        from repro.casestudy import ServoConfig, build_servo_model

        cm = build_servo_model(ServoConfig(setpoint=100.0)).model.compile(1e-4)
        stats = plan_kernels(cm).report()  # a refusal raises KernelPlanError
        assert stats["affine_fused"] >= 3
        assert stats["passive_dropped"] >= 2
        # the dirty-closure pruning must shrink the minor-step schedule
        assert stats["minor_blocks"] < stats["minor_blocks_reference"]


class TestPlanner:
    def test_affine_run_partitioning(self):
        cm = wide_affine_model().compile(1e-3)
        plan = plan_kernels(cm)
        fused = [e for e in plan.entries if isinstance(e, AffineRun)]
        assert any(run.vectorized for run in fused)
        # sources are t-dependent, so the sine driver is not fused
        assert all("src" not in run.qnames for run in fused)

    def test_passive_sinks_dropped(self):
        cm = mixed_rate_model().compile(1e-3)
        plan = plan_kernels(cm)
        assert "sc" in plan.dropped
