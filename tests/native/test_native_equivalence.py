"""Equivalence matrix: native C extension vs reference interpreter.

The same matrix as ``tests/model/test_kernels.py``, but the second leg
forces ``native=True``: the model is lowered to one C translation unit,
compiled, dlopen'd, and driven through the extension step loop.  Every
trajectory must be **bit-identical** (``np.array_equal``, atol=0) to the
reference block-by-block interpreter.  Blocks the native lowering
refuses (stochastic state, wired events) must fall back gracefully to
the Python paths and *still* match the reference.

The whole module auto-skips with a clear notice when the host has no C
toolchain; the fallback-ladder tests at the bottom run regardless.
"""

import math

import numpy as np
import pytest

from repro.model import Model, Simulator, SimulationOptions
from repro.native import find_cc, native_cache_stats

from tests.model.test_kernels import (  # noqa: F401  (reuse the matrix)
    LIBRARY,
    event_model,
    harness,
    long_hyperperiod_model,
    mixed_rate_model,
    run_tapped,
    wide_affine_model,
)
from tests.native.conftest import require_cc

#: library entries the native lowering refuses by design; they must fall
#: back (reason ``plan_refused``) and still match the reference bit-for-bit.
NATIVE_EXPECTED_FALLBACK = {"white_noise"}


def run_both_native(factory, t_final=0.05, dt=1e-3, solver="rk4", tap=None):
    """Reference interpreter vs forced-native (stepped by hand with
    ``tap`` between steps, when given); return (ref, native, sims)."""
    results, sims = [], []
    for native in (False, True):
        sim = Simulator(
            factory().compile(dt),
            SimulationOptions(
                dt=dt,
                t_final=t_final,
                solver=solver,
                log_all_signals=True,
                use_kernels=native,
                native=native,
            ),
        )
        results.append(sim.run() if tap is None else run_tapped(sim, tap))
        sims.append(sim)
    return results[0], results[1], sims


def assert_identical(ref, native):
    """Equal times, names and values, and equal signs of zero (which
    ``np.array_equal`` calls equal)."""
    assert np.array_equal(ref.t, native.t)
    assert ref.names == native.names
    for name in ref.names:
        assert np.array_equal(ref[name], native[name]), (
            f"signal '{name}' diverges: max |Δ| = "
            f"{np.max(np.abs(ref[name] - native[name]))}"
        )
        assert np.array_equal(np.signbit(ref[name]), np.signbit(native[name])), (
            f"signal '{name}' differs in the sign of a zero at samples "
            f"{np.flatnonzero(np.signbit(ref[name]) != np.signbit(native[name]))}"
        )


def assert_native_active(sims):
    assert sims[1].native_active, sims[1].native_fallback_reason
    assert not sims[0].native_active


# ---------------------------------------------------------------------------
# whole-library matrix
# ---------------------------------------------------------------------------
class TestLibraryMatrix:
    @pytest.mark.parametrize("key", sorted(LIBRARY))
    def test_block_bit_identical(self, key):
        require_cc()
        ref, native, sims = run_both_native(harness(LIBRARY[key]))
        if key in NATIVE_EXPECTED_FALLBACK:
            assert not sims[1].native_active
            assert sims[1].native_fallback_reason.startswith("plan_refused")
        else:
            assert_native_active(sims)
        assert_identical(ref, native)

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_solvers(self, solver):
        require_cc()
        ref, native, sims = run_both_native(
            harness(LIBRARY["transfer_function"]), solver=solver, t_final=0.2
        )
        assert_native_active(sims)
        assert_identical(ref, native)


# ---------------------------------------------------------------------------
# structure-specific models
# ---------------------------------------------------------------------------
class TestStructures:
    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_mixed_rates(self, solver):
        require_cc()
        ref, native, sims = run_both_native(
            mixed_rate_model, t_final=0.3, solver=solver
        )
        assert_native_active(sims)
        assert_identical(ref, native)

    def test_hyperperiod_overflow_guarded_passes(self):
        require_cc()
        ref, native, sims = run_both_native(long_hyperperiod_model, t_final=1.0)
        assert_native_active(sims)
        assert_identical(ref, native)

    def test_wide_affine(self):
        require_cc()
        ref, native, sims = run_both_native(wide_affine_model, t_final=0.2)
        assert_native_active(sims)
        assert_identical(ref, native)

    def test_event_model_falls_back(self):
        """Wired function-call events stay on the Python paths."""
        require_cc()
        ref, native, sims = run_both_native(event_model, t_final=0.05)
        assert not sims[1].native_active
        assert sims[1].native_fallback_reason.startswith("plan_refused")
        assert_identical(ref, native)

    def test_step_hook_injection(self):
        """A co-simulation tap between per-step advance() calls: each
        native step (one ``nx_run`` of one step) sees the injected write
        through the shared signal buffer."""
        require_cc()

        def tap(sim):
            if 0.01 <= sim.time <= 0.02:
                sim.write_signal("hold", 0, -5.0)

        ref, native, sims = run_both_native(
            mixed_rate_model, t_final=0.1, tap=tap
        )
        assert_native_active(sims)
        assert_identical(ref, native)


class TestServoCaseStudy:
    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_full_case_study_bit_identical(self, solver):
        require_cc()
        from repro.casestudy import ServoConfig, build_servo_model

        def factory():
            return build_servo_model(ServoConfig(setpoint=100.0)).model

        ref, native, sims = run_both_native(
            factory, t_final=0.2, dt=1e-4, solver=solver
        )
        assert_native_active(sims)
        assert_identical(ref, native)

    def test_warm_cache_reuses_artifact(self):
        require_cc()
        from repro.casestudy import ServoConfig, build_servo_model

        def factory():
            return build_servo_model(ServoConfig(setpoint=100.0)).model

        before = native_cache_stats()
        _, _, sims = run_both_native(factory, t_final=0.01, dt=1e-4)
        assert_native_active(sims)
        mid = native_cache_stats()
        assert mid["misses"] == before["misses"] + 1
        _, _, sims = run_both_native(factory, t_final=0.01, dt=1e-4)
        assert_native_active(sims)
        after = native_cache_stats()
        assert after["hits"] == mid["hits"] + 1
        assert after["misses"] == mid["misses"]


# ---------------------------------------------------------------------------
# signed zeros: the reference computes these results as Python ints, so a
# zero is +0.0 there; C's fmod/floor/ceil/trunc keep a -0.0 operand's sign
# ---------------------------------------------------------------------------
def _driven(name, drivers, make_block):
    """``Constant``/``Step`` drivers, each into its own block (made by
    ``make_block(key)``), each block's first output scoped under its key."""
    from repro.model.library import Scope, Terminator

    def build():
        m = Model(name)
        for key, driver in drivers.items():
            src = m.add(driver(f"src_{key}"))
            blk = m.add(make_block(key))
            m.connect(src, blk)
            m.connect(blk, m.add(Scope(f"scope_{key}", label=key)))
            for port in range(1, blk.n_out):
                m.connect(blk, m.add(Terminator(f"t_{key}{port}")), port, 0)
        return m

    return build


def _constant(value):
    from repro.model.library import Constant

    return lambda name: Constant(name, value=value)


def irc_encoder_corners():
    """An encoder at -0.0 rad and at exactly -65536 counts (16 turns of
    4096 counts): both wrap to count 0."""
    from repro.plants import IRCEncoder

    return _driven("irc_zeros", {
        "neg_zero": _constant(-0.0), "neg_wrap": _constant(-32 * math.pi),
    }, lambda key: IRCEncoder(f"enc_{key}", ppr=1024))()


def quadrature_speed_corner():
    """A position step from 0.5 to -0.5 counts: both truncate to count 0,
    so the speed stays 0."""
    from repro.control import QuadratureSpeed
    from repro.model.library import Step

    return _driven("quad_zero", {
        "speed": lambda name: Step(name, step_time=0.004, initial=0.5,
                                   final=-0.5),
    }, lambda key: QuadratureSpeed(f"qs_{key}", counts_per_rev=400,
                                   sample_time=1e-3))()


def q15_conversion_corners():
    """Q15 conversions of -1e-6 and -0.0 under each rounding mode; all
    but FLOOR of -1e-6 land on raw 0."""
    from repro.fixpt import FixedPointType
    from repro.fixpt.types import Rounding
    from repro.model.library import DataTypeConversion
    from repro.model.types import DataType

    def conversion(key):
        rounding = Rounding[key.split("_")[0]]
        return DataTypeConversion(f"dtc_{key}", DataType(
            f"q15_{rounding.name}", FixedPointType(16, 15, True,
                                                   rounding=rounding)))

    drivers = {}
    for rounding in ("FLOOR", "NEAREST", "ZERO", "CEIL"):
        drivers[f"{rounding}_neg_tiny"] = _constant(-1e-6)
        drivers[f"{rounding}_neg_zero"] = _constant(-0.0)
    return _driven("q15_zeros", drivers, conversion)()


def pe_mil_corners():
    """PE peripherals in MIL: an ADC just below its low rail (code 0) and
    a quadrature decoder at -0.5 counts (count 0)."""
    from repro.core.blocks import ADCBlock, ProcessorExpertConfig, QuadDecBlock
    from repro.model.library import Constant, Inport, Outport, Scope, Subsystem

    ctrl = Subsystem("ctrl")
    inner = ctrl.inner
    inner.add(ProcessorExpertConfig("PE", chip="MC56F8367"))
    peripherals = {"adc": ADCBlock("AD1", sample_time=1e-3),
                   "qd": QuadDecBlock("QD1")}
    m = Model("pe_zeros")
    m.add(ctrl)
    drives = {"adc": -1e-6, "qd": -0.5}
    for port, (key, blk) in enumerate(peripherals.items()):
        inner.connect(inner.add(Inport(f"in_{key}", index=port)),
                      inner.add(blk))
        inner.connect(blk, inner.add(Outport(f"out_{key}", index=port)))
        m.connect(m.add(Constant(f"src_{key}", value=drives[key])),
                  ctrl, 0, port)
        m.connect(ctrl, m.add(Scope(f"scope_{key}", label=key)), port, 0)
    return m


SIGNED_ZERO_CORNERS = {
    "irc_encoder": irc_encoder_corners,
    "quadrature_speed": quadrature_speed_corner,
    "q15_conversion": q15_conversion_corners,
    "pe_mil": pe_mil_corners,
}


class TestSignedZeros:
    @pytest.mark.parametrize("key", sorted(SIGNED_ZERO_CORNERS))
    def test_integer_valued_zero_is_positive(self, key):
        require_cc()
        ref, native, sims = run_both_native(SIGNED_ZERO_CORNERS[key],
                                            t_final=0.01)
        # the scoped block outputs (a driver may itself read -0.0)
        zeros = {n: ref[n][ref[n] == 0.0] for n in ref.names if ":" not in n}
        assert any(z.size for z in zeros.values())
        assert not any(np.signbit(z).any() for z in zeros.values())
        assert_native_active(sims)
        assert_identical(ref, native)


# ---------------------------------------------------------------------------
# fallback ladder — these run with or without a compiler
# ---------------------------------------------------------------------------
class TestFallbackLadder:
    def _counter_value(self, reason):
        from repro.obs.metrics import get_registry

        c = get_registry().counter(
            "kernel_fallback_total", labels={"reason": reason}
        )
        return c.value

    def test_disabled_by_options(self):
        ref, native, sims = run_both_native(mixed_rate_model, t_final=0.02)
        assert not sims[0].native_active
        assert sims[0].native_fallback_reason == "disabled"

    def test_env_off_overrides_options(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        before = self._counter_value("disabled")
        ref, native, sims = run_both_native(mixed_rate_model, t_final=0.05)
        assert not sims[1].native_active
        assert sims[1].native_fallback_reason == "disabled"
        assert self._counter_value("disabled") >= before + 1
        assert_identical(ref, native)

    def test_auto_below_threshold_stays_python(self):
        # a short "auto" run never waits for cc: in an empty cache it
        # starts the background build and finishes on Python
        from repro.native import wait_pending

        reference = Simulator(
            mixed_rate_model().compile(1e-3),
            SimulationOptions(dt=1e-3, t_final=0.02, native=False),
        ).run()
        sim = Simulator(
            mixed_rate_model().compile(1e-3),
            SimulationOptions(dt=1e-3, t_final=0.02, native="auto"),
        )
        result = sim.run()
        assert wait_pending(120)
        assert not sim.native_active
        expected = "compile_pending" if find_cc() else "toolchain_missing"
        assert sim.native_fallback_reason.startswith(expected)
        assert_identical(reference, result)

    def test_toolchain_missing_counts_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc-not-here")
        before = self._counter_value("toolchain_missing")
        ref, native, sims = run_both_native(mixed_rate_model, t_final=0.05)
        assert not sims[1].native_active
        assert sims[1].native_fallback_reason.startswith("toolchain_missing")
        assert self._counter_value("toolchain_missing") >= before + 1
        assert_identical(ref, native)
