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

import numpy as np
import pytest

from repro.model import Simulator, SimulationOptions
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
    assert np.array_equal(ref.t, native.t)
    assert ref.names == native.names
    for name in ref.names:
        assert np.array_equal(ref[name], native[name]), (
            f"signal '{name}' diverges: max |Δ| = "
            f"{np.max(np.abs(ref[name] - native[name]))}"
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
