"""Array-ops seam: registry, selection precedence, and numpy parity.

The seam exists so a GPU array library is a configuration switch; these
tests pin the selection rules (explicit arg > process default > env >
numpy), the registry surface, and — the part the engine relies on — that
routing through the numpy backend changes *nothing*: results stay
bit-identical to the pre-seam engine.  The cupy parity test self-skips
with a notice when no cupy/CUDA is present (the CI backend-matrix step
surfaces that skip).
"""

import numpy as np
import pytest

from repro.model import SimulationOptions, simulate_batch
from repro.model.array_backend import (
    ArrayBackend,
    BackendUnavailable,
    NumpyBackend,
    backend_available,
    backend_names,
    get_array_backend,
    register_backend,
    set_array_backend,
)

from tests.model.test_batch import (
    assert_lanes_identical,
    diverging_event_model,
    run_pair,
)


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Every test starts from the no-override, no-env default."""
    monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
    set_array_backend(None)
    yield
    monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
    set_array_backend(None)


class TestRegistry:
    def test_builtin_names_registered(self):
        names = backend_names()
        assert "numpy" in names
        assert "cupy" in names

    def test_numpy_always_available(self):
        assert backend_available("numpy")

    def test_unknown_name_is_explicit_error(self):
        with pytest.raises(KeyError, match="unknown array backend"):
            get_array_backend("not-a-backend")
        assert not backend_available("not-a-backend")

    def test_register_custom_backend(self):
        class Tagged(NumpyBackend):
            name = "tagged"

        register_backend("tagged", Tagged)
        try:
            assert "tagged" in backend_names()
            assert get_array_backend("tagged").name == "tagged"
        finally:
            # the registry is process-global; drop the test entry
            from repro.model import array_backend as ab

            ab._FACTORIES.pop("tagged", None)
            ab._cache.pop("tagged", None)


class TestSelection:
    def test_default_is_numpy(self):
        assert get_array_backend().name == "numpy"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "numpy")
        assert get_array_backend().name == "numpy"

    def test_env_var_unknown_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "bogus")
        with pytest.raises(KeyError):
            get_array_backend()

    def test_process_default_beats_env(self, monkeypatch):
        class Tagged(NumpyBackend):
            name = "tagged-default"

        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "bogus")
        set_array_backend(Tagged())
        assert get_array_backend().name == "tagged-default"

    def test_explicit_arg_beats_process_default(self):
        class Tagged(NumpyBackend):
            name = "tagged-arg"

        set_array_backend(Tagged())
        assert get_array_backend("numpy").name == "numpy"

    def test_instance_passes_through(self):
        inst = NumpyBackend()
        assert get_array_backend(inst) is inst

    def test_clear_override(self):
        class Tagged(NumpyBackend):
            name = "tagged-clear"

        set_array_backend(Tagged())
        set_array_backend(None)
        assert get_array_backend().name == "numpy"

    def test_cupy_unavailable_raises_actionable(self):
        if backend_available("cupy"):
            pytest.skip("cupy present on this host")
        with pytest.raises(BackendUnavailable, match="cupy"):
            get_array_backend("cupy")


class TestNumpyParity:
    """Routing allocation through the seam must change nothing."""

    def test_batch_run_bit_identical_through_seam(self):
        scenarios = [{"level": {"value": v}} for v in (0.0, 0.5, 2.0, 3.0)]
        serial, _sim, batched = run_pair(diverging_event_model, scenarios)
        seamed = simulate_batch(
            diverging_event_model(),
            scenarios,
            dt=1e-3,
            t_final=0.05,
            log_all_signals=True,
            backend="numpy",
            native=False,
        )
        assert_lanes_identical(serial, seamed)
        for name in batched.names:
            assert np.array_equal(batched[name], seamed[name])

    def test_plan_stats_report_backend(self):
        from repro.model import BatchSimulator

        sim = BatchSimulator(
            diverging_event_model().compile(1e-3),
            [{}, {}],
            SimulationOptions(dt=1e-3, t_final=0.01, native=False),
            backend=NumpyBackend(),
        )
        sim.initialize()
        assert sim.plan_stats["array_backend"] == "numpy"


class TestCupyParity:
    def test_cupy_matches_numpy(self):
        if not backend_available("cupy"):
            pytest.skip("SKIP-NOTICE: cupy/CUDA not available on this host; "
                        "array-seam parity ran on numpy only")
        scenarios = [{"level": {"value": v}} for v in (0.0, 2.0)]
        base = simulate_batch(
            diverging_event_model(), scenarios, dt=1e-3, t_final=0.05,
            backend="numpy", native=False,
        )
        gpu = simulate_batch(
            diverging_event_model(), scenarios, dt=1e-3, t_final=0.05,
            backend="cupy", native=False,
        )
        for name in base.names:
            # GPU float contraction order may differ: tolerance, not bits
            assert np.allclose(base[name], gpu[name], rtol=1e-12, atol=1e-12)


class TestAbstractSurface:
    def test_abstract_methods_raise(self):
        b = ArrayBackend()
        for op in ("zeros", "empty", "asarray", "array", "vstack",
                   "index_array", "asnumpy"):
            with pytest.raises(NotImplementedError):
                getattr(b, op)((2, 2)) if op != "vstack" else b.vstack([])

    def test_full_signature(self):
        with pytest.raises(NotImplementedError):
            ArrayBackend().full((2,), 1.0)

    def test_scalar_default(self):
        assert ArrayBackend().scalar(np.float64(2.5)) == 2.5
