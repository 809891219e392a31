"""Cooperative cancellation: ``SimulationOptions.cancel``.

``Simulator.run`` and ``BatchSimulator.run`` poll the predicate before
every chunk of at most ``Simulator._NATIVE_CHUNK`` native steps (single
runs and native lanes alike) and before every step on the Python paths
(FastPath, reference interpreter, numpy batch engine) and in traced
runs.  A true poll raises :class:`SimulationCancelled`; a predicate
that never fires leaves the run bit-identical, and on native it keeps
the chunked ``nx_run`` loop (no per-step ``advance``).
"""

import numpy as np
import pytest

from repro.casestudy import ServoConfig, build_servo_model
from repro.model import (
    BatchScenario,
    BatchSimulator,
    SimulationCancelled,
    SimulationOptions,
    Simulator,
)
from repro.native import NativePath
from repro.native.executor import LaneGroups
from repro.obs import Tracer, use_tracer

from tests.native.conftest import require_cc

DT = 1e-4
#: 10001 steps: three native chunks, so a third poll exists
T_LONG = 1.0
CHUNK = Simulator._NATIVE_CHUNK
LANES = [(80.0, 4.0), (100.0, 6.0), (120.0, 8.0)]


@pytest.fixture(autouse=True)
def _substrate_from_options(monkeypatch):
    # each test picks its substrate through SimulationOptions
    monkeypatch.delenv("REPRO_NATIVE", raising=False)


class FlipsAt:
    """A cancel predicate that reads true from its ``k``-th call on."""

    def __init__(self, k: int):
        self.k = k
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.calls >= self.k


def servo_cm():
    return build_servo_model(ServoConfig(setpoint=100.0)).model.compile(DT)


def scenarios():
    return [BatchScenario({
        "controller.ref": {"value": sp},
        "controller.pid": {"gains": ServoConfig(bandwidth_hz=bw).gains()},
    }) for sp, bw in LANES]


#: single-run substrates: SimulationOptions kwargs, expected executor,
#: and the most steps a run makes between two polls
SINGLE = {
    "native": (dict(native=True), "native", CHUNK),
    "kernels": (dict(native=False), "kernels", 1),
    "reference": (dict(native=False, use_kernels=False), "reference", 1),
}


def single(substrate, t_final=T_LONG, **extra):
    kwargs, _, _ = SINGLE[substrate]
    if kwargs.get("native"):
        require_cc()
    return Simulator(servo_cm(), SimulationOptions(
        dt=DT, t_final=t_final, **kwargs, **extra))


def executor(sim):
    if sim.native_active:
        return "native"
    return "kernels" if sim.fast_path is not None else "reference"


def ensemble(native, t_final=T_LONG, **extra):
    if native:
        require_cc()
    return BatchSimulator(servo_cm(), scenarios(), SimulationOptions(
        dt=DT, t_final=t_final, native=native, **extra))


def assert_same(a, b):
    assert a.names == b.names and np.array_equal(a.t, b.t)
    for name in a.names:
        assert np.array_equal(a[name], b[name]), name


class TestCancelStopsTheRun:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("substrate", sorted(SINGLE))
    def test_single_run(self, substrate, k):
        cancel = FlipsAt(k)
        sim = single(substrate, cancel=cancel)
        with pytest.raises(SimulationCancelled) as exc:
            sim.run()
        assert executor(sim) == SINGLE[substrate][1]
        per_poll = SINGLE[substrate][2]
        assert cancel.calls == k  # no poll after the true one
        assert exc.value.step_index == sim.step_index
        assert (k - 1) * per_poll <= sim.step_index <= k * per_poll

    @pytest.mark.parametrize("k", [1, 3])
    def test_traced_native_run_polls_every_step(self, k):
        cancel = FlipsAt(k)
        with use_tracer(Tracer(enabled=True)):
            sim = single("native", cancel=cancel)
            with pytest.raises(SimulationCancelled):
                sim.run()
        assert sim.native_active
        assert cancel.calls == k
        assert sim.step_index == k - 1

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("native", [True, False], ids=["lanes", "numpy"])
    def test_ensemble(self, native, k):
        cancel = FlipsAt(k)
        sim = ensemble(native, cancel=cancel)
        with pytest.raises(SimulationCancelled) as exc:
            sim.run()
        assert sim.native_active is native
        per_poll = CHUNK if native else 1
        assert cancel.calls == k
        assert exc.value.step_index == sim.step_index
        assert (k - 1) * per_poll <= sim.step_index <= k * per_poll


class TestNeverFiring:
    @pytest.mark.parametrize("substrate", sorted(SINGLE))
    def test_single_run_is_bit_identical(self, substrate):
        t_final = T_LONG if SINGLE[substrate][1] == "native" else 0.02
        plain = single(substrate, t_final=t_final).run()
        polled = single(substrate, t_final=t_final,
                        cancel=lambda: False).run()
        assert_same(plain, polled)

    @pytest.mark.parametrize("native", [True, False], ids=["lanes", "numpy"])
    def test_ensemble_is_bit_identical(self, native):
        t_final = T_LONG if native else 0.02
        plain = ensemble(native, t_final=t_final).run()
        polled = ensemble(native, t_final=t_final, cancel=lambda: False).run()
        assert_same(plain, polled)
        for lane, ref in zip(polled.split(), plain.split()):
            assert_same(lane, ref)

    @staticmethod
    def count_calls(monkeypatch):
        """``advance`` calls, and native chunks run per lane
        (``run_chunk``: one per chunk of a single run, one per lane and
        chunk of native lanes)."""
        calls = {"advance": 0, "run_chunk": 0}

        def counted(cls, name):
            orig = getattr(cls, name)

            def wrapper(self, *args):
                calls[name] += 1
                return orig(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        counted(Simulator, "advance")
        counted(BatchSimulator, "advance")
        counted(NativePath, "run_chunk")
        lanes_run = LaneGroups._run

        def lane_chunks(self, first, end, *args):
            calls["run_chunk"] += end - first
            return lanes_run(self, first, end, *args)

        monkeypatch.setattr(LaneGroups, "_run", lane_chunks)
        return calls

    def test_native_run_stays_chunked(self, monkeypatch):
        sim = single("native", cancel=FlipsAt(10**9))
        sim.initialize()
        calls = self.count_calls(monkeypatch)
        result = sim.run()
        chunks = -(-len(result.t) // CHUNK)
        assert sim.native_active and chunks == 3
        assert calls == {"advance": 0, "run_chunk": chunks}
        assert sim.options.cancel.calls == chunks

    def test_native_lanes_stay_chunked(self, monkeypatch):
        sim = ensemble(True, cancel=FlipsAt(10**9))
        sim.initialize()
        calls = self.count_calls(monkeypatch)
        result = sim.run()
        chunks = -(-len(result.t) // CHUNK)
        assert sim.native_active and chunks == 3
        assert calls == {"advance": 0, "run_chunk": chunks * len(LANES)}
        assert sim.options.cancel.calls == chunks
