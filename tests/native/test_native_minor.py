"""What a native RK4 step may leave out of its minor stages.

A native TU evaluates, at RK4 stages 2 and 3, only the minor blocks some
derivative reads (the derivative closure); the rest of the minor pass
runs at stage 4 of the last step of each ``nx_run`` call.  What a caller
can observe is the state an ``nx_run`` call returns with, so every test
here compares that state — ``sim.signals``, ``sim.x`` and every logged
signal — byte for byte (``tobytes()``, so the sign of a zero counts)
with the reference interpreter's: after a whole run, after chunks of
seven steps, after a cancel between chunks, after every ``advance()`` of
a PIL plant, and in each native lane.
"""

import numpy as np
import pytest

from repro.model import BatchSimulator, Model, SimulationOptions, Simulator
from repro.model import SimulationCancelled
from repro.model.library import Scope, SineWave, StateSpace
from repro.native import generate_program, generate_tu
from repro.native.emit import _deriv_closure

from tests.model.test_kernels import LIBRARY, harness
from tests.native.conftest import require_cc
from tests.native.test_native_params import servo_factory

SERVO = servo_factory(100.0, 6.0)

#: ``(factory, dt, t_final)`` per case: every kernel-matrix harness model
#: and the servo
CASES = {key: (harness(make), 1e-3, 0.05) for key, make in LIBRARY.items()}
CASES["servo"] = (SERVO, 1e-4, 0.02)


def _sim(factory, dt, t_final, solver, reference, **opts):
    return Simulator(
        factory().compile(dt),
        SimulationOptions(dt=dt, t_final=t_final, solver=solver,
                          log_all_signals=True, use_kernels=not reference,
                          native=not reference, **opts),
    )


def state_bytes(sim, res):
    """What a caller can read after a run: the signal and state vectors
    and every logged row, as bytes."""
    out = {"signals": np.asarray(sim.signals, dtype=np.float64).tobytes(),
           "x": np.asarray(sim.x, dtype=np.float64).tobytes(),
           "t": res.t.tobytes()}
    out.update({name: res[name].tobytes() for name in res.names})
    return out


def assert_same_bytes(ref, got):
    assert ref.keys() == got.keys()
    differ = [k for k in ref if ref[k] != got[k]]
    assert not differ, f"differs from the reference in bytes: {differ}"


class TestWholeRun:
    """After ``run()``, every observable byte is the reference's."""

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_signals_states_and_log(self, key, solver):
        require_cc()
        factory, dt, t_final = CASES[key]
        ref = _sim(factory, dt, t_final, solver, reference=True)
        sim = _sim(factory, dt, t_final, solver, reference=False)
        ref_bytes = state_bytes(ref, ref.run())
        got = state_bytes(sim, sim.run())
        assert sim.native_active or key == "white_noise", \
            sim.native_fallback_reason
        assert_same_bytes(ref_bytes, got)


class TestChunkEnds:
    """Every chunk's end is observable: small chunks, and a cancel
    between two of them."""

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    @pytest.mark.parametrize("key", ["servo", "transfer_function", "sine"])
    def test_chunks_of_seven(self, key, solver, monkeypatch):
        require_cc()
        monkeypatch.setattr(Simulator, "_NATIVE_CHUNK", 7)
        factory, dt, t_final = CASES[key]
        ref = _sim(factory, dt, t_final, solver, reference=True)
        sim = _sim(factory, dt, t_final, solver, reference=False)
        ref_bytes = state_bytes(ref, ref.run())
        got = state_bytes(sim, sim.run())
        assert sim.native_active, sim.native_fallback_reason
        assert_same_bytes(ref_bytes, got)

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_cancel_at_a_chunk_boundary(self, solver, monkeypatch):
        require_cc()
        monkeypatch.setattr(Simulator, "_NATIVE_CHUNK", 7)
        factory, dt, t_final = CASES["servo"]
        polls = []

        def cancel():
            polls.append(1)
            return len(polls) == 4  # before the fourth chunk

        sim = _sim(factory, dt, t_final, solver, reference=False,
                   cancel=cancel)
        with pytest.raises(SimulationCancelled) as info:
            sim.run()
        assert sim.native_active, sim.native_fallback_reason
        assert info.value.step_index == sim.step_index == 21
        ref = _sim(factory, dt, t_final, solver, reference=True)
        ref.initialize()
        for _ in range(sim.step_index):
            ref.advance()
        assert_same_bytes(state_bytes(ref, ref.result()),
                          state_bytes(sim, sim.result()))


class TestPlantAdvance:
    """A PIL plant: one ``advance()`` per step, its encoder line read
    with ``read_input`` after each, as the PIL host does."""

    def _plant(self, reference):
        from repro.sim import split_plant_model

        plant, proxy = split_plant_model(SERVO(), "controller")
        sim = Simulator(plant.compile(1e-4), SimulationOptions(
            dt=1e-4, t_final=0.2, log_all_signals=True,
            use_kernels=not reference, native=not reference))
        sim.initialize()
        return sim, proxy

    def test_encoder_line_after_every_step(self):
        require_cc()
        runs = []
        for reference in (True, False):
            sim, proxy = self._plant(reference)
            seen = []
            for k in range(2001):
                proxy.set_output(0, 0.5 + 0.4 * np.sin(k / 97.0))
                sim.advance()
                seen.append([sim.read_input(proxy.name, p)
                             for p in range(proxy.n_in)])
            runs.append((np.array(seen), state_bytes(sim, sim.result())))
            assert sim.native_active is not reference, \
                sim.native_fallback_reason
        (ref_seen, ref_bytes), (seen, got) = runs
        assert ref_seen.tobytes() == seen.tobytes()
        assert_same_bytes(ref_bytes, got)


def _state_space(d):
    def build():
        m = Model("ss")
        src = m.add(SineWave("d0", amplitude=2.0, frequency=25.0))
        ss = m.add(StateSpace("b", A=[[-40.0]], B=[[40.0]], C=[[1.0]], D=[[d]]))
        m.connect(src, ss)
        m.connect(ss, m.add(Scope("sc", label="y")))
        return m

    return build


class TestLanes:
    """Each native lane ends a run in its single run's state."""

    def _single(self, factory, dt, t_final, overrides):
        cm = factory().compile(dt)
        for qname, attrs in overrides.items():
            for attr, value in attrs.items():
                setattr(cm.nodes[qname], attr, value)
        sim = Simulator(cm, SimulationOptions(
            dt=dt, t_final=t_final, use_kernels=False, native=False))
        sim.run()
        return sim

    def _assert_lanes_end_as_single_runs(self, factory, dt, t_final, lanes):
        batch = BatchSimulator(factory().compile(dt), lanes, SimulationOptions(
            dt=dt, t_final=t_final, native=True))
        batch.run()
        assert batch.native_active, batch.native_fallback_reason
        for b, overrides in enumerate(lanes):
            one = self._single(factory, dt, t_final, overrides)
            assert (np.ascontiguousarray(batch.S[:, b]).tobytes()
                    == np.asarray(one.signals).tobytes()), f"lane {b} signals"
            assert (np.ascontiguousarray(batch.X[:, b]).tobytes()
                    == one.x.tobytes()), f"lane {b} states"

    def test_servo(self):
        require_cc()
        from tests.native.test_native_lanes import POINTS, sweep_scenarios

        lanes = [s.overrides for s in sweep_scenarios(POINTS[:4])]
        self._assert_lanes_end_as_single_runs(SERVO, 1e-4, 0.02, lanes)

    @pytest.mark.parametrize("base_d", [0.0, 0.5])
    def test_state_space_lanes_setting_d(self, base_d):
        """``D`` decides the block's feed-through, not what a derivative
        reads: lanes with ``D`` zero and non-zero share one TU."""
        require_cc()
        lanes = [{"b": {"D": np.array([[d]])}} for d in (0.0, 0.5, 0.0, -1.5)]
        self._assert_lanes_end_as_single_runs(_state_space(base_d), 1e-3,
                                              0.05, lanes)


def _minor_body(tu):
    """The statements of ``out_minor``: ``(unguarded, guarded)`` lines."""
    lines = tu.split("static void out_minor(", 1)[1].split("\n}\n", 1)[0]
    unguarded, guarded, depth = [], [], 0
    for ln in lines.splitlines()[3:]:  # signature, brace, NX_LOCALS
        if ln == "  if (full) {":
            depth = 1
        elif ln == "  }" and depth:
            depth = 0
        elif ln.strip() and not ln.strip().startswith("(void)"):
            (guarded if depth else unguarded).append(ln)
    return unguarded, guarded


def _tu(factory, dt):
    return generate_tu(Simulator(factory().compile(dt), SimulationOptions(
        dt=dt, t_final=0.01, native=False)))


class TestMinorPassText:
    """What the TU's stages 2-3 evaluate."""

    def test_servo_stages_two_and_three_evaluate_no_block(self):
        unguarded, guarded = _minor_body(_tu(SERVO, 1e-4))
        assert unguarded == []
        # six blocks, all at stage 4 only: the motor, the encoder, QD1,
        # the tacho chain's two affine rows and its clip
        chunks = [ln for ln in guarded if ln.startswith("    { /* ")]
        rows = [ln for ln in guarded if ln.startswith("    S[")]
        assert [ln.split("/* ")[1] for ln in chunks] == [
            "plant.motor */", "plant.encoder */", "controller.QD1 */",
            "plant.tacho_clip */"]
        assert len(rows) == 2

    def test_split_plant_stages_two_and_three_evaluate_proxy_and_stage(self):
        """The PIL plant: the motor's derivative reads the power stage,
        which reads the controller proxy, whose held outputs read none of
        its inputs, so the closure stops at the proxy and the encoder and
        the motor outputs it is wired to run at stage 4 only."""
        from repro.sim import split_plant_model

        plant, _proxy = split_plant_model(SERVO(), "controller")
        unguarded, guarded = _minor_body(_tu(lambda: plant, 1e-4))
        blocks = [ln.split("/* ")[1] for ln in unguarded
                  if ln.startswith("  { /* ")]
        assert blocks == ["controller */", "plant.stage */"]
        assert not [ln for ln in unguarded if ln.startswith("  S[")]
        chunks = [ln.split("/* ")[1] for ln in guarded
                  if ln.startswith("    { /* ")]
        assert chunks == ["plant.motor */", "plant.encoder */",
                          "plant.tacho_clip */"]

    def test_a_block_a_derivative_reads_runs_at_every_stage(self):
        unguarded, guarded = _minor_body(_tu(CASES["transfer_function"][0],
                                             1e-3))
        assert "  { /* d0 */" in unguarded  # the sine into the plant
        assert "    { /* b */" in guarded  # the plant's own output

    @pytest.mark.parametrize("key", sorted(set(CASES) - {"white_noise"}))
    def test_stateless_outputs_read_only_feed_through_inputs(self, key):
        """What the pruning rests on: a block without a derivative reads
        only its feed-through inputs in its outputs, so the next major
        pass rewrites a pruned output before anything reads it."""
        factory, dt, _t_final = CASES[key]
        sim = Simulator(factory().compile(dt),
                        SimulationOptions(dt=dt, t_final=0.01, native=False))
        sim.initialize()
        program = generate_program(sim, sim.fast_path.plan)
        cm = sim.cm
        for qname, sites in program.lowering.sites.items():
            if cm.state_count[qname]:
                continue
            block, ins = cm.nodes[qname], cm.input_map[qname]
            text = "\n".join(ln for method, _tmp, lines in sites
                             if method == "outputs" for ln in lines)
            for sig in ins:
                if not any(s == sig and block.feeds_through(p)
                           for p, s in enumerate(ins)):
                    assert f"S[{sig}]" not in text, (qname, sig)

    @pytest.mark.parametrize("d", [0.0, 0.5])
    def test_closure_does_not_depend_on_parameter_values(self, d):
        sim = Simulator(_state_space(d)().compile(1e-3),
                        SimulationOptions(dt=1e-3, t_final=0.01, native=False))
        sim.initialize()
        assert _deriv_closure(sim.cm, sim.fast_path.plan) == {"d0"}
