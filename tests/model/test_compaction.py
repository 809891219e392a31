"""Lane compaction: fused trigger dispatch vs the per-lane fallback.

The batch engine's event path used to drop to a per-lane Python loop the
moment any lane's trigger fired.  Compaction plans a
:class:`~repro.model.kernels.FusedTriggerKernel` for feed-forward affine
function-call subsystems and dispatches fired lanes through it —
full-width when every lane fired, re-packed onto the fired subset when
the event diverged.  Every test here holds the engine to the same
contract as the rest of the batch suite: bit-identical lanes
(``np.array_equal``, no tolerance) against serial reference runs, with
the compaction accounting proving which dispatch path actually ran.
"""

import numpy as np

from repro.model import BatchSimulator, Model, SimulationOptions
from repro.model.kernels import plan_fused_trigger
from repro.model.library import (
    Constant,
    FunctionCallSubsystem,
    Gain,
    Inport,
    Outport,
    Saturation,
    Scope,
)

from tests.model.test_batch import (
    FireAbove,
    assert_lanes_identical,
    diverging_event_model,
    run_pair,
)

T_FINAL = 0.02
DT = 1e-3


def run_batch(factory, scenarios, **sim_kwargs):
    """One batched run, compaction on or off, pinned to the numpy engine
    (the subject here)."""
    sim = BatchSimulator(
        factory().compile(DT),
        scenarios,
        SimulationOptions(dt=DT, t_final=T_FINAL, log_all_signals=True,
                          native=False),
        **sim_kwargs,
    )
    return sim, sim.run()


def serial_reference(factory, scenarios):
    serial, _sim, _batched = run_pair(factory, scenarios, t_final=T_FINAL)
    return serial


def saturating_event_model():
    """Like ``diverging_event_model`` but with a non-affine ISR body.

    ``Saturation`` has no affine spec, so ``plan_fused_trigger`` must
    refuse to fuse the subsystem and dispatch falls back per-lane.
    """
    m = Model("diverge_sat")
    m.add(Constant("level", value=0.0))
    m.add(FireAbove("det", threshold=1.0))
    fc = FunctionCallSubsystem("isr")
    i = fc.inner.add(Inport("in0", index=0))
    s = fc.inner.add(Saturation("sat", lower=-1.0, upper=1.0))
    o = fc.inner.add(Outport("out0", index=0))
    fc.inner.connect(i, s)
    fc.inner.connect(s, o)
    m.add(fc)
    m.connect("level", "det")
    m.connect("det", "isr")
    m.connect_event("det", "isr")
    m.connect("isr", m.add(Scope("sc", label="isr_y")))
    return m


ALL_FIRE = [{"level": {"value": v}} for v in (1.5, 2.0, 3.0, 4.0)]
MIXED = [{"level": {"value": v}} for v in (0.0, 0.5, 2.0, 3.0)]


class TestFusedEngagement:
    def test_all_lanes_fire_full_width_fused(self):
        serial = serial_reference(diverging_event_model, ALL_FIRE)
        sim, batched = run_batch(diverging_event_model, ALL_FIRE)
        assert_lanes_identical(serial, batched)
        assert sim.plan_stats["fused_triggers"] == 1
        stats = sim.compaction_stats
        assert stats["fused_dispatches"] > 0
        assert stats["perlane_dispatches"] == 0
        # every lane fired every time: nothing was diverged to recover
        assert stats["recovered_lane_steps"] == 0

    def test_diverged_subset_recovers_lane_steps(self):
        serial = serial_reference(diverging_event_model, MIXED)
        sim, batched = run_batch(diverging_event_model, MIXED)
        assert_lanes_identical(serial, batched)
        stats = sim.compaction_stats
        assert stats["recovered_lane_steps"] > 0
        assert stats["compacted_dispatches"] > 0
        assert stats["perlane_dispatches"] == 0
        assert sim.lanes_diverged > 0

    def test_call_counts_match_serial_semantics(self):
        # a fused dispatch must keep each lane clone's call_count exactly
        # as if it had been dispatched alone
        sim, _ = run_batch(diverging_event_model, MIXED)
        # fires once at the t=0 output pass, then once per major step
        n_calls = int(round(T_FINAL / DT)) + 1
        counts = [clone.call_count for clone, _ctx in sim._trig["isr"]]
        expected = [
            n_calls if ov["level"]["value"] > 1.0 else 0 for ov in MIXED
        ]
        assert counts == expected


class TestFallbacks:
    def test_compaction_off_is_pure_perlane(self):
        serial = serial_reference(diverging_event_model, MIXED)
        sim, batched = run_batch(
            diverging_event_model, MIXED, compaction=False
        )
        assert_lanes_identical(serial, batched)
        assert sim.plan_stats["fused_triggers"] == 0
        stats = sim.compaction_stats
        assert stats["perlane_dispatches"] > 0
        assert stats["fused_dispatches"] == 0
        assert stats["recovered_lane_steps"] == 0

    def test_nonaffine_isr_never_fuses(self):
        serial = serial_reference(saturating_event_model, MIXED)
        sim, batched = run_batch(saturating_event_model, MIXED)
        assert_lanes_identical(serial, batched)
        assert sim.plan_stats["fused_triggers"] == 0
        stats = sim.compaction_stats
        assert stats["fused_dispatches"] == 0
        assert stats["perlane_dispatches"] > 0

    def test_overridden_trigger_target_falls_back(self):
        # any scenario override touching the trigger target means lanes
        # may disagree on its behaviour — the planner must not fuse it
        scenarios = [
            {"level": {"value": 2.0}},
            {"level": {"value": 3.0}, "isr": {"name": "isr"}},
        ]
        serial = serial_reference(diverging_event_model, scenarios)
        sim, batched = run_batch(diverging_event_model, scenarios)
        assert_lanes_identical(serial, batched)
        assert "isr" not in sim._trig_fused
        assert sim.compaction_stats["perlane_dispatches"] > 0


def compiled_isr(factory=diverging_event_model):
    """The FCS block plus its outer signal rows from a real compile.

    ``plan_fused_trigger`` reads the subsystem's inner compiled model
    (``block._cm``), which only exists after the outer model compiles.
    """
    cm = factory().compile(DT)
    block = cm.nodes["isr"]
    in_sigs = list(cm.input_map["isr"])
    out_sigs = [cm.sig_index[("isr", p)] for p in range(block.n_out)]
    return cm, block, in_sigs, out_sigs


class TestPlanner:
    def test_plan_refuses_non_subsystem(self):
        assert plan_fused_trigger(Gain("g", gain=2.0), [0], [1], 4) is None

    def test_plan_refuses_nonaffine_inner(self):
        _cm, block, in_sigs, out_sigs = compiled_isr(saturating_event_model)
        assert plan_fused_trigger(block, in_sigs, out_sigs, 4) is None

    def test_plan_fuses_affine_subsystem(self):
        cm, block, in_sigs, out_sigs = compiled_isr()
        kern = plan_fused_trigger(block, in_sigs, out_sigs, 4)
        assert kern is not None
        S = np.zeros((cm.n_signals, 4))
        S[in_sigs[0]] = [1.0, 2.0, 3.0, 4.0]
        kern.apply(S, None, 4)
        assert np.array_equal(S[out_sigs[0]], [10.0, 20.0, 30.0, 40.0])

    def test_plan_compacted_subset(self):
        cm, block, in_sigs, out_sigs = compiled_isr()
        kern = plan_fused_trigger(block, in_sigs, out_sigs, 4)
        S = np.zeros((cm.n_signals, 4))
        S[in_sigs[0]] = [1.0, 2.0, 3.0, 4.0]
        kern.apply(S, np.array([1, 3], dtype=np.intp), 2)
        # only the fired lanes move
        assert np.array_equal(S[out_sigs[0]], [0.0, 20.0, 0.0, 40.0])
