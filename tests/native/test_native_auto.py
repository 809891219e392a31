"""The default ``native="auto"`` rung binds a built artifact at any length.

A run below :data:`~repro.model.engine.NATIVE_AUTO_THRESHOLD` block-steps
takes the ``"reuse"`` policy: it binds the artifact when it is already
built, and otherwise starts the single-flight background build and runs
on Python as ``compile_pending``.  A run at or above the threshold waits
for ``cc`` and binds on its first run.  Every native run stays
bit-identical (atol=0) to ``native=False``.
"""

from repro.model import Simulator, SimulationOptions
from repro.model.engine import NATIVE_AUTO_THRESHOLD
from repro.native import native_cache_stats, wait_pending

from tests.model.test_kernels import LIBRARY, harness
from tests.native.conftest import require_cc
from tests.native.test_native_equivalence import assert_identical
from tests.native.test_native_params import affine_chain, servo_factory

DT = 1e-4
#: the SimServe ``serve_mixed`` MIL shape: 201 servo steps
SHORT = 0.02
#: sine -> Gain -> Bias -> scope: every block is scheduled
CHAIN_BLOCKS = 4


def servo_sim(native="auto"):
    return Simulator(
        servo_factory(100.0, 6.0)().compile(DT),
        SimulationOptions(dt=DT, t_final=SHORT, native=native,
                          log_all_signals=True),
    )


def chain_sim(n_steps):
    """An affine chain run of ``n_steps`` major steps."""
    return Simulator(affine_chain(3.0, 0.125)().compile(DT),
                     SimulationOptions(dt=DT, t_final=(n_steps - 1) * DT))


class TestAutoRung:
    def test_short_cold_run_is_compile_pending(self):
        require_cc()
        assert wait_pending(120)
        misses = native_cache_stats()["misses"]
        sim = servo_sim()
        sim.run()
        assert not sim.native_active
        assert sim.native_fallback_reason == "compile_pending"
        assert sim.fast_path is not None
        assert wait_pending(120)
        assert native_cache_stats()["misses"] == misses + 1

    def test_short_run_binds_a_built_artifact(self):
        require_cc()
        servo_sim().run()
        assert wait_pending(120)
        before = native_cache_stats()
        sim = servo_sim()
        result = sim.run()
        assert sim.native_active, sim.native_fallback_reason
        assert sim.fast_path is None
        after = native_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert_identical(servo_sim(native=False).run(), result)

    def test_run_at_the_threshold_binds_on_its_first_run(self):
        require_cc()
        assert wait_pending(120)
        misses = native_cache_stats()["misses"]
        n_steps = NATIVE_AUTO_THRESHOLD // CHAIN_BLOCKS
        sim = chain_sim(n_steps)
        sim.initialize()
        assert len(sim._sched) == CHAIN_BLOCKS
        assert sim.native_active, sim.native_fallback_reason
        assert native_cache_stats()["misses"] == misses + 1

    def test_one_step_below_the_threshold_does_not_wait(self):
        require_cc()
        sim = chain_sim(NATIVE_AUTO_THRESHOLD // CHAIN_BLOCKS - 1)
        sim.initialize()
        assert sim.native_fallback_reason == "compile_pending"
        assert wait_pending(120)

    def test_env_off_keeps_a_short_run_on_python(self, monkeypatch):
        require_cc()
        servo_sim().run()
        assert wait_pending(120)
        hits = native_cache_stats()["hits"]
        monkeypatch.setenv("REPRO_NATIVE", "off")
        sim = servo_sim()
        sim.run()
        assert not sim.native_active
        assert sim.native_fallback_reason == "disabled"
        assert native_cache_stats()["hits"] == hits

    def test_short_run_of_a_refused_plan_reports_plan_refused(self):
        sim = Simulator(harness(LIBRARY["white_noise"])().compile(1e-3),
                        SimulationOptions(dt=1e-3, t_final=0.02))
        sim.run()
        assert not sim.native_active
        assert sim.native_fallback_reason.startswith("plan_refused")
