"""Simulators sharing one native artifact must not disturb each other.

The generated translation unit keeps every mutable buffer, and every
block parameter, in a per-instance context (``nx_ctx``) that Python
owns, and each artifact is opened once per process.  Two native
simulators of two design points of one model therefore share a library
handle but nothing they write or read as a parameter: stepped
interleaved on one thread, or run from two threads at once, each must
equal its own reference run at atol=0.  The two runs differ in setpoint,
PID bandwidth and length and start staggered, so a shared buffer or a
mis-bound parameter vector would show up as a divergence.
"""

from repro.model import Simulator, SimulationOptions

from tests.native.conftest import require_cc, run_threads
from tests.native.test_native_equivalence import assert_identical

DT = 1e-4
#: ((setpoint, PID bandwidth), t_final, steps the run is held back at
#: the start)
RUNS = (((100.0, 6.0), 0.05, 0), ((70.0, 9.0), 0.08, 7))


def servo_model(point):
    from repro.casestudy import ServoConfig, build_servo_model

    setpoint, bandwidth_hz = point
    return build_servo_model(
        ServoConfig(setpoint=setpoint, bandwidth_hz=bandwidth_hz)).model


def options(t_final, native):
    return SimulationOptions(dt=DT, t_final=t_final, native=native,
                             use_kernels=native, log_all_signals=True)


def reference(point, t_final):
    return Simulator(servo_model(point).compile(DT),
                     options(t_final, False)).run()


def bound_pair():
    sims = []
    for point, t_final, _lag in RUNS:
        sim = Simulator(servo_model(point).compile(DT), options(t_final, True))
        sim.initialize()
        assert sim.native_active, sim.native_fallback_reason
        sims.append(sim)
    a, b = (s.native_path for s in sims)
    assert a.program.params != b.program.params
    assert a.so_path == b.so_path
    assert a.lib is b.lib  # one handle per artifact per process
    return sims


def n_steps(sim):
    return int(round(sim.options.t_final / sim.options.dt)) + 1


def step_all(sim):
    for _ in range(n_steps(sim)):
        sim.advance()


def check_against_references(sims):
    for sim, (point, t_final, _lag) in zip(sims, RUNS):
        assert_identical(reference(point, t_final), sim.result())


class TestSharedArtifact:
    def test_interleaved_on_one_thread(self):
        require_cc()
        sims = bound_pair()
        left = [n_steps(s) for s in sims]
        tick = 0
        while any(left):
            for k, (sim, (_p, _t, lag)) in enumerate(zip(sims, RUNS)):
                if left[k] and tick >= lag:
                    sim.advance()
                    left[k] -= 1
            tick += 1
        check_against_references(sims)

    def test_per_step_from_two_threads(self):
        require_cc()
        sims = bound_pair()
        run_threads([(step_all, s) for s in sims])
        check_against_references(sims)

    def test_whole_loop_from_two_threads(self):
        """``run()`` executes in one ``nx_run`` call with the GIL
        released, so the two loops run truly in parallel."""
        require_cc()
        sims = bound_pair()
        results = [None, None]

        def run(k):
            results[k] = sims[k].run()

        run_threads([(run, k) for k in range(2)])
        for res, (point, t_final, _lag) in zip(results, RUNS):
            assert_identical(reference(point, t_final), res)
