"""Module-level builders shared by the SimServe tests.

These must live in an importable module (not a test body) so requests
carrying them stay picklable for the process backend — the same contract
:meth:`repro.faults.FaultCampaign.run` imposes on ``make_pil``.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np

from repro.model import Model, SimulationResult
from repro.model.library import Constant, Gain, Integrator, Scope, Sum


def build_loop_model(gain: float = 2.0, setpoint: float = 1.0) -> Model:
    """A tiny closed loop: setpoint -> P gain -> integrator plant -> scope."""
    m = Model("loop")
    ref = m.add(Constant("ref", value=setpoint))
    err = m.add(Sum("err", signs="+-"))
    ctrl = m.add(Gain("ctrl", gain=gain))
    plant = m.add(Integrator("plant"))
    scope = m.add(Scope("y", label="y"))
    m.connect(ref, err, 0, 0)
    m.connect(plant, err, 0, 1)
    m.connect(err, ctrl)
    m.connect(ctrl, plant)
    m.connect(plant, scope)
    return m


class Gate:
    """Holds a worker inside a job until the test releases it.

    A test that needs "the worker is busy" must not rely on a run being
    slow: a 10 s loop-model job takes milliseconds on the native loop.
    :func:`gated_loop_model` sets :attr:`entered` and then blocks the
    worker until :meth:`release`.  Used as a context manager inside the
    service's ``with`` (``with SimServe(...) as svc, Gate() as gate:``)
    it is released on the way out, before the service waits for its
    workers, so a failing assertion does not leave a worker held.
    """

    def __init__(self):
        self.entered = threading.Event()
        self._released = threading.Event()

    def hold(self, timeout: float = 60.0) -> None:
        self.entered.set()
        if not self._released.wait(timeout):
            raise TimeoutError("gate never released")

    def release(self) -> None:
        self._released.set()

    def __enter__(self) -> "Gate":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def gated_loop_model(gate: Gate, **kwargs) -> Model:
    """:func:`build_loop_model`, once ``gate`` is released (a MIL builder
    for the thread backend only: a :class:`Gate` does not pickle)."""
    gate.hold()
    return build_loop_model(**kwargs)


def crashing_builder(**_kwargs) -> Model:
    raise RuntimeError("builder exploded")


def hard_crash_builder(**_kwargs) -> Model:
    """Kills the worker *process* outright (no exception, no cleanup) —
    the BrokenProcessPool path, not the job-exception path."""
    import os

    os._exit(13)


def crash_in_child_builder(submitter_pid: int, **kwargs) -> Model:
    """:func:`build_loop_model` in the submitting process, so
    ``coalesce_key`` can resolve the model at submit; in any other
    process (a process-pool child running the job) it kills that process
    outright, like :func:`hard_crash_builder`."""
    import os

    if os.getpid() != submitter_pid:
        os._exit(13)
    return build_loop_model(**kwargs)


def make_fake_pil(reliable: bool, n: int = 12, crash: bool = False):
    """A stub PIL rig: instant 'run', real-shaped result object."""
    return _FakePil(reliable, n=n, crash=crash)


class _FakePil:
    def __init__(self, reliable: bool, n: int = 12, crash: bool = False):
        self.reliable = reliable
        self.n = n
        self.crash = crash
        self.fault_plan = None

    def run(self, t_final: float):
        if self.crash:
            raise RuntimeError("rig crashed mid-run")
        t = np.linspace(0.0, t_final, self.n)
        y = np.full(self.n, 0.0 if not self.reliable else 99.0)
        return SimpleNamespace(
            result=SimulationResult(t, {"speed": y}),
            reliable=self.reliable,
            steps=self.n,
            crc_errors=0,
            retransmits=1,
            arq_timeouts=0,
            send_failures=0,
            duplicates=0,
            recoveries=0,
            watchdog_resets=0,
            max_consecutive_loss=self.n if not self.reliable else 0,
            safe_state_steps=self.n if not self.reliable else 0,
            mean_data_latency=0.0,
            max_data_latency=0.0,
        )
