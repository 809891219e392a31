"""Pinned digests of the MCU timeline.

Each rig runs a short closed loop on the MCU simulator and hashes what
its timeline produced: every CPU execution record (times as
``float.hex``), the ``PILResult`` ledger, and the plant trajectory.  A
change to the time or the order of any event — a schedule, an interrupt
request, a wire byte, a decoded frame — changes the digest.

The rigs cover the paper's PIL loop on RS-232 (clean, and under ARQ,
watchdog and a fault plan mixing burst errors, a dropout and a step
overrun), PIL over SPI and over CAN on the Linux simulator target, HIL,
and the A1 preemptive-dispatch rig.  The plant substrate (native or
Python) must not matter.

To print the digests of the current code::

    PYTHONPATH=src python tests/sim/test_timeline_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

T_FINAL = 0.1

#: sha256 per rig; regenerate only for an intended change of behaviour
EXPECTED = {
    "a1_preemptive": "251d4c204bc51ef4d3617f0b7922915e5d57a51e0604f4726d06fe8038984c4b",
    "can_linux": "4221d8d6f380ad162b36a46207044e4a033eb7500b8573d64e9852dd443117df",
    "hil": "906272f56fc1ff04ddab14b6db170537856221d0975979f8786c5bb5ffeedaf2",
    "rs232_arq_faults": "2ca3a83db2db73610a25f6df398d289697a5e70e6b5c842d050e66f9c577bbef",
    "rs232_clean": "42f233447cf478e619b034a5e02c4f52c288553ed9aa20a7fd41d87f2da65deb",
    "spi_linux": "cdfc850ea801d6d5c1d0e809f31988c7ff2c097734eebf54ae100111c4b052d7",
}


def _servo_app(**target_kw):
    from repro.casestudy import ServoConfig, build_servo_model
    from repro.core import PEERTTarget

    sm = build_servo_model(ServoConfig(setpoint=100.0))
    return PEERTTarget(sm.model, **target_kw).build()


def _pil(**kw):
    from repro.sim import PILSimulator

    return PILSimulator(_servo_app(), plant_dt=1e-4, **kw)


def _ran(pil):
    result = pil.run(T_FINAL)
    return pil.device, result, None


def rig_rs232_clean():
    return _ran(_pil(baud=115200))


def rig_rs232_arq_faults():
    from repro.faults import BurstErrors, FaultPlan, LineDropout, StepOverrun
    from repro.sim import LossPolicy

    pil = _pil(
        baud=460800,
        reliable=True,
        loss_policy=LossPolicy(mode="safe", max_consecutive=5, default_safe=0.5),
        watchdog_timeout=8e-3,
    )
    FaultPlan(
        [
            BurstErrors(start=0.01, duration=0.03, rate=0.2),
            StepOverrun(start=0.035, duration=0.015, factor=20.0),
            LineDropout(start=0.06, duration=0.015),
        ],
        seed=21,
    ).attach(pil)
    return _ran(pil)


def rig_spi_linux():
    from repro.sim import LINUX_TARGET

    return _ran(_pil(link="spi", target=LINUX_TARGET))


def rig_can_linux():
    from repro.sim import LINUX_TARGET, CANAdapter

    adapter = CANAdapter(bitrate=500e3, app_traffic=[(0x050, 8, 0.7e-3)])
    return _ran(_pil(link=adapter, target=LINUX_TARGET))


def rig_hil():
    from repro.core.blocks import PEBlockMode
    from repro.sim import HILSimulator

    app = _servo_app()
    app.deploy(PEBlockMode.HW)
    return app.device, None, HILSimulator(app, plant_dt=1e-4).run(T_FINAL)


def rig_a1_preemptive():
    """The A1 ablation's rig: a long low-priority background ISR against
    the control tick, with preemptive dispatch (nested handlers)."""
    from repro.core.blocks import PEBlockMode
    from repro.mcu.interrupts import DispatchMode, InterruptSource
    from repro.sim import HILSimulator

    app = _servo_app(dispatch_mode=DispatchMode.PREEMPTIVE)
    device = app.deploy(PEBlockMode.HW)
    device.intc.register(InterruptSource("background", priority=9, cycles=25_000))
    t = 3.3e-3 / 2
    while t < T_FINAL:
        device.schedule(t, lambda: device.intc.request("background"))
        t += 3.3e-3
    return device, None, HILSimulator(app, plant_dt=1e-4).run(T_FINAL)


RIGS = {
    "rs232_clean": rig_rs232_clean,
    "rs232_arq_faults": rig_rs232_arq_faults,
    "spi_linux": rig_spi_linux,
    "can_linux": rig_can_linux,
    "hil": rig_hil,
    "a1_preemptive": rig_a1_preemptive,
}


def _value(v) -> str:
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_value(x) for x in v) + "]"
    return repr(v)


def digest(device, pil_result, sim_result) -> str:
    h = hashlib.sha256()
    cpu = device.cpu
    for r in cpu.records:
        h.update(
            f"{r.name}|{r.t_request.hex()}|{r.t_start.hex()}|{r.t_end.hex()}|"
            f"{float(r.cycles).hex()}|{r.preemptions}|{r.nesting_depth}\n".encode()
        )
    h.update(f"busy={cpu.busy_time.hex()} nest={cpu.max_nesting}\n".encode())
    if pil_result is not None:
        for f in dataclasses.fields(pil_result):
            if f.name != "result":
                h.update(f"{f.name}={_value(getattr(pil_result, f.name))}\n".encode())
        sim_result = pil_result.result
    h.update(np.ascontiguousarray(sim_result.t, dtype=np.float64).tobytes())
    for name in sim_result.names:
        h.update(name.encode())
        h.update(np.ascontiguousarray(sim_result[name], dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("rig", sorted(RIGS))
def test_timeline_digest(rig):
    assert digest(*RIGS[rig]()) == EXPECTED[rig]


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    for name in sorted(RIGS):
        print(f"    {name!r}: {digest(*RIGS[name]())!r},")
