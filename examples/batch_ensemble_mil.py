#!/usr/bin/env python
"""Ensemble MIL: 32 controller-gain variants in one batched run.

The paper's tuning loop (section 5) evaluates the DC-servo cascade over
and over with different PID settings.  Serially that costs one full
simulation per variant; the :class:`~repro.model.BatchSimulator` runs
all of them at once — as native lanes (one compiled artifact, one
context per variant) when a C compiler is present, else by carrying the
whole ensemble as a numpy batch axis — while keeping each lane
bit-identical to its serial run.

This example sweeps ``kp`` over 32 scale factors, times the serial loop
(kernel fast path, compiled model reused — the strongest sequential
baseline) against the batched run, and verifies the lanes agree to the
last bit before printing the step-response scores.

Run:  PYTHONPATH=src python examples/batch_ensemble_mil.py
"""

import dataclasses
import time

import numpy as np

from repro.analysis import step_metrics
from repro.casestudy import ServoConfig, build_servo_model
from repro.model import (
    BatchScenario,
    BatchSimulator,
    SimulationOptions,
    Simulator,
)

DT = 1e-4
T_FINAL = 0.25
N_LANES = 32
SETPOINT = 100.0


def main() -> None:
    base = build_servo_model(ServoConfig(setpoint=SETPOINT)).pid_block.gains
    scales = [0.4 + 1.2 * k / (N_LANES - 1) for k in range(N_LANES)]
    scenarios = [
        BatchScenario(
            {"controller.pid": {"gains": dataclasses.replace(base, kp=base.kp * s)}},
            label=f"kp x{s:.2f}",
        )
        for s in scales
    ]

    # serial reference: one compiled model, one kernel-path run per variant
    cm = build_servo_model(ServoConfig(setpoint=SETPOINT)).model.compile(DT)
    t0 = time.perf_counter()
    serial = []
    for sc in scenarios:
        for qname, attrs in sc.overrides.items():
            for attr, value in attrs.items():
                setattr(cm.nodes[qname], attr, value)
        serial.append(
            Simulator(
                cm, SimulationOptions(dt=DT, t_final=T_FINAL, use_kernels=True,
                                      native=False)
            ).run()
        )
    serial_s = time.perf_counter() - t0

    # batched ensemble: plan + clone + run, all inside the timed window
    cm = build_servo_model(ServoConfig(setpoint=SETPOINT)).model.compile(DT)
    t0 = time.perf_counter()
    sim = BatchSimulator(cm, scenarios, SimulationOptions(dt=DT, t_final=T_FINAL))
    batched = sim.run()
    batch_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(ref[name], batched.lane(b)[name])
        for b, ref in enumerate(serial)
        for name in ref.names
    )
    stats = sim.plan_stats
    if sim.native_active:
        how = f"native lanes on {stats['forms']} compiled form(s)"
    else:
        how = (f"numpy engine, {sim.native_fallback_reason}: "
               f"{stats['batch_blocks']} vectorized + {stats['lane_blocks']} "
               f"per-lane blocks, {stats['affine_rows']} affine rows")
    print(f"ensemble: {N_LANES} kp variants x {len(batched.t)} steps")
    print(f"  serial  {serial_s:6.2f} s  ({N_LANES} kernel-path runs)")
    print(f"  batched {batch_s:6.2f} s  ({how})")
    print(f"  speedup {serial_s / batch_s:.2f}x, "
          f"lanes bit-identical to serial: {identical}")
    assert identical, "batched lanes diverged from serial runs"

    print(f"\n{'variant':>10} {'final':>8} {'overshoot':>10}")
    for b, sc in enumerate(scenarios):
        lane = batched.lane(b)
        m = step_metrics(lane.t, lane["speed"], SETPOINT)
        print(f"{sc.label:>10} {lane.final('speed'):>8.2f} "
              f"{m.overshoot_pct:>9.1f}%")


if __name__ == "__main__":
    main()
