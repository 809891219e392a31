#!/usr/bin/env python
"""The paper's future work, built: a Linux simulator target with SPI.

Section 8: "Concerning the support for the PIL simulation, we would like
to develop a Linux target for the simulator.  The disadvantages of the
currently used xPC target are that it is closed and does not allow us to
implement a support for new communications (e.g. SPI)."

This example demonstrates:
 1. the xPC target refusing an SPI link (the closed-platform limitation),
 2. the same PIL run on the Linux target over RS-232 and over SPI,
 3. the sensor-staleness gain the faster link buys,
 4. saving the validated model as its own documentation (a model file)
    and rebuilding the same target code from it.

Run:  python examples/linux_simulator_target.py
"""

import os
import tempfile

from repro.casestudy import ServoConfig, build_servo_model
from repro.core import PEERTTarget
from repro.model.io import load_model, save_model
from repro.sim import (
    LINUX_TARGET,
    PILSimulator,
    SimulatorTargetError,
    XPC_TARGET,
)

T_FINAL = 0.5


def run(link, target, **kw):
    servo = build_servo_model(ServoConfig(setpoint=100.0))
    app = PEERTTarget(servo.model).build()
    pil = PILSimulator(app, link=link, target=target, plant_dt=1e-4, **kw)
    return pil.run(T_FINAL)


def main() -> None:
    # 1. the status quo: xPC is closed
    try:
        run("spi", XPC_TARGET)
    except SimulatorTargetError as e:
        print(f"xPC + SPI: {e}\n")

    # 2./3. the Linux target runs both links
    print(f"{'link':<22} {'staleness µs':>13} {'bytes/step':>11} {'speed':>8}")
    for label, link, target, kw in (
        ("RS-232 @115200 (xPC)", "rs232", XPC_TARGET, {"baud": 115200}),
        ("RS-232 @115200 (Linux)", "rs232", LINUX_TARGET, {"baud": 115200}),
        ("SPI @4 MHz (Linux)", "spi", LINUX_TARGET, {}),
    ):
        r = run(link, target, **kw)
        print(f"{label:<22} {r.mean_data_latency*1e6:>13.1f} "
              f"{r.bytes_per_step:>11.1f} {r.result.final('speed'):>8.1f}")

    # 4. the model is the documentation: persist and reload it
    servo = build_servo_model(ServoConfig(setpoint=100.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "servo.json")
        save_model(servo.model, path)
        reloaded = load_model(path)
    app = PEERTTarget(reloaded).build()
    same = app.artifacts.files == PEERTTarget(servo.model).build().artifacts.files
    print(f"\nmodel file round-trip: {len(reloaded.blocks)} top-level blocks, "
          f"rebuilds to {app.artifacts.loc} lines of C on {app.project.chip.name}, "
          f"{'identical to' if same else 'DIFFERENT from'} the original build")
    if not same:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
