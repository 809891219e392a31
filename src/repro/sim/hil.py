"""Hardware-in-the-loop co-simulation.

The deployed application runs on the MCU simulator with the PE blocks in
HW mode — every sensor sample goes through the real peripheral models
(ADC conversion, quadrature position register, GPIO pins) and every
actuation through the PWM registers.  The plant engine and the MCU share
one timeline; each plant micro-step the harness:

1. copies the plant's sensor signals onto the MCU's pins/analog inputs,
2. advances the MCU (timer ticks fire the controller step inside),
3. reads the actuators back and applies them to the plant.
"""

from __future__ import annotations

from typing import Optional

from repro.core.blocks import ADCBlock, BitIOBlock, PEBlockMode, PWMBlock, QuadDecBlock
from repro.core.target import DeployedApplication, TargetError
from repro.model.engine import SimulationOptions, Simulator
from repro.model.result import SimulationResult
from repro.rt.profiler import Profiler

from .split import split_plant_model


class HILSimulator:
    """Couples a deployed (HW-mode) application with the plant engine."""

    def __init__(
        self,
        app: DeployedApplication,
        plant_dt: float = 1e-4,
        solver: str = "rk4",
    ):
        self.app = app
        self.plant_dt = plant_dt
        plant_model, proxy = split_plant_model(app.model, app.controller.name)
        self.plant_model = plant_model
        self.proxy = proxy
        self.solver = solver
        self.plant_sim: Optional[Simulator] = None

    # ------------------------------------------------------------------
    def _apply_sensors(self) -> None:
        device = self.app.device
        sim = self.plant_sim
        for port, kind, blk in self.app.sensor_ports():
            value = sim.read_input(self.proxy.name, port)
            resource = blk.bean.resource_name
            if kind == "adc":
                channel = blk.bean.get_property("channel")
                device.analog_in[channel] = value
            elif kind == "qdec":
                device.peripheral(resource).set_position(int(value) % (1 << 16))
            elif kind == "gpio":
                blk.bean.drive(int(value != 0.0))

    def _apply_actuation(self) -> None:
        device = self.app.device
        for port, blk in self.app.actuation_ports():
            if isinstance(blk, PWMBlock):
                pwm = device.peripheral(blk.bean.resource_name)
                value = pwm.duty(blk.bean.get_property("channel"))
            elif isinstance(blk, BitIOBlock):
                value = float(blk.bean.call("GetVal"))
            else:  # pragma: no cover - defensive
                continue
            self.proxy.set_output(port, value)

    # ------------------------------------------------------------------
    def run(self, t_final: float) -> SimulationResult:
        app = self.app
        if app.device is None:
            app.deploy(PEBlockMode.HW)
        elif app.mode is not PEBlockMode.HW:
            raise TargetError("application is deployed in a non-HW mode")
        opts = SimulationOptions(dt=self.plant_dt, t_final=t_final, solver=self.solver)
        self.plant_sim = Simulator(self.plant_model, opts)
        self.plant_sim.initialize()
        app.start()

        n_steps = int(round(t_final / self.plant_dt))
        for _ in range(n_steps):
            # plant output pass happened at initialize/advance; sample it
            self._apply_sensors()
            app.run_for(self.plant_dt)
            self._apply_actuation()
            self.plant_sim.advance()
        result = self.plant_sim.result()
        # the run is over: release the deployment (its device, tasks and
        # sync) so reference counting frees it; the CPU ledger stays
        app.close()
        return result

    def profiler(self) -> Profiler:
        return self.app.profiler()
