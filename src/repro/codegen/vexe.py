"""The virtual executable — "download to the development board".

We cannot execute DSP56800E machine code, so the build pipeline's last
stage produces an ISR task set instead: each task carries (a) the *cycle
cost* the generated C would burn, from the cost model, and (b) the *step
semantics* as a Python callable (the same compiled-model step the MIL
simulator runs, now reading/writing real peripheral models through the
bean API).  Loading the task set onto an :class:`~repro.mcu.device.
MCUDevice` registers the interrupt vectors; from then on the MCU simulator
schedules everything, and the CPU ledger yields the PIL measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.mcu.cpu import ExecutionRecord
from repro.mcu.device import MCUDevice
from repro.mcu.interrupts import InterruptSource

from .generator import GeneratedArtifacts


@dataclass
class ISRTask:
    """One interrupt handler of the deployed application."""

    vector: str
    priority: int
    cycles: Union[float, Callable[[], float]]
    action: Optional[Callable[[], None]] = None      # runs at handler completion
    on_start: Optional[Callable[[], None]] = None    # runs at handler entry


class VirtualExecutable:
    """A loadable image: task set + artifact metadata."""

    def __init__(self, name: str, artifacts: Optional[GeneratedArtifacts] = None):
        self.name = name
        self.artifacts = artifacts
        self.tasks: list[ISRTask] = []
        self.device: Optional[MCUDevice] = None
        self._loaded = False
        self._start_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def add_task(self, task: ISRTask) -> ISRTask:
        if self._loaded:
            raise RuntimeError("cannot add tasks after load()")
        if any(t.vector == task.vector for t in self.tasks):
            raise ValueError(f"duplicate vector '{task.vector}'")
        self.tasks.append(task)
        return task

    def on_start(self, hook: Callable[[], None]) -> None:
        """Register initialisation code run by :meth:`start` (the main()
        body before the background loop)."""
        self._start_hooks.append(hook)

    # ------------------------------------------------------------------
    def load(self, device: MCUDevice) -> None:
        """Flash the image: register every ISR vector."""
        if self._loaded:
            raise RuntimeError("image already loaded")
        self.device = device
        for task in self.tasks:
            device.intc.register(
                InterruptSource(
                    name=task.vector,
                    priority=task.priority,
                    cycles=task.cycles,
                    on_start=(lambda d, t=task: t.on_start()) if task.on_start else None,
                    on_complete=(lambda d, t=task: t.action()) if task.action else None,
                )
            )
        self._loaded = True

    def start(self) -> None:
        """Run the init code (enable timers, arm peripherals)."""
        if not self._loaded:
            raise RuntimeError("load() the image first")
        for hook in self._start_hooks:
            hook()

    def unload(self) -> None:
        """Drop the task set and the init hooks once a run is over: their
        actions close over the application that loaded them.  The
        device's vector table goes with
        :meth:`~repro.mcu.device.MCUDevice.close`; :meth:`records` stays
        readable."""
        self.tasks.clear()
        self._start_hooks.clear()

    # ------------------------------------------------------------------
    # profiling access (PIL measurements)
    # ------------------------------------------------------------------
    def records(self, vector: Optional[str] = None) -> list[ExecutionRecord]:
        if self.device is None:
            return []
        if vector is None:
            return list(self.device.cpu.records)
        return self.device.cpu.records_for(vector)

    def cpu_utilization(self, horizon: float) -> float:
        if self.device is None:
            raise RuntimeError("not loaded")
        return self.device.cpu.utilization(horizon)

    @property
    def memory_report(self) -> dict:
        """Static memory figures from the build, plus the observed stack."""
        rep = {
            "ram_bytes": self.artifacts.ram_bytes if self.artifacts else 0,
            "flash_bytes": self.artifacts.flash_bytes if self.artifacts else 0,
        }
        if self.device is not None:
            rep["stack_bytes"] = self.device.cpu.max_stack_bytes
            rep["max_nesting"] = self.device.cpu.max_nesting
        return rep
