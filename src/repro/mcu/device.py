"""The assembled MCU — an event-driven simulator.

:class:`MCUDevice` is the PIL "universal development board": a chip
descriptor instantiated into a clock tree, CPU, interrupt controller and
the chip's peripheral complement.  Time advances through a monotonic event
queue (``schedule`` / ``run_until``); the co-simulation layers interleave
``run_until`` with plant-model steps.

Events run by time, then in the order they were scheduled.  Only future
events go on the heap; an event due now (mostly zero-delay wire
deliveries) goes to a FIFO lane, which ``run_until`` drains after any
heap event due at the same instant — a heap event due now was queued
before the clock reached now, so it was scheduled first.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Optional

from .clock import ClockTree
from .cpu import CPU
from .database import ChipDescriptor, get_chip
from .interrupts import DispatchMode, InterruptController
from .peripherals import (
    ADC,
    GPIOPort,
    Peripheral,
    PeriodicTimer,
    PWM,
    QuadratureDecoder,
    SCI,
    SPISlave,
    Watchdog,
)

_PERIPHERAL_FACTORIES = {
    "adc": lambda name, params: ADC(name, **params),
    "pwm": lambda name, params: PWM(name, **params),
    "timer": lambda name, params: PeriodicTimer(name, **params),
    "gpio": lambda name, params: GPIOPort(name, **params),
    "qdec": lambda name, params: QuadratureDecoder(name, **params),
    "sci": lambda name, params: SCI(name, **params),
    "wdog": lambda name, params: Watchdog(name, **params),
    "spi": lambda name, params: SPISlave(name, **params),
}


class MCUDevice:
    """One simulated microcontroller instance."""

    def __init__(
        self,
        chip: ChipDescriptor | str,
        clock: Optional[ClockTree] = None,
        dispatch_mode: DispatchMode = DispatchMode.NONPREEMPTIVE,
    ):
        self.chip = get_chip(chip) if isinstance(chip, str) else chip
        self.clock = clock or ClockTree(
            self.chip.default_xtal,
            self.chip.default_pll_mult,
            self.chip.default_pll_div,
            f_sys_max=self.chip.f_sys_max,
        )
        if self.clock.f_sys > self.chip.f_sys_max:
            raise ValueError(
                f"clock tree yields {self.clock.f_sys/1e6:.1f} MHz, above the "
                f"{self.chip.name} limit of {self.chip.f_sys_max/1e6:.1f} MHz"
            )
        self.cpu = CPU(
            self.clock.f_sys,
            interrupt_latency_cycles=self.chip.interrupt_latency_cycles,
        )
        self.intc = InterruptController(self, self.cpu, dispatch_mode)
        self.time = 0.0
        #: future events as (time, seq, fn); seq keeps same-time ties in
        #: scheduling order
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        #: events due at the current time, in scheduling order
        self._now: deque[Callable[[], None]] = deque()
        self.peripherals: dict[str, Peripheral] = {}
        #: external analogue world: channel -> volts (set by the plant model)
        self.analog_in: dict[int, float] = {}
        self._instantiate_peripherals()

    def _instantiate_peripherals(self) -> None:
        for spec in self.chip.peripherals:
            for i in range(spec.count):
                name = f"{spec.kind}{i}"
                p = _PERIPHERAL_FACTORIES[spec.kind](name, dict(spec.params))
                self.add_peripheral(p)

    # ------------------------------------------------------------------
    # peripheral access
    # ------------------------------------------------------------------
    def add_peripheral(self, p: Peripheral) -> Peripheral:
        if p.name in self.peripherals:
            raise ValueError(f"duplicate peripheral name '{p.name}'")
        self.peripherals[p.name] = p
        p.attach(self)
        return p

    def peripheral(self, name: str) -> Peripheral:
        try:
            return self.peripherals[name]
        except KeyError:
            raise KeyError(
                f"{self.chip.name} has no peripheral '{name}'; "
                f"available: {sorted(self.peripherals)}"
            ) from None

    def adc(self, i: int = 0) -> ADC:
        return self.peripheral(f"adc{i}")  # type: ignore[return-value]

    def pwm(self, i: int = 0) -> PWM:
        return self.peripheral(f"pwm{i}")  # type: ignore[return-value]

    def timer(self, i: int = 0) -> PeriodicTimer:
        return self.peripheral(f"timer{i}")  # type: ignore[return-value]

    def gpio(self, i: int = 0) -> GPIOPort:
        return self.peripheral(f"gpio{i}")  # type: ignore[return-value]

    def qdec(self, i: int = 0) -> QuadratureDecoder:
        return self.peripheral(f"qdec{i}")  # type: ignore[return-value]

    def sci(self, i: int = 0) -> SCI:
        return self.peripheral(f"sci{i}")  # type: ignore[return-value]

    def wdog(self, i: int = 0) -> Watchdog:
        return self.peripheral(f"wdog{i}")  # type: ignore[return-value]

    def spi(self, i: int = 0) -> SPISlave:
        return self.peripheral(f"spi{i}")  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    def schedule(self, t: float, fn: Callable[[], None]) -> None:
        """Queue ``fn`` to run at absolute time ``t`` (clamped to now)."""
        if t <= self.time:
            self._now.append(fn)
        else:
            heappush(self._queue, (t, next(self._seq), fn))

    def run_until(self, t_end: float) -> None:
        """Process every event with timestamp <= ``t_end``, by time, then
        in scheduling order."""
        if t_end < self.time:
            raise ValueError(f"cannot run backwards: {t_end} < {self.time}")
        heap, now = self._queue, self._now
        while True:
            while now:
                now.popleft()()
            if not heap or heap[0][0] > t_end:
                break
            t, _seq, fn = heappop(heap)
            self.time = t
            fn()
            # the heap's other events at this instant were queued before
            # the clock got here, so before anything now in the FIFO
            while heap and heap[0][0] <= self.time:
                heappop(heap)[2]()
        self.time = t_end

    def run_for(self, dt: float) -> None:
        """Advance by ``dt`` seconds."""
        self.run_until(self.time + dt)

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._now)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Take a finished run's device apart, so that reference counting
        frees it and the rig it drove once the last reference goes.

        Drops the events still queued and those due now (their callbacks
        close over whatever scheduled them), the vector table, and the
        ISR stack and pending set (a handler still running at the end of
        the run holds its source's callbacks), and detaches every
        peripheral.  What the run measured stays readable: the CPU ledger
        (records, busy time, nesting), the clock, the chip and each
        peripheral's own registers.  A closed device runs no more
        events."""
        self._queue.clear()
        self._now.clear()
        self.intc.close()
        for p in self.peripherals.values():
            p.device = None

    def reset(self) -> None:
        """Power-on reset: clears peripherals and the event queue (the
        interrupt vector table / registered sources survive, as the same
        firmware image is assumed)."""
        self._queue.clear()
        self._now.clear()
        self.time = 0.0
        self.intc.reset_runtime()
        for p in self.peripherals.values():
            p.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MCUDevice {self.chip.name} @ {self.clock.f_sys/1e6:.1f} MHz, "
            f"t={self.time:.6f}s>"
        )
