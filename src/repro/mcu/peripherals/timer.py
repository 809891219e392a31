"""Periodic interrupt timer.

The generated runtime executes the periodic model code "non-preemptively
in a timer interrupt" (section 5) — this peripheral is that timer.  Its
achievable period is divider-quantized; the difference between the model's
nominal sample time and the timer's achieved period is a real effect the
expert system reports (and experiment E3 measures as steady sampling-rate
error, distinct from dispatch jitter).
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from .base import Peripheral
from ..clock import DividerSolution, PrescalerChain


class PeriodicTimer(Peripheral):
    """Free-running reload timer raising its IRQ every period."""

    def __init__(
        self,
        name: str,
        prescalers: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
        modulo_max: int = 0xFFFF,
    ):
        super().__init__(name)
        self.chain = PrescalerChain(prescalers, modulo_max)
        self.solution: Optional[DividerSolution] = None
        self._running = False
        self._generation = 0
        self.tick_count = 0

    # ------------------------------------------------------------------
    def configure(self, period: float) -> DividerSolution:
        """Pick prescaler+modulo for the requested period (may be inexact).

        Raises ``ValueError`` when the period is outside the counter's
        range — a design-time configuration error.
        """
        dev = self._require_device()
        sol = self.chain.solve_period(dev.clock.f_bus, period)
        if sol is None:
            raise ValueError(
                f"timer '{self.name}': period {period} s unreachable from "
                f"bus clock {dev.clock.f_bus/1e6:.3f} MHz "
                f"(range [{self.chain.min_period(dev.clock.f_bus):.3g}, "
                f"{self.chain.max_period(dev.clock.f_bus):.3g}] s)"
            )
        self.solution = sol
        return sol

    @property
    def period(self) -> float:
        """Achieved hardware period."""
        if self.solution is None:
            raise RuntimeError(f"timer '{self.name}' not configured")
        return self.solution.achieved

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start counting; first overflow one period from now."""
        dev = self._require_device()
        if self.solution is None:
            raise RuntimeError(f"timer '{self.name}' not configured")
        self._running = True
        self._generation += 1
        t0 = dev.time
        dev.schedule(t0 + self.period,
                     partial(self._tick, dev, self._generation, t0, 1))

    def _tick(self, dev, gen: int, t0: float, k: int) -> None:
        """Overflow ``k`` of the counting started at ``t0`` (generation
        ``gen``); a method, not a closure that schedules itself, so a
        stopped or closed timer is no reference cycle."""
        if not self._running or gen != self._generation:
            return
        self.tick_count += 1
        self.raise_irq()
        # schedule from the configured grid, not from "now": a hardware
        # reload counter does not accumulate dispatch error
        dev.schedule(t0 + (k + 1) * self.period,
                     partial(self._tick, dev, gen, t0, k + 1))

    def stop(self) -> None:
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def reset(self) -> None:
        self.stop()
        self.solution = None
        self.tick_count = 0
