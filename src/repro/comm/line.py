"""Point-to-point asynchronous serial line model.

The line is a passive cable with two endpoints (0 and 1).  Senders call
:meth:`transmit` *after* their own shift register has clocked the byte out
(the UART models pace themselves); the line then delivers the byte to the
other endpoint's callback, optionally corrupting or dropping it.

Baud agreement is checked the way real hardware fails: each endpoint
declares its baud, and when the two differ by more than ~3 % the sampled
bits smear and bytes arrive corrupted.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Protocol

import numpy as np

#: Receivers tolerate roughly this much clock mismatch before framing
#: errors appear (10 bits must stay within half a bit: ~5 %; leave margin).
BAUD_TOLERANCE = 0.03


class Scheduler(Protocol):  # pragma: no cover - typing helper
    time: float

    def schedule(self, t: float, fn: Callable[[], None]) -> None: ...


class SerialLine:
    """An RS-232 cable between two UARTs sharing one event scheduler."""

    def __init__(
        self,
        scheduler: Scheduler,
        wire_delay: float = 0.0,
        error_rate: float = 0.0,
        drop_rate: float = 0.0,
        seed: int = 0,
    ):
        if not (0.0 <= error_rate <= 1.0) or not (0.0 <= drop_rate <= 1.0):
            raise ValueError("error/drop rates must be probabilities")
        self.scheduler = scheduler
        self.wire_delay = float(wire_delay)
        self.error_rate = float(error_rate)
        self.drop_rate = float(drop_rate)
        self._rng = np.random.default_rng(seed)
        self._sinks: dict[int, Callable[[int], None]] = {}
        self._bauds: dict[int, float] = {}
        #: the declared bauds disagree beyond what a receiver tolerates
        self._mismatched = False
        self.bytes_delivered = [0, 0]  # indexed by *receiving* endpoint
        self.bytes_corrupted = 0
        self.bytes_dropped = 0
        #: optional time-windowed fault hook ``fn(t, byte) -> byte | None``
        #: (None drops the byte, a changed value corrupts it) — this is how
        #: :class:`repro.faults.FaultPlan` injects bursts and dropouts on
        #: top of the stationary ``error_rate``/``drop_rate``
        self.fault: Optional[Callable[[float, int], Optional[int]]] = None

    # ------------------------------------------------------------------
    def bind(self, endpoint: int, on_byte: Callable[[int], None]) -> None:
        """Register the receive callback for endpoint 0 or 1."""
        if endpoint not in (0, 1):
            raise ValueError("endpoint must be 0 or 1")
        self._sinks[endpoint] = on_byte

    def declare_baud(self, endpoint: int, baud: float) -> None:
        """Record the endpoint's configured baud for mismatch detection."""
        if endpoint not in (0, 1):
            raise ValueError("endpoint must be 0 or 1")
        self._bauds[endpoint] = float(baud)
        self._mismatched = self.baud_mismatch > BAUD_TOLERANCE

    @property
    def baud_mismatch(self) -> float:
        """Relative baud disagreement between the two ends (0 when unset)."""
        if len(self._bauds) < 2:
            return 0.0
        b0, b1 = self._bauds[0], self._bauds[1]
        return abs(b0 - b1) / min(b0, b1)

    # ------------------------------------------------------------------
    def transmit(self, from_endpoint: int, byte: int, byte_time: float) -> None:
        """Carry one byte to the opposite endpoint.

        ``byte_time`` is the sender's frame time; the receiver gets the
        byte after the wire delay (the frame itself was already paced by
        the sender's UART model).
        """
        if from_endpoint not in (0, 1):
            raise ValueError("endpoint must be 0 or 1")
        to = 1 - from_endpoint
        sink = self._sinks.get(to)
        if sink is None:
            self.bytes_dropped += 1
            return
        byte &= 0xFF
        scheduler = self.scheduler
        if self.fault is not None:
            faulted = self.fault(scheduler.time, byte)
            if faulted is None:
                self.bytes_dropped += 1
                return
            if (faulted & 0xFF) != byte:
                self.bytes_corrupted += 1
            byte = faulted & 0xFF
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.bytes_dropped += 1
            return
        if self._mismatched or (
            self.error_rate and self._rng.random() < self.error_rate
        ):
            byte ^= int(self._rng.integers(1, 256))
            self.bytes_corrupted += 1
        scheduler.schedule(
            scheduler.time + self.wire_delay, partial(self._deliver, sink, to, byte)
        )

    def _deliver(self, sink: Callable[[int], None], to: int, byte: int) -> None:
        self.bytes_delivered[to] += 1
        sink(byte)

    def close(self) -> None:
        """Release a finished run: drop both endpoints' receive callbacks,
        the fault hook and the scheduler, which close over the rig that
        wired them.  The byte counts stay readable."""
        self._sinks.clear()
        self.fault = None
        self.scheduler = None

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_delivered) + self.bytes_dropped
