"""SPI bus model — the paper's future-work link (section 8).

"The disadvantages of the currently used xPC target are that it is
closed and does not allow us to implement a support for new
communications (e.g. SPI)."

SPI is synchronous and master-paced: the master clocks every transfer,
and each clocked byte moves *both* directions at once (full duplex from
the shift register's point of view).  The slave cannot initiate — it can
only pre-load its transmit FIFO and wait to be clocked, which is why the
PIL adapter built on this bus polls: every master transfer simultaneously
delivers the sensor frame and collects whatever actuation bytes the MCU
has queued.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .line import Scheduler

BITS_PER_WORD = 8


class SPIBus:
    """One master + one slave on a shared event scheduler."""

    def __init__(self, scheduler: Scheduler, clock_hz: float):
        if clock_hz <= 0:
            raise ValueError("SPI clock must be positive")
        self.scheduler = scheduler
        self.clock_hz = float(clock_hz)
        self._slave_tx: deque[int] = deque()
        self.on_slave_rx: Optional[Callable[[bytes], None]] = None
        self._busy = False
        self.bytes_transferred = 0
        self.transfers = 0

    @property
    def byte_time(self) -> float:
        return BITS_PER_WORD / self.clock_hz

    # ------------------------------------------------------------------
    # slave side
    # ------------------------------------------------------------------
    def slave_queue(self, data: bytes) -> None:
        """Pre-load the slave's shift FIFO (clocked out on the next
        master transfer)."""
        self._slave_tx.extend(data)

    @property
    def slave_pending(self) -> int:
        return len(self._slave_tx)

    # ------------------------------------------------------------------
    # master side
    # ------------------------------------------------------------------
    def transfer(
        self,
        master_tx: bytes,
        on_complete: Optional[Callable[[bytes], None]] = None,
    ) -> None:
        """Clock ``len(master_tx)`` bytes; the same clock edges shift the
        slave's queued bytes back (0x00 fill when its FIFO runs dry).
        ``on_complete`` receives the master's received bytes.  A transfer
        while one is in flight is rejected (single chip-select)."""
        if self._busy:
            raise RuntimeError("SPI transfer already in progress")
        self._busy = True
        n = len(master_tx)
        duration = n * self.byte_time

        def complete() -> None:
            self._busy = False
            rx = bytes(
                self._slave_tx.popleft() if self._slave_tx else 0 for _ in range(n)
            )
            self.bytes_transferred += n
            self.transfers += 1
            if self.on_slave_rx is not None and n:
                self.on_slave_rx(bytes(master_tx))
            if on_complete is not None:
                on_complete(rx)

        self.scheduler.schedule(self.scheduler.time + duration, complete)

    @property
    def busy(self) -> bool:
        return self._busy

    def close(self) -> None:
        """Release a finished run: drop the slave's receive callback and
        the scheduler.  The transfer counts stay readable."""
        self.on_slave_rx = None
        self.scheduler = None
