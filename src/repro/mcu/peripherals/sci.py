"""Serial communication interface (UART) model.

The PIL link of the paper: "the communication between the simulator PC
and the development board is provided by RS232 asynchronous serial line"
(section 6).  The SCI end models baud-rate quantization (``baud = f_bus /
(16 * divisor)``), a one-byte transmit shift register with a FIFO behind
it, and RX interrupts; the wire itself is
:class:`repro.comm.line.SerialLine`.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Optional, TYPE_CHECKING

from .base import Peripheral
from ..clock import DividerSolution

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.line import SerialLine

#: 8N1 framing: start + 8 data + stop.
BITS_PER_FRAME = 10


class SCI(Peripheral):
    """UART with divider-derived baud and interrupt-driven RX."""

    def __init__(
        self,
        name: str,
        divisor_max: int = 0xFFF,
        tx_fifo_depth: int = 64,
        rx_fifo_depth: int = 64,
    ):
        super().__init__(name)
        self.divisor_max = int(divisor_max)
        self.tx_fifo_depth = int(tx_fifo_depth)
        self.rx_fifo_depth = int(rx_fifo_depth)
        self.solution: Optional[DividerSolution] = None
        self._byte_time: Optional[float] = None
        self._tx_fifo: deque[int] = deque()
        self._rx_fifo: deque[int] = deque()
        self._tx_busy = False
        self.line: Optional["SerialLine"] = None
        self.endpoint: Optional[int] = None
        self.rx_irq_vector: Optional[str] = None
        self.tx_irq_vector: Optional[str] = None
        self.overruns = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    def configure(self, baud: float) -> DividerSolution:
        """Set the baud-rate divisor nearest the request.

        Real SCIs cannot hit every rate: 115200 from a 60 MHz bus has a
        0.16 % error, which is why the expert system checks the result.
        """
        dev = self._require_device()
        if baud <= 0:
            raise ValueError("baud must be positive")
        div = max(1, min(self.divisor_max, round(dev.clock.f_bus / (16.0 * baud))))
        achieved = dev.clock.f_bus / (16.0 * div)
        err = abs(achieved - baud) / baud
        self.solution = DividerSolution(1, div, achieved, baud, err)
        self._byte_time = BITS_PER_FRAME / achieved
        return self.solution

    @property
    def baud(self) -> float:
        if self.solution is None:
            raise RuntimeError(f"SCI '{self.name}' not configured")
        return self.solution.achieved

    @property
    def byte_time(self) -> float:
        """Wire time of one 8N1 frame."""
        if self._byte_time is None:
            raise RuntimeError(f"SCI '{self.name}' not configured")
        return self._byte_time

    # ------------------------------------------------------------------
    def connect(self, line: "SerialLine", endpoint: int) -> None:
        """Attach this SCI to one end (0 or 1) of a serial line."""
        self.line = line
        self.endpoint = endpoint
        line.bind(endpoint, self._on_wire_byte)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def send(self, data: bytes) -> int:
        """Queue bytes for transmission; returns how many were accepted
        (FIFO overflow drops the rest, like a real bounded buffer)."""
        accepted = 0
        for b in data:
            if len(self._tx_fifo) >= self.tx_fifo_depth:
                self.overruns += 1
                break
            self._tx_fifo.append(b)
            accepted += 1
        self._pump_tx()
        return accepted

    def _pump_tx(self) -> None:
        if self._tx_busy or not self._tx_fifo:
            return
        dev = self._require_device()
        byte = self._tx_fifo.popleft()
        self._tx_busy = True
        dev.schedule(dev.time + self.byte_time, partial(self._shifted_out, byte))

    def _shifted_out(self, byte: int) -> None:
        self._tx_busy = False
        self.bytes_sent += 1
        if self.line is not None and self.endpoint is not None:
            self.line.transmit(self.endpoint, byte, self.byte_time)
        if self.tx_irq_vector:
            self.raise_irq(self.tx_irq_vector)
        self._pump_tx()

    @property
    def tx_idle(self) -> bool:
        return not self._tx_busy and not self._tx_fifo

    def flush_tx(self) -> int:
        """Abort queued (not yet shifting) bytes; returns how many were
        discarded.  Recovery resync uses this to stop a stale backlog."""
        n = len(self._tx_fifo)
        self._tx_fifo.clear()
        return n

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_wire_byte(self, byte: int) -> None:
        if len(self._rx_fifo) >= self.rx_fifo_depth:
            self.overruns += 1
            return
        self._rx_fifo.append(byte)
        self.bytes_received += 1
        self.raise_irq(self.rx_irq_vector)  # falls back to irq_vector

    def receive(self, max_bytes: int = 1 << 30) -> bytes:
        """Drain up to ``max_bytes`` from the RX FIFO."""
        fifo = self._rx_fifo
        if len(fifo) <= max_bytes:
            out = bytes(fifo)
            fifo.clear()
            return out
        return bytes(fifo.popleft() for _ in range(max_bytes))

    @property
    def rx_available(self) -> int:
        return len(self._rx_fifo)

    def reset(self) -> None:
        self.solution = None
        self._byte_time = None
        self._tx_fifo.clear()
        self._rx_fifo.clear()
        self._tx_busy = False
        self.overruns = 0
        self.bytes_sent = 0
        self.bytes_received = 0
