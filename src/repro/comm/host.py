"""The simulator-PC end of the PIL link.

A PC UART: exact baud (no divider quantization worth modelling), a paced
transmit path, and a receive buffer.  It shares the MCU device's event
scheduler so the whole PIL system lives on one coherent timeline.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional

from .line import Scheduler, SerialLine

BITS_PER_FRAME = 10  # 8N1


class HostSerialPort:
    """PC-side COM port bound to one endpoint of a :class:`SerialLine`."""

    def __init__(self, scheduler: Scheduler, baud: float):
        if baud <= 0:
            raise ValueError("baud must be positive")
        self.scheduler = scheduler
        self.baud = float(baud)
        #: wire time of one 8N1 frame
        self.byte_time = BITS_PER_FRAME / self.baud
        self.line: Optional[SerialLine] = None
        self.endpoint: Optional[int] = None
        self._tx_fifo: deque[int] = deque()
        self._tx_busy = False
        self._rx_buffer = bytearray()
        self.on_byte: Optional[Callable[[int], None]] = None
        self.bytes_sent = 0
        self.bytes_received = 0

    def connect(self, line: SerialLine, endpoint: int) -> None:
        self.line = line
        self.endpoint = endpoint
        line.bind(endpoint, self._on_wire_byte)
        line.declare_baud(endpoint, self.baud)

    # ------------------------------------------------------------------
    def send(self, data: bytes) -> None:
        """Queue bytes; pacing at one frame per byte time."""
        self._tx_fifo.extend(data)
        self._pump()

    def _pump(self) -> None:
        if self._tx_busy or not self._tx_fifo:
            return
        byte = self._tx_fifo.popleft()
        self._tx_busy = True
        scheduler = self.scheduler
        scheduler.schedule(scheduler.time + self.byte_time,
                           partial(self._shifted, byte))

    def _shifted(self, byte: int) -> None:
        self._tx_busy = False
        self.bytes_sent += 1
        if self.line is not None and self.endpoint is not None:
            self.line.transmit(self.endpoint, byte, self.byte_time)
        self._pump()

    def flush_tx(self) -> int:
        """Abort queued (not yet shifting) bytes; returns how many were
        discarded.  Recovery resync uses this to stop a stale backlog."""
        n = len(self._tx_fifo)
        self._tx_fifo.clear()
        return n

    @property
    def tx_idle(self) -> bool:
        return not self._tx_busy and not self._tx_fifo

    # ------------------------------------------------------------------
    def _on_wire_byte(self, byte: int) -> None:
        self.bytes_received += 1
        if self.on_byte is not None:
            self.on_byte(byte)
        else:
            self._rx_buffer.append(byte)

    def receive(self) -> bytes:
        """Drain the receive buffer (when no ``on_byte`` callback is set)."""
        out = bytes(self._rx_buffer)
        self._rx_buffer.clear()
        return out
