"""CAN bus model.

Section 6 prefers RS-232 because it "is usually unused in the application
(an advantage over CAN or SPI)" — on a real ECU the CAN bus already
carries application traffic, and PIL frames would have to *arbitrate*
against it.  This model makes that trade measurable:

* standard 11-bit identifiers, 0–8 data bytes per frame;
* non-destructive priority arbitration: when the bus frees, the pending
  frame with the lowest identifier wins;
* frame time includes the protocol overhead (~47 bits) and a nominal 20 %
  bit-stuffing allowance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .line import Scheduler

#: protocol bits besides data: SOF, ID, control, CRC, ACK, EOF, IFS.
FRAME_OVERHEAD_BITS = 47
#: nominal bit-stuffing expansion.
STUFFING_FACTOR = 1.2
MAX_STD_ID = 0x7FF
MAX_DLC = 8


@dataclass(frozen=True)
class CANFrame:
    """One transmitted frame."""

    can_id: int
    data: bytes

    def __post_init__(self) -> None:
        if not (0 <= self.can_id <= MAX_STD_ID):
            raise ValueError(f"CAN id {self.can_id:#x} outside the 11-bit range")
        if len(self.data) > MAX_DLC:
            raise ValueError(f"CAN data length {len(self.data)} exceeds 8 bytes")


class CANBus:
    """Shared bus with priority arbitration among pending frames."""

    def __init__(self, scheduler: Scheduler, bitrate: float = 500e3):
        if bitrate <= 0:
            raise ValueError("bitrate must be positive")
        self.scheduler = scheduler
        self.bitrate = float(bitrate)
        self._pending: list[tuple[int, int, CANFrame]] = []  # (id, seq, frame)
        self._seq = 0
        self._busy = False
        self._subscribers: list[tuple[Optional[frozenset], Callable[[CANFrame], None]]] = []
        self.frames_delivered = 0
        self.bits_carried = 0

    # ------------------------------------------------------------------
    def frame_time(self, dlc: int) -> float:
        bits = (FRAME_OVERHEAD_BITS + 8 * dlc) * STUFFING_FACTOR
        return bits / self.bitrate

    def attach(
        self,
        on_frame: Callable[[CANFrame], None],
        ids: Optional[Iterable[int]] = None,
    ) -> None:
        """Subscribe a node; ``ids`` is its acceptance filter (None = all)."""
        self._subscribers.append(
            (frozenset(ids) if ids is not None else None, on_frame)
        )

    # ------------------------------------------------------------------
    def send(self, can_id: int, data: bytes) -> None:
        """Queue a frame for transmission (arbitration decides when)."""
        frame = CANFrame(can_id, bytes(data))
        self._pending.append((frame.can_id, self._seq, frame))
        self._seq += 1
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._pending:
            return
        # lowest identifier wins arbitration; FIFO among equal ids
        self._pending.sort(key=lambda e: (e[0], e[1]))
        _id, _seq, frame = self._pending.pop(0)
        self._busy = True
        duration = self.frame_time(len(frame.data))

        def complete() -> None:
            self._busy = False
            self.frames_delivered += 1
            self.bits_carried += int(
                (FRAME_OVERHEAD_BITS + 8 * len(frame.data)) * STUFFING_FACTOR
            )
            for ids, cb in self._subscribers:
                if ids is None or frame.can_id in ids:
                    cb(frame)
            self._pump()

        self.scheduler.schedule(self.scheduler.time + duration, complete)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        """Release a finished run: drop the subscribed nodes, the frames
        still queued and the scheduler.  The delivery counts (and so
        :meth:`utilization`) stay readable."""
        self._subscribers.clear()
        self._pending.clear()
        self.scheduler = None

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` the bus spent carrying bits."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return min(1.0, self.bits_carried / self.bitrate / horizon)
