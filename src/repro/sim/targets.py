"""Simulator-PC targets and PIL link adapters.

Paper section 8 (future work): "we would like to develop a Linux target
for the simulator.  The disadvantages of the currently used xPC target
are that it is closed and does not allow us to implement a support for
new communications (e.g. SPI).  Linux would also allow us to use a non PC
hardware."

This module implements both platforms:

* :data:`XPC_TARGET` — the paper's status quo: a closed platform that only
  offers the RS-232 link (requesting anything else raises, reproducing
  the limitation the authors complain about);
* :data:`LINUX_TARGET` — the future-work platform: open, link-pluggable
  (RS-232 and SPI today), embeddable on non-PC hardware.

A :class:`LinkAdapter` hides the transport from the PIL harness: the host
ships sensor frames down, the MCU ships actuation frames up, and the
adapter accounts for the bytes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.comm import CANBus, HostSerialPort, SerialLine, SPIBus
from repro.mcu.interrupts import InterruptSource
from repro.rt.runtime import PRIORITY_COMM

if TYPE_CHECKING:  # pragma: no cover
    from .pil import PILSimulator


class SimulatorTargetError(Exception):
    """The chosen platform cannot provide what was asked of it."""


@dataclass(frozen=True)
class SimulatorTarget:
    """A platform the plant simulator runs on."""

    name: str
    open_platform: bool
    supported_links: tuple[str, ...]
    #: per-step host-side processing overhead (s) — xPC's RTOS is lean,
    #: a Linux userspace loop pays a bit more
    host_overhead: float = 0.0

    def check_link(self, kind: str) -> None:
        if kind not in self.supported_links:
            extra = (
                "" if self.open_platform else
                " — the platform is closed, new communication drivers "
                "cannot be added (use the Linux target)"
            )
            raise SimulatorTargetError(
                f"the {self.name} simulator target does not support the "
                f"'{kind}' link (offers: {', '.join(self.supported_links)})"
                + extra
            )


XPC_TARGET = SimulatorTarget("xPC", open_platform=False,
                             supported_links=("rs232",), host_overhead=0.0)
LINUX_TARGET = SimulatorTarget("Linux", open_platform=True,
                               supported_links=("rs232", "spi", "can"),
                               host_overhead=20e-6)


# ---------------------------------------------------------------------------
# link adapters
# ---------------------------------------------------------------------------
class LinkAdapter(abc.ABC):
    """Transport between the simulator PC and the development board."""

    kind: str = "abstract"

    @abc.abstractmethod
    def install(self, pil: "PILSimulator") -> None:
        """Wire the transport onto the PIL rig (device + host side)."""

    @abc.abstractmethod
    def host_send(self, frame: bytes) -> None:
        """Ship a frame from the simulator PC to the board."""

    @abc.abstractmethod
    def mcu_send(self, frame: bytes) -> None:
        """Ship a frame from the board to the simulator PC."""

    def release(self) -> None:
        """Undo what :meth:`install` wired that closes over the rig, once
        its run is over (the device's vector table goes with
        :meth:`~repro.mcu.device.MCUDevice.close`).  The byte counts stay
        readable."""

    @property
    @abc.abstractmethod
    def byte_time(self) -> float: ...

    @property
    @abc.abstractmethod
    def bytes_to_mcu(self) -> int: ...

    @property
    @abc.abstractmethod
    def bytes_to_host(self) -> int: ...


class RS232Adapter(LinkAdapter):
    """The paper's link: SCI <-> serial cable <-> PC COM port."""

    kind = "rs232"
    RX_VECTOR = "PIL_SCI_rx"

    def __init__(self, baud: float = 115200.0, error_rate: float = 0.0,
                 drop_rate: float = 0.0):
        self.baud = float(baud)
        self._line_kwargs = dict(error_rate=error_rate, drop_rate=drop_rate)
        self.line: Optional[SerialLine] = None
        self.sci = None
        self.host: Optional[HostSerialPort] = None

    def install(self, pil: "PILSimulator") -> None:
        device = pil.device
        self.line = SerialLine(device, **self._line_kwargs)
        sci = device.sci(0)
        sci.configure(self.baud)
        sci.connect(self.line, 0)
        self.line.declare_baud(0, sci.baud)
        self.sci = sci
        self.host = HostSerialPort(device, self.baud)
        self.host.connect(self.line, 1)
        self.host.on_byte = lambda b: pil._host_decoder.feed(bytes([b]))

        def drain(dev) -> None:
            pil._mcu_decoder.feed(sci.receive())

        device.intc.register(
            InterruptSource(self.RX_VECTOR, priority=PRIORITY_COMM,
                            cycles=60, on_complete=drain)
        )
        sci.rx_irq_vector = self.RX_VECTOR

    def host_send(self, frame: bytes) -> None:
        self.host.send(frame)

    def mcu_send(self, frame: bytes) -> None:
        self.sci.send(frame)

    def release(self) -> None:
        if self.host is not None:
            self.host.on_byte = None
        if self.line is not None:
            self.line.close()

    @property
    def byte_time(self) -> float:
        return 10.0 / self.sci.baud

    @property
    def bytes_to_mcu(self) -> int:
        return self.line.bytes_delivered[0]

    @property
    def bytes_to_host(self) -> int:
        return self.line.bytes_delivered[1]


class SPIAdapter(LinkAdapter):
    """The future-work link: host is the SPI master, the MCU a slave.

    SPI is master-clocked, so each host transfer simultaneously delivers
    the sensor frame and collects whatever actuation bytes the slave has
    queued (plus zero fill the packet decoder resynchronises over).
    """

    kind = "spi"
    RX_VECTOR = "PIL_SPI_rx"

    def __init__(self, clock_hz: float = 4e6, collect_bytes: int = 16):
        self.clock_hz = float(clock_hz)
        self.collect_bytes = int(collect_bytes)
        self.bus: Optional[SPIBus] = None
        self.slave = None
        self._to_mcu = 0
        self._to_host = 0
        self.dropped_transfers = 0
        self._pil: Optional["PILSimulator"] = None

    def install(self, pil: "PILSimulator") -> None:
        device = pil.device
        self._pil = pil
        self.bus = SPIBus(device, self.clock_hz)
        slave = device.spi(0)
        slave.connect(self.bus)
        self.slave = slave

        def drain(dev) -> None:
            pil._mcu_decoder.feed(slave.receive())

        device.intc.register(
            InterruptSource(self.RX_VECTOR, priority=PRIORITY_COMM,
                            cycles=40, on_complete=drain)
        )
        slave.rx_irq_vector = self.RX_VECTOR

    def host_send(self, frame: bytes) -> None:
        if self.bus.busy:
            # master overrun: the previous exchange still holds the bus
            self.dropped_transfers += 1
            return
        tx = frame + bytes(self.collect_bytes)
        self._to_mcu += len(frame)
        self.bus.transfer(tx, on_complete=lambda rx: self._pil._host_decoder.feed(rx))

    def mcu_send(self, frame: bytes) -> None:
        self.slave.queue_tx(frame)
        self._to_host += len(frame)

    def release(self) -> None:
        self._pil = None
        if self.bus is not None:
            self.bus.close()

    @property
    def byte_time(self) -> float:
        return 8.0 / self.clock_hz

    @property
    def bytes_to_mcu(self) -> int:
        return self._to_mcu

    @property
    def bytes_to_host(self) -> int:
        return self._to_host


class CANAdapter(LinkAdapter):
    """PIL over the vehicle CAN bus.

    The paper avoided CAN because the application already owns it; this
    adapter lets that scenario be measured: PIL frames share the bus with
    configurable *application traffic*, and higher-priority (lower-id)
    application messages win arbitration against the PIL exchange.
    """

    kind = "can"
    RX_VECTOR = "PIL_CAN_rx"

    def __init__(
        self,
        bitrate: float = 500e3,
        data_id: int = 0x200,
        act_id: int = 0x201,
        app_traffic: Optional[list[tuple[int, int, float]]] = None,
    ):
        """``app_traffic``: list of (can_id, dlc, period) background
        messages the application sends regardless of PIL."""
        self.bitrate = float(bitrate)
        self.data_id = int(data_id)
        self.act_id = int(act_id)
        self.app_traffic = list(app_traffic or [])
        self.bus: Optional[CANBus] = None
        self._to_mcu = 0
        self._to_host = 0
        self.app_frames_sent = 0

    def install(self, pil: "PILSimulator") -> None:
        device = pil.device
        self.bus = CANBus(device, self.bitrate)
        # MCU node: accepts the sensor id, raises the rx ISR per frame
        rx_buffer = bytearray()

        def mcu_rx(frame) -> None:
            rx_buffer.extend(frame.data)
            device.intc.request(self.RX_VECTOR)

        def drain(dev) -> None:
            pil._mcu_decoder.feed(bytes(rx_buffer))
            rx_buffer.clear()

        device.intc.register(
            InterruptSource(self.RX_VECTOR, priority=PRIORITY_COMM,
                            cycles=50, on_complete=drain)
        )
        self.bus.attach(mcu_rx, ids=[self.data_id])
        # host node: accepts the actuation id
        self.bus.attach(
            lambda frame: pil._host_decoder.feed(frame.data), ids=[self.act_id]
        )
        # the application's own periodic messages
        for can_id, dlc, period in self.app_traffic:
            self._schedule_app(device, can_id, dlc, period)

    def _schedule_app(self, device, can_id: int, dlc: int, period: float) -> None:
        device.schedule(period,
                        partial(self._app_tick, device, can_id, dlc, period, 1))

    def _app_tick(self, device, can_id: int, dlc: int, period: float,
                  k: int) -> None:
        """Application message ``k`` of one periodic stream (a method,
        not a closure that schedules itself: no reference cycle)."""
        self.bus.send(can_id, bytes(dlc))
        self.app_frames_sent += 1
        device.schedule((k + 1) * period,
                        partial(self._app_tick, device, can_id, dlc, period,
                                k + 1))

    def _fragment(self, can_id: int, frame: bytes) -> None:
        for i in range(0, len(frame), 8):
            self.bus.send(can_id, frame[i : i + 8])

    def host_send(self, frame: bytes) -> None:
        self._to_mcu += len(frame)
        self._fragment(self.data_id, frame)

    def mcu_send(self, frame: bytes) -> None:
        self._to_host += len(frame)
        self._fragment(self.act_id, frame)

    def release(self) -> None:
        if self.bus is not None:
            self.bus.close()

    @property
    def byte_time(self) -> float:
        # effective wire time per payload byte in a full 8-byte frame
        return self.bus.frame_time(8) / 8 if self.bus else 8.0 / self.bitrate

    @property
    def bytes_to_mcu(self) -> int:
        return self._to_mcu

    @property
    def bytes_to_host(self) -> int:
        return self._to_host


def make_link(kind: str, **kwargs) -> LinkAdapter:
    """Factory: 'rs232', 'spi' or 'can'."""
    if kind == "rs232":
        return RS232Adapter(**kwargs)
    if kind == "spi":
        return SPIAdapter(**kwargs)
    if kind == "can":
        return CANAdapter(**kwargs)
    raise ValueError(f"unknown link kind '{kind}'")
