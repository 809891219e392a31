"""Processor-in-the-loop co-simulation (Fig. 6.2).

"The implemented code of the control algorithm is executed on a universal
development board, the model of the controlled plant is simulated by a
simulator and the input and output data are interchanged by a
communication line ... Both, the plant and the controller codes are
executed in the real-time ... and they exchange the simulation data at
the end of each simulation step (control period).  The communication ...
is provided by RS232 asynchronous serial line." (section 6)

Mapping:

* the *development board* is the deployed application's MCU device,
  running the PIL image: peripheral blocks redirected to the
  communication buffer, an SCI receive ISR parsing sensor packets, and a
  post-step hook composing the actuation packet;
* the *simulator PC* is a plant-side engine (the controller subsystem
  replaced by a :class:`~repro.sim.split.ControllerProxy`), stepped on
  the same event timeline at the control period;
* the *RS-232 line* is fully modelled: baud-paced bytes, framing, CRC,
  optional error injection — its overhead is part of what PIL measures.

Fault tolerance (the reliability subsystem):

* ``reliable=True`` layers a :class:`~repro.comm.ReliableChannel` (ARQ:
  ACK/NAK, duplicate suppression, retransmit with backoff) over the link
  in each direction, so corrupted or dropped frames are *recovered*
  instead of silently lost;
* a :class:`LossPolicy` decides what the board actuates while sensor
  data is missing: hold the last value, or drop to a safe state after
  ``max_consecutive`` missed periods;
* ``watchdog_timeout`` arms the MCU's watchdog peripheral, serviced by
  the background task only while the link delivers fresh data and the
  CPU has idle time; a starved watchdog fires a counted reset-and-resync
  recovery (flush UARTs, reset ARQ + decoders, safe-state actuation);
* DATA latency is paired by *sequence number*, so the staleness
  statistics stay correct under loss and retransmission;
* a :class:`~repro.faults.FaultPlan` attaches burst/dropout/stuck-sensor/
  overrun fault models to the same rig.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.comm import (
    ARQConfig,
    LinkHealth,
    PacketCodec,
    PacketDecoder,
    PacketType,
    ReliableChannel,
)
from repro.core.blocks import PEBlockMode
from repro.core.target import DeployedApplication, TargetError
from repro.model.engine import SimulationOptions, Simulator
from repro.model.result import SimulationResult
from repro.obs.trace import get_tracer
from repro.rt.profiler import Profiler

from .split import split_plant_model


def _fresher(seq: int, newest: Optional[int]) -> bool:
    """Is ``seq`` newer than ``newest`` under 8-bit wraparound?

    A retransmitted frame can arrive *after* its successors; applying it
    would regress the loop onto older samples.  Half the sequence space
    (128) is treated as "ahead", mirroring the ARQ history window.
    """
    if newest is None:
        return True
    return 0 < ((seq - newest) & 0xFF) <= 128


@dataclass(frozen=True)
class LossPolicy:
    """What the board actuates while sensor DATA packets are missing.

    ``hold`` keeps the last decoded sensor words (the controller
    integrates on stale data — the historical behaviour); ``safe`` drops
    the actuation to ``safe_values`` once ``max_consecutive`` control
    periods pass without a fresh DATA packet.

    The safe value is *plant-specific*: the 0.0 default de-energizes a
    unipolar actuator, but a bipolar H-bridge drives hard reverse at
    duty 0 — its zero-torque neutral is 0.5.  Set ``safe_values`` /
    ``default_safe`` to what "safe" means for the actuator at hand.
    """

    mode: str = "hold"                     # "hold" | "safe"
    max_consecutive: int = 5               # periods before safe-state kicks in
    safe_values: Optional[dict] = None     # actuator block name -> value
    default_safe: float = 0.0              # used when the block has no entry

    def __post_init__(self) -> None:
        if self.mode not in ("hold", "safe"):
            raise ValueError("loss policy mode must be 'hold' or 'safe'")
        if self.max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")

    def safe_value(self, block_name: str) -> float:
        if self.safe_values and block_name in self.safe_values:
            return float(self.safe_values[block_name])
        return self.default_safe


@dataclass
class PILResult:
    """Everything a PIL run produces."""

    result: SimulationResult
    control_period: float
    bytes_to_mcu: int
    bytes_to_host: int
    crc_errors: int
    round_trip_times: list[float] = field(default_factory=list)
    #: host-sampled -> MCU-decoded latency per DATA packet, paired by
    #: sequence number (correct under loss and retransmission); this is
    #: the sensor staleness the controller actually operates on
    data_latencies: list[float] = field(default_factory=list)
    steps: int = 0
    # ------------------------------------------------------------------
    # link-health metrics (the reliability subsystem's ledger)
    # ------------------------------------------------------------------
    reliable: bool = False
    retransmits: int = 0          # ARQ re-sends, both directions
    arq_timeouts: int = 0         # retransmit timer expiries
    send_failures: int = 0        # frames abandoned after the retry budget
    superseded: int = 0           # retries abandoned for fresher samples
    duplicates: int = 0           # received dups suppressed
    acks: int = 0                 # ACK frames sent, both directions
    naks: int = 0                 # NAK frames sent, both directions
    recoveries: int = 0           # watchdog reset-and-resync cycles
    watchdog_resets: int = 0      # watchdog peripheral expiries
    max_consecutive_loss: int = 0  # worst run of periods without fresh DATA
    safe_state_steps: int = 0     # steps actuated at the safe value

    @property
    def bytes_per_step(self) -> float:
        if self.steps == 0:
            return 0.0
        return (self.bytes_to_mcu + self.bytes_to_host) / self.steps

    def line_utilization(self, byte_time: float) -> float:
        """Fraction of the run the busier direction spent carrying bytes
        (RS-232 is full duplex, so the directions load independently)."""
        total_time = self.steps * self.control_period
        if total_time <= 0:
            return 0.0
        busiest = max(self.bytes_to_mcu, self.bytes_to_host)
        return min(1.0, busiest * byte_time / total_time)

    @property
    def mean_rtt(self) -> float:
        return float(np.mean(self.round_trip_times)) if self.round_trip_times else 0.0

    @property
    def mean_data_latency(self) -> float:
        return float(np.mean(self.data_latencies)) if self.data_latencies else 0.0

    @property
    def max_data_latency(self) -> float:
        return float(np.max(self.data_latencies)) if self.data_latencies else 0.0

    def health(self) -> dict:
        """The reliability counters as one row (campaigns, benches)."""
        return {
            "reliable": self.reliable,
            "crc_errors": self.crc_errors,
            "retransmits": self.retransmits,
            "arq_timeouts": self.arq_timeouts,
            "send_failures": self.send_failures,
            "superseded": self.superseded,
            "duplicates": self.duplicates,
            "acks": self.acks,
            "naks": self.naks,
            "recoveries": self.recoveries,
            "watchdog_resets": self.watchdog_resets,
            "max_consecutive_loss": self.max_consecutive_loss,
            "safe_state_steps": self.safe_state_steps,
            "mean_data_latency": self.mean_data_latency,
            "max_data_latency": self.max_data_latency,
        }


class PILSimulator:
    """Runs the PIL phase for one built application."""

    def __init__(
        self,
        app: DeployedApplication,
        baud: float = 115200.0,
        plant_dt: float = 1e-4,
        solver: str = "rk4",
        line_error_rate: float = 0.0,
        line_drop_rate: float = 0.0,
        link: "str | LinkAdapter" = "rs232",
        target: "SimulatorTarget | None" = None,
        reliable: Union[bool, ARQConfig] = False,
        loss_policy: Optional[LossPolicy] = None,
        watchdog_timeout: Optional[float] = None,
    ):
        from .targets import LinkAdapter, RS232Adapter, XPC_TARGET, make_link

        self.app = app
        self.baud = float(baud)
        self.plant_dt = plant_dt
        self.solver = solver
        self.target = target if target is not None else XPC_TARGET
        if isinstance(link, LinkAdapter):
            self.link = link
        elif link == "rs232":
            self.link = RS232Adapter(
                baud=baud, error_rate=line_error_rate, drop_rate=line_drop_rate
            )
        else:
            self.link = make_link(link)
        self.target.check_link(self.link.kind)
        plant_model, proxy = split_plant_model(app.model, app.controller.name)
        self.plant_model = plant_model
        self.proxy = proxy
        self.plant_sim: Optional[Simulator] = None
        self._last_data_sent = 0.0
        self._rtts: list[float] = []
        #: DATA seq -> host sample time; popped on MCU-side decode, so a
        #: lost packet cannot shift every later pairing (the old FIFO bug)
        self._data_sent_times: dict[int, float] = {}
        self._data_latencies: list[float] = []
        self._host_decoder = PacketDecoder(on_packet=self._host_on_packet)
        self._mcu_decoder = PacketDecoder(on_packet=self._mcu_on_packet)
        self._host_codec = PacketCodec()
        self._mcu_codec = PacketCodec()
        self._pending_events: list[int] = []
        # --- reliability subsystem -----------------------------------
        if isinstance(reliable, ARQConfig):
            self.arq_config: Optional[ARQConfig] = reliable
        else:
            # PIL traffic is periodic streams: only the freshest sample
            # of each type is worth retrying (supersede), otherwise the
            # retransmit backlog saturates the wire at high error rates
            self.arq_config = ARQConfig(supersede=True) if reliable else None
        self.loss_policy = loss_policy or LossPolicy()
        self.watchdog_timeout = watchdog_timeout
        self.host_channel: Optional[ReliableChannel] = None
        self.mcu_channel: Optional[ReliableChannel] = None
        #: set by :meth:`repro.faults.FaultPlan.attach`
        self.fault_plan = None
        self._watchdog = None
        self._fresh_data = False       # DATA decoded since the last step
        self._link_alive = False       # DATA decoded since the last bg check
        self._newest_data_seq: Optional[int] = None
        self._newest_act_seq: Optional[int] = None
        self._consec_missed = 0
        self._max_consec_missed = 0
        self._safe_state_steps = 0
        self._recoveries = 0
        self._last_busy = 0.0
        self._tracer = get_tracer()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        app = self.app
        device = app.deploy(PEBlockMode.PIL)
        self.device = device
        self.sensors = app.sensor_ports()
        self.actuators = app.actuation_ports()
        # a dropped byte can land garbage in a header's LEN slot; bound it
        # to the largest frame this rig ever exchanges so the decoder
        # rejects the header instead of stalling on phantom payload bytes
        limit = 2 * max(len(self.sensors), len(self.actuators), 1)
        self._host_decoder.max_payload = limit
        self._mcu_decoder.max_payload = limit
        T = app.tick_period
        sub = round(T / self.plant_dt)
        if sub < 1 or abs(sub * self.plant_dt - T) > 1e-9 * T:
            raise TargetError(
                f"plant_dt {self.plant_dt} must divide the control period {T}"
            )
        self._substeps = sub

        # transport (RS-232 by default; SPI on the Linux target) ----------
        self.link.install(self)
        # backwards-compatible aliases for the RS-232 path
        self.sci = getattr(self.link, "sci", None)
        self.line = getattr(self.link, "line", None)
        self.host = getattr(self.link, "host", None)

        # fault plan hooks ------------------------------------------------
        if self.fault_plan is not None:
            self._install_faults()

        # ARQ channels ----------------------------------------------------
        if self.arq_config is not None:
            self.host_channel = ReliableChannel(
                device,
                raw_send=self.link.host_send,
                deliver=self._host_on_packet,
                config=self.arq_config,
                codec=self._host_codec,
                name="host",
            )
            self.mcu_channel = ReliableChannel(
                device,
                raw_send=self.link.mcu_send,
                deliver=self._mcu_on_packet,
                config=self.arq_config,
                codec=self._mcu_codec,
                name="mcu",
            )
            self._host_decoder.on_packet = self.host_channel.on_packet
            self._host_decoder.on_error = self.host_channel.on_frame_error
            self._mcu_decoder.on_packet = self.mcu_channel.on_packet
            self._mcu_decoder.on_error = self.mcu_channel.on_frame_error

        # watchdog supervision -------------------------------------------
        if self.watchdog_timeout is not None:
            if self.watchdog_timeout <= T:
                raise TargetError(
                    "watchdog_timeout must exceed the control period "
                    f"({T}); the background task services it once per period"
                )
            wd = device.wdog(0)
            wd.configure(self.watchdog_timeout)
            wd.on_reset = self._watchdog_recovery
            self._watchdog = wd

        # actuation packet after every controller step --------------------
        app.post_step_callbacks.append(self._mcu_send_actuation)

    def _install_faults(self) -> None:
        plan = self.fault_plan
        if plan.has_line_faults:
            if self.line is None:
                raise TargetError(
                    "line fault models need the rs232 link (the plan "
                    "hooks the SerialLine byte path)"
                )
            self.line.fault = plan.byte_fault
        if plan.has_cpu_faults:
            src = self.device.intc.sources.get(self.app.tick_vector)
            if src is None:
                raise TargetError(
                    f"no tick vector '{self.app.tick_vector}' to overrun"
                )
            base = src.cycles
            device = self.device

            def inflated() -> float:
                c = base() if callable(base) else float(base)
                return c * plan.cpu_scale(device.time)

            src.cycles = inflated

    # ------------------------------------------------------------------
    # MCU side
    # ------------------------------------------------------------------
    def _mcu_on_packet(self, pkt) -> None:
        if pkt.ptype is PacketType.DATA:
            t0 = self._data_sent_times.pop(pkt.seq, None)
            if not _fresher(pkt.seq, self._newest_data_seq):
                # a retransmitted copy overtaken by its successors: the
                # loop already runs on newer samples, discard silently
                return
            self._newest_data_seq = pkt.seq
            if t0 is not None:
                latency = self.device.time - t0
                self._data_latencies.append(latency)
                if self._tracer.enabled:
                    self._tracer.instant(
                        "link.data_latency", cat="link", sim_t=self.device.time,
                        args={"seq": pkt.seq, "latency_s": latency},
                    )
            self._fresh_data = True
            self._link_alive = True
            for (port, kind, blk), word in zip(self.sensors, pkt.words):
                self.app.pil_buffer[blk.name] = float(word)
        elif pkt.ptype is PacketType.EVENT:
            # "some interrupt service routines are ... invoked ... when a
            # corresponding event is indicated by the received packet"
            for idx in pkt.words:
                vector = self._event_vectors()[idx]
                self.device.intc.request(vector)

    def _event_vectors(self) -> list[str]:
        vectors = []
        for blk in self.app.pe_blocks():
            for name, ev in blk.bean.events.items():
                if ev.enabled and blk.EVENT_NAMES and name in blk.EVENT_NAMES:
                    vectors.append(blk.bean.event_vector(name))
        return vectors

    def _mcu_send_actuation(self) -> None:
        # loss-policy bookkeeping: one fresh-or-missed verdict per step
        if self._fresh_data:
            self._consec_missed = 0
        else:
            self._consec_missed += 1
            if self._consec_missed > self._max_consec_missed:
                self._max_consec_missed = self._consec_missed
        self._fresh_data = False
        degraded = (
            self.loss_policy.mode == "safe"
            and self._consec_missed >= self.loss_policy.max_consecutive
        )
        if degraded:
            self._safe_state_steps += 1
        words = []
        for port, blk in self.actuators:
            if degraded:
                value = self.loss_policy.safe_value(blk.name)
            else:
                value = self.app.pil_buffer.get(blk.name, 0.0)
            words.append(int(min(max(value, 0.0), 1.0) * 65535) & 0xFFFF)
        if self.mcu_channel is not None:
            self.mcu_channel.send(PacketType.ACTUATION, words)
        else:
            self.link.mcu_send(self._mcu_codec.encode(PacketType.ACTUATION, words))

    # ------------------------------------------------------------------
    # host / simulator-PC side
    # ------------------------------------------------------------------
    def _host_on_packet(self, pkt) -> None:
        if pkt.ptype is not PacketType.ACTUATION:
            return
        if not _fresher(pkt.seq, self._newest_act_seq):
            return  # stale retransmit; the plant already holds newer drive
        self._newest_act_seq = pkt.seq
        self._rtts.append(self.device.time - self._last_data_sent)
        for (port, _blk), word in zip(self.actuators, pkt.words):
            self.proxy.set_output(port, word / 65535.0)

    def _sensor_word(self, kind: str, blk, value: float) -> int:
        if kind == "adc":
            return blk.quantize(value)
        if kind == "qdec":
            return int(value) % (1 << 16)
        return int(value != 0.0)

    def _host_send(self, ptype: PacketType, words: list[int]) -> int:
        """Ship a host frame through the ARQ channel (when enabled) or the
        raw link; returns the frame's sequence number."""
        if self.host_channel is not None:
            return self.host_channel.send(ptype, words)
        frame = self._host_codec.encode(ptype, words)
        self.link.host_send(frame)
        return frame[1]

    def _host_step(self, k: int, t_final: float) -> None:
        T = self.app.tick_period
        # 1. sample plant sensors (state at t_k) and ship them
        words = []
        for port, kind, blk in self.sensors:
            value = self.plant_sim.read_input(self.proxy.name, port)
            if self.fault_plan is not None:
                value = self.fault_plan.sensor_value(
                    self.device.time, blk.name, value
                )
            words.append(self._sensor_word(kind, blk, value))
        seq = self._host_send(PacketType.DATA, words)
        self._last_data_sent = self.device.time
        # seq-keyed send time: an 8-bit wrap overwrites the stale entry of
        # a frame that never made it, which is exactly what we want
        self._data_sent_times[seq] = self.device.time
        while self._pending_events:
            idx = self._pending_events.pop(0)
            self._host_send(PacketType.EVENT, [idx])
        # 2. advance the plant one control period (actuation held by proxy)
        for _ in range(self._substeps):
            self.plant_sim.advance()
        # 3. schedule the next exchange
        t_next = (k + 1) * T
        if t_next < t_final - 1e-12:
            self.device.schedule(t_next, lambda: self._host_step(k + 1, t_final))

    def trigger_event(self, block_name: str) -> None:
        """Host-side injection of an asynchronous event (e.g. a button
        edge) — shipped to the board as an EVENT packet."""
        vectors = self._event_vectors()
        for i, v in enumerate(vectors):
            if v.startswith(block_name + "_"):
                self._pending_events.append(i)
                return
        raise ValueError(f"no enabled event on block '{block_name}'")

    # ------------------------------------------------------------------
    # watchdog supervision
    # ------------------------------------------------------------------
    def _background_service(self, k: int, t_final: float) -> None:
        """The background task's watchdog duty: once per control period,
        kick the dog iff the CPU had idle time (the loop actually ran)
        AND the link delivered fresh sensor data since the last pass."""
        T = self.app.tick_period
        busy = self.device.cpu.busy_time
        had_idle = (busy - self._last_busy) <= 0.98 * T
        self._last_busy = busy
        if had_idle and self._link_alive:
            self._watchdog.kick()
        self._link_alive = False
        t_next = (k + 1.5) * T
        if t_next < t_final - 1e-12:
            self.device.schedule(
                t_next, lambda: self._background_service(k + 1, t_final)
            )

    def _watchdog_recovery(self) -> None:
        """A starved watchdog fired: reset-and-resync.

        The board reboots its comm stack: both UART transmit backlogs are
        flushed (they carry stale frames), the ARQ channels abandon their
        pending sets, the decoders drop partial frames, and the actuation
        goes to the safe state until fresh data flows again.  The dog is
        re-armed so a persistent fault keeps getting counted.
        """
        self._recoveries += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "pil.recovery", cat="pil", sim_t=self.device.time,
                args={"count": self._recoveries},
            )
        from repro.obs.flight import get_flight_recorder

        flight = get_flight_recorder()
        if flight.enabled:
            flight.trigger("watchdog_reset", args={
                "count": self._recoveries, "sim_t": self.device.time,
            })
        for port in (self.host, self.sci):
            if port is not None and hasattr(port, "flush_tx"):
                port.flush_tx()
        for ch in (self.host_channel, self.mcu_channel):
            if ch is not None:
                ch.reset()
        self._host_decoder.reset()
        self._mcu_decoder.reset()
        if self.loss_policy.mode == "safe":
            for port, blk in self.actuators:
                self.proxy.set_output(port, self.loss_policy.safe_value(blk.name))
        self._consec_missed = 0
        self._watchdog.kick()

    # ------------------------------------------------------------------
    def run(self, t_final: float) -> PILResult:
        with self._tracer.span("pil.run", cat="pil", args={
            "t_final": t_final,
            "link": self.link.kind,
            "reliable": self.arq_config is not None,
            "chip": self.app.project.chip.name,
        }) as pil_span:
            self._setup()
            # the plant steps once per plant_dt in lockstep with the board,
            # far below native="auto"'s threshold: bind a built artifact
            # whatever the run length, never wait for cc
            opts = SimulationOptions(
                dt=self.plant_dt, t_final=t_final, solver=self.solver,
                native="reuse",
            )
            self.plant_sim = Simulator(self.plant_model, opts)
            self.plant_sim.initialize()
            self.app.start()
            self.device.schedule(0.0, lambda: self._host_step(0, t_final))
            if self._watchdog is not None:
                self._watchdog.start()
                self.device.schedule(
                    0.5 * self.app.tick_period,
                    lambda: self._background_service(0, t_final),
                )
            self.device.run_until(t_final)
            if pil_span is not None:
                pil_span.args["steps"] = self.app.step_count
                pil_span.args["recoveries"] = self._recoveries
        result = self.plant_sim.result()
        health = LinkHealth()
        for ch in (self.host_channel, self.mcu_channel):
            if ch is not None:
                health = health.merge(ch.health)
        out = PILResult(
            result=result,
            control_period=self.app.tick_period,
            bytes_to_mcu=self.link.bytes_to_mcu,
            bytes_to_host=self.link.bytes_to_host,
            crc_errors=self._mcu_decoder.crc_errors + self._host_decoder.crc_errors,
            round_trip_times=self._rtts,
            data_latencies=self._data_latencies,
            steps=self.app.step_count,
            reliable=self.arq_config is not None,
            retransmits=health.retransmits,
            arq_timeouts=health.timeouts,
            send_failures=health.send_failures,
            superseded=health.superseded,
            duplicates=health.duplicates,
            acks=health.acks_sent,
            naks=health.naks_sent,
            recoveries=self._recoveries,
            watchdog_resets=(
                self._watchdog.reset_count if self._watchdog is not None else 0
            ),
            max_consecutive_loss=self._max_consec_missed,
            safe_state_steps=self._safe_state_steps,
        )
        self._release()
        return out

    def _release(self) -> None:
        """Take the finished rig apart, so that reference counting frees
        it on its last reference instead of a full collection: drop the
        callbacks that close over this simulator (the decoders', the ARQ
        channels', the watchdog's and the link's), then close the
        application (:meth:`~repro.core.target.DeployedApplication.close`:
        its device, task set, post-step callbacks and model/project
        sync).  The run's measurements stay readable: ``device.cpu``,
        :meth:`profiler`, ``sci``, the channels' ``health``."""
        for decoder in (self._host_decoder, self._mcu_decoder):
            decoder.on_packet = decoder.on_error = None
        for ch in (self.host_channel, self.mcu_channel):
            if ch is not None:
                ch.scheduler = ch.raw_send = ch.deliver = None
        if self._watchdog is not None:
            self._watchdog.on_reset = None
        self.link.release()
        self.app.close()

    def profiler(self) -> Profiler:
        return self.app.profiler()
