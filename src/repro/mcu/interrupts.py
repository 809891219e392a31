"""Priority interrupt controller with selectable dispatch mode.

The paper's runtime executes "periodic parts of the model code ...
non-preemptively in a timer interrupt" while "function-call subsystems
that are executed asynchronously are executed within interrupt service
routines of triggering events" (section 5).  The controller therefore
supports:

* ``DispatchMode.NONPREEMPTIVE`` — a started handler runs to completion;
  pending requests queue by priority (the paper's runtime, the default);
* ``DispatchMode.PREEMPTIVE`` — a higher-priority request suspends the
  running handler (nested interrupts), kept for the scheduling ablation
  (DESIGN.md section 5).

Handlers carry a cycle cost (constant or callable for data-dependent
costs) plus optional ``on_start`` / ``on_complete`` callbacks: sampling
side effects belong at start (the ADC latched its value when conversion
began), actuation side effects at completion (the PWM register is written
by the last instructions of the handler) — this start/complete split is
what makes the measured sampling-to-actuation delay honest.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union, TYPE_CHECKING

from .cpu import CPU, ExecutionRecord

if TYPE_CHECKING:  # pragma: no cover
    from .device import MCUDevice

CycleCost = Union[float, Callable[[], float]]
Hook = Callable[["MCUDevice"], None]


class DispatchMode(enum.Enum):
    NONPREEMPTIVE = "nonpreemptive"
    PREEMPTIVE = "preemptive"


@dataclass
class InterruptSource:
    """A registered interrupt vector."""

    name: str
    priority: int  # lower value = higher priority
    cycles: CycleCost = 100.0
    on_start: Optional[Hook] = None
    on_complete: Optional[Hook] = None
    enabled: bool = True

    def cost(self) -> float:
        c = self.cycles() if callable(self.cycles) else self.cycles
        if c < 0:
            raise ValueError(f"negative cycle cost for ISR '{self.name}'")
        return float(c)


@dataclass(slots=True)
class _Frame:
    source: InterruptSource
    t_request: float
    t_start: float
    remaining_cycles: float
    t_resume: float
    token: int
    cost_cycles: float = 0.0
    preemptions: int = 0
    depth: int = 0


class InterruptController:
    """Owns the pending set and the handler stack; drives the CPU ledger."""

    def __init__(
        self,
        device: "MCUDevice",
        cpu: CPU,
        mode: DispatchMode = DispatchMode.NONPREEMPTIVE,
    ):
        self.device = device
        self.cpu = cpu
        self.mode = mode
        self.sources: dict[str, InterruptSource] = {}
        self._pending: list[tuple[str, float]] = []  # (name, t_request)
        self._stack: list[_Frame] = []
        self._tokens = itertools.count()
        self.dropped: list[tuple[str, float]] = []  # masked/disabled requests

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, source: InterruptSource) -> InterruptSource:
        if source.name in self.sources:
            raise ValueError(f"interrupt source '{source.name}' already registered")
        self.sources[source.name] = source
        return source

    def source(self, name: str) -> InterruptSource:
        return self.sources[name]

    def enable(self, name: str, enabled: bool = True) -> None:
        self.sources[name].enabled = enabled

    # ------------------------------------------------------------------
    # requesting
    # ------------------------------------------------------------------
    def request(self, name: str) -> None:
        """Assert interrupt ``name`` at the current device time."""
        src = self.sources[name]
        now = self.device.time
        if not src.enabled:
            self.dropped.append((name, now))
            return
        if not self._stack and not self._pending:
            self._start(src, now)  # idle core, nothing queued: runs at once
            return
        self._pending.append((name, now))
        self._try_dispatch()

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------
    def _highest_pending(self) -> int:
        """Index of the highest-priority request (the earliest on ties)."""
        best_i = 0
        best_p = self.sources[self._pending[0][0]].priority
        for i, (name, _t) in enumerate(self._pending[1:], start=1):
            p = self.sources[name].priority
            if p < best_p:
                best_i, best_p = i, p
        return best_i

    def _try_dispatch(self) -> None:
        if not self._pending:
            return
        if self._stack and self.mode is not DispatchMode.PREEMPTIVE:
            return  # the running handler completes first
        i = self._highest_pending()
        name, t_req = self._pending[i]
        src = self.sources[name]
        if not self._stack:
            self._pending.pop(i)
            self._start(src, t_req)
            return
        if self.mode is DispatchMode.PREEMPTIVE:
            top = self._stack[-1]
            if src.priority < top.source.priority:
                self._pending.pop(i)
                self._preempt_and_start(src, t_req)

    def _start(self, src: InterruptSource, t_req: float) -> None:
        cpu = self.cpu
        t_start = self.device.time + cpu.interrupt_latency_cycles / cpu.f
        cost = src.cost()
        depth = len(self._stack) + 1
        frame = _Frame(src, t_req, t_start, cost, t_start, next(self._tokens),
                       cost, 0, depth)
        self._stack.append(frame)
        if depth > cpu.max_nesting:
            cpu.max_nesting = depth
        if src.on_start is not None:
            src.on_start(self.device)
        self._schedule_completion(frame)

    def _preempt_and_start(self, src: InterruptSource, t_req: float) -> None:
        now = self.device.time
        top = self._stack[-1]
        executed = self.cpu.f * (now - top.t_resume)
        top.remaining_cycles = max(0.0, top.remaining_cycles - executed)
        top.token = next(self._tokens)  # invalidate its scheduled completion
        top.preemptions += 1
        self.cpu.busy_time += now - top.t_resume
        self._start(src, t_req)

    def _schedule_completion(self, frame: _Frame) -> None:
        device = self.device
        t_done = max(device.time, frame.t_resume) + frame.remaining_cycles / self.cpu.f
        device.schedule(t_done, partial(self._complete, frame, frame.token))

    def _complete(self, frame: _Frame, token: int) -> None:
        stack = self._stack
        if frame.token != token or not stack or stack[-1] is not frame:
            return  # stale completion (the frame was preempted)
        now = self.device.time
        stack.pop()
        cpu = self.cpu
        cpu.busy_time += now - frame.t_resume
        src = frame.source
        cpu.records.append(ExecutionRecord(
            src.name, frame.t_request, frame.t_start, now, frame.cost_cycles,
            frame.preemptions, frame.depth,
        ))
        if src.on_complete is not None:
            src.on_complete(self.device)
        # resume a preempted frame, if any
        if stack:
            resumed = stack[-1]
            resumed.t_resume = now
            resumed.token = next(self._tokens)
            self._schedule_completion(resumed)
        self._try_dispatch()

    # ------------------------------------------------------------------
    def reset_runtime(self) -> None:
        """Power-on reset of the execution state: drop the handler stack
        and the pending set (registered sources — the vector table — are
        part of the firmware image and survive)."""
        self._stack.clear()
        self._pending.clear()

    def close(self) -> None:
        """Release a finished run (see :meth:`MCUDevice.close`): the
        execution state, the vector table with the callbacks its sources
        hold, and the back reference to the device."""
        self.reset_runtime()
        self.sources.clear()
        self.device = None

    @property
    def busy(self) -> bool:
        return bool(self._stack)

    @property
    def pending_count(self) -> int:
        return len(self._pending)
