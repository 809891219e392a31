"""CPU occupancy and profiling model.

The PIL phase of the paper measures "execution times of the implemented
controller code, interrupts response times, sampling jitters, memory and
stack requirements" (section 6).  Those quantities do not need an ISA
emulator — they need an accurate *occupancy* model: who held the core
when, for how many cycles, at which nesting depth.  :class:`CPU` keeps
that ledger; the interrupt controller drives it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class ExecutionRecord:
    """One completed ISR (or task) activation."""

    name: str
    t_request: float  # interrupt assertion time
    t_start: float    # first instruction of the handler
    t_end: float      # handler return
    cycles: float     # pure execution cycles (excl. latency)
    preemptions: int = 0
    nesting_depth: int = 0

    @property
    def response_time(self) -> float:
        """Request-to-completion time (the classic RT response time)."""
        return self.t_end - self.t_request

    @property
    def start_latency(self) -> float:
        """Request-to-start time (interrupt response latency)."""
        return self.t_start - self.t_request

    @property
    def execution_time(self) -> float:
        return self.t_end - self.t_start


class CPU:
    """Single-core cycle-budget CPU.

    * time is converted through the system clock frequency ``f``;
    * ``interrupt_latency_cycles`` models vector fetch + context save;
    * the stack model charges ``isr_frame_bytes`` per active nesting level
      on top of ``base_stack_bytes`` (main + globals of the runtime).

    The interrupt controller writes the ledger fields (``records``,
    ``busy_time``, ``max_nesting``) directly: they change once or twice
    per handler activation.
    """

    def __init__(
        self,
        f: float,
        interrupt_latency_cycles: int = 20,
        base_stack_bytes: int = 64,
        isr_frame_bytes: int = 32,
    ):
        if f <= 0:
            raise ValueError("clock frequency must be positive")
        self.f = float(f)
        self.interrupt_latency_cycles = int(interrupt_latency_cycles)
        self.base_stack_bytes = int(base_stack_bytes)
        self.isr_frame_bytes = int(isr_frame_bytes)
        #: completed activations, in completion order
        self.records: list[ExecutionRecord] = []
        #: seconds the core spent executing handlers
        self.busy_time = 0.0
        #: deepest ISR nesting level reached
        self.max_nesting = 0

    # ------------------------------------------------------------------
    def cycles_to_time(self, cycles: float) -> float:
        return cycles / self.f

    # ------------------------------------------------------------------
    # profiling queries
    # ------------------------------------------------------------------
    @property
    def max_stack_bytes(self) -> int:
        """Worst-case stack: base + one frame per nesting level observed."""
        return self.base_stack_bytes + self.max_nesting * self.isr_frame_bytes

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` the core was busy."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self.busy_time / horizon

    def records_for(self, name: str) -> list[ExecutionRecord]:
        return [r for r in self.records if r.name == name]
