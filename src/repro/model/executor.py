"""Stand-alone executor for an atomic compiled model.

Runs a compiled model outside the full :class:`~repro.model.engine.
Simulator`: one complete outputs+update pass per call.  Two consumers:

* :class:`~repro.model.library.subsystems.FunctionCallSubsystem` — one
  pass per function-call trigger;
* the deployed controller in :mod:`repro.core.target` — one pass per
  timer-interrupt tick on the MCU simulator (this *is* the generated
  step function's semantics).

Continuous states are not supported (generated embedded code is discrete
by construction).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .block import BlockContext
from .compiled import CompiledModel
from .diagnostics import ModelError
from .library.subsystems import Inport, Outport


class AtomicExecutor:
    """Owns contexts and the signal table of one compiled model."""

    def __init__(self, cm: CompiledModel, honor_rates: bool = False):
        if cm.n_states:
            raise ModelError(
                "AtomicExecutor cannot run continuous states; "
                "discretise the model first"
            )
        self.cm = cm
        self.honor_rates = honor_rates
        self.signals = np.zeros(cm.n_signals)
        self.ctxs: dict[str, BlockContext] = {}
        self.tick = 0
        self._started = False
        #: the periodic pass, resolved by start(): (block, ctx, input
        #: signal indices, output signal indices, rate divisor) per block
        self._pass: list[tuple] = []
        self._inports: dict[int, str] = {}
        self._outports: dict[int, str] = {}
        for qname, block in cm.nodes.items():
            if isinstance(block, Inport):
                self._inports[block.index] = qname
            elif isinstance(block, Outport):
                self._outports[block.index] = qname

    # ------------------------------------------------------------------
    def start(self) -> None:
        cm = self.cm
        self._pass = []
        for qname in cm.order:
            block = cm.nodes[qname]
            ctx = BlockContext()
            ctx.x = np.zeros(0)
            self.ctxs[qname] = ctx
            block.start(ctx)
            # triggered (function-call) blocks run in their own ISRs; a
            # divisor of 0 runs the block on every tick
            if not getattr(block, "triggerable", False):
                self._pass.append((
                    block,
                    ctx,
                    tuple(cm.input_map[qname]),
                    tuple(cm.sig_index[(qname, p)] for p in range(block.n_out)),
                    cm.divisors[qname] if self.honor_rates else 0,
                ))
        self.tick = 0
        self._started = True

    # ------------------------------------------------------------------
    def inject(self, port_index: int, value: float) -> None:
        """Set the value an Inport will emit on the next pass."""
        qname = self._inports.get(port_index)
        if qname is None:
            raise ModelError(f"no Inport with index {port_index}")
        block = self.cm.nodes[qname]
        block.inject(self.ctxs[qname], value)  # type: ignore[attr-defined]

    def read(self, port_index: int) -> float:
        """Last value latched by an Outport."""
        qname = self._outports.get(port_index)
        if qname is None:
            raise ModelError(f"no Outport with index {port_index}")
        block = self.cm.nodes[qname]
        return block.read(self.ctxs[qname])  # type: ignore[attr-defined]

    def read_signal(self, qname: str, port: int = 0) -> float:
        return float(self.signals[self.cm.sig_index[(qname, port)]])

    # ------------------------------------------------------------------
    def call(self, t: float) -> None:
        """One complete pass: outputs then updates, in sorted order, of
        the blocks with a sample hit this tick (every block unless
        ``honor_rates``).  Triggered (function-call) blocks are skipped —
        on a target they run in their own ISRs."""
        if not self._started:
            raise ModelError("call start() before executing")
        sigs, tick = self.signals, self.tick
        item = sigs.item
        for block, ctx, ins, outs, k in self._pass:
            if k and tick % k:
                continue
            out = block.outputs(t, [item(i) for i in ins], ctx)
            for i, v in zip(outs, out):
                sigs[i] = float(v)
        for block, ctx, ins, _outs, k in self._pass:
            if k and tick % k:
                continue
            block.update(t, [item(i) for i in ins], ctx)
        self.tick += 1

    def call_block(self, qname: str, t: float) -> None:
        """Execute a single (triggerable) block — an ISR body."""
        block = self.cm.nodes[qname]
        ctx = self.ctxs[qname]
        u = [float(self.signals[i]) for i in self.cm.input_map[qname]]
        out = block.outputs(t, u, ctx)
        for port, v in enumerate(out):
            self.signals[self.cm.sig_index[(qname, port)]] = float(v)
        block.update(t, u, ctx)
