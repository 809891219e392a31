"""Model compilation: flattening, validation, sorting, allocation.

``CompiledModel.build`` is the front-end shared by the simulator and the
code generator.  It performs the checks Simulink performs before a
simulation or RTW build:

* virtual subsystems are flattened (function-call subsystems stay atomic),
* every input port must have exactly one driver,
* connected port types must agree,
* discrete sample times must be integer multiples of the base step,
* blocks are sorted by direct-feedthrough data dependencies, and an
  :class:`~repro.model.diagnostics.AlgebraicLoopError` names any cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .block import Block, SampleTime
from .diagnostics import (
    AlgebraicLoopError,
    ModelError,
    MultipleDriverError,
    SampleTimeError,
    TypeMismatchError,
    UnconnectedPortError,
)
from .graph import Model

#: Relative tolerance when checking Ts / dt integrality.
_RATE_TOL = 1e-6


@dataclass
class CompiledModel:
    """The executable form of a diagram.

    Attributes
    ----------
    order:
        Qualified block names in execution order.
    nodes:
        Qualified name -> block instance.
    input_map:
        Qualified name -> list of signal indices feeding each input port.
    sig_index:
        ``(qname, out_port)`` -> global signal index.
    divisors:
        Qualified name -> step divisor (0 = run every step, k = run every
        k-th major step).
    state_offset / state_count:
        Continuous-state slice allocation per node.
    event_targets:
        ``(qname, event_port)`` -> list of triggerable qnames.
    """

    source: Model
    dt: float
    order: list[str] = field(default_factory=list)
    nodes: dict[str, Block] = field(default_factory=dict)
    input_map: dict[str, list[int]] = field(default_factory=dict)
    sig_index: dict[tuple[str, int], int] = field(default_factory=dict)
    n_signals: int = 0
    divisors: dict[str, int] = field(default_factory=dict)
    state_offset: dict[str, int] = field(default_factory=dict)
    state_count: dict[str, int] = field(default_factory=dict)
    n_states: int = 0
    event_targets: dict[tuple[str, int], list[str]] = field(default_factory=dict)
    #: memo of generated kernel-pass code objects keyed by source text.
    #: The generated source depends only on the compiled model (signal
    #: indices, divisors, schedule) — per-simulator state binds through
    #: the exec namespace — so repeat runs on the Python kernel path skip
    #: the ``compile()`` step.  A run that binds native builds no passes;
    #: what a repeat of it skips is in :attr:`lowering_memo`.
    codegen_cache: dict = field(default_factory=dict, repr=False)
    #: solver -> the kernel plan and the lowered native program (or the
    #: refusal), so a repeat ``Simulator.initialize`` plans and lowers
    #: nothing.  Off (``None``) by default: a memoized lowering would
    #: miss a block parameter set after compile.  Only a model whose
    #: blocks no caller can reach turns it on — the private models
    #: :class:`~repro.service.model_cache.ModelCache` rebuilds from a
    #: content-addressed doc, where a changed parameter is a new entry.
    lowering_memo: Optional[dict] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, model: Model, dt: float) -> "CompiledModel":
        if dt <= 0:
            raise ValueError(f"base step must be positive, got {dt}")
        cm = cls(source=model, dt=dt)
        conns: list[tuple[str, int, str, int]] = []
        events: list[tuple[str, int, str]] = []
        _flatten(model, "", cm.nodes, conns, events)
        cm._validate_connections(conns)
        cm._validate_types(conns)
        cm._resolve_rates()
        cm._sort(conns)
        cm._allocate(conns)
        cm._wire_events(events)
        cm._compile_atomic_children()
        return cm

    # ------------------------------------------------------------------
    def _validate_connections(self, conns: list[tuple[str, int, str, int]]) -> None:
        seen: dict[tuple[str, int], int] = {}
        for _s, _sp, d, dp in conns:
            seen[(d, dp)] = seen.get((d, dp), 0) + 1
        for qname, block in self.nodes.items():
            for port in range(block.n_in):
                count = seen.get((qname, port), 0)
                if count == 0:
                    raise UnconnectedPortError(qname, port)
                if count > 1:
                    raise MultipleDriverError(qname, port)

    def _validate_types(self, conns: list[tuple[str, int, str, int]]) -> None:
        for s, sp, d, dp in conns:
            src_t = self.nodes[s].output_type(sp)
            want = self.nodes[d].expected_input_type(dp)
            if want is not None and want.name != src_t.name:
                raise TypeMismatchError(
                    f"line {s}:{sp} ({src_t.name}) -> {d}:{dp} expects {want.name}"
                )

    def _resolve_rates(self) -> None:
        for qname, block in self.nodes.items():
            ts = block.sample_time
            if SampleTime.is_discrete(ts):
                ratio = ts / self.dt
                k = round(ratio)
                if k < 1 or abs(ratio - k) > _RATE_TOL * max(1.0, ratio):
                    raise SampleTimeError(
                        f"block '{qname}' sample time {ts} is not an integer "
                        f"multiple of the base step {self.dt}"
                    )
                self.divisors[qname] = k
            else:
                # continuous and inherited blocks run every step
                self.divisors[qname] = 0

    def _sort(self, conns: list[tuple[str, int, str, int]]) -> None:
        # edges only along direct-feedthrough inputs
        succ: dict[str, set[str]] = {q: set() for q in self.nodes}
        indeg: dict[str, int] = {q: 0 for q in self.nodes}
        for s, _sp, d, dp in conns:
            if self.nodes[d].feeds_through(dp) and d not in succ[s]:
                succ[s].add(d)
                indeg[d] += 1
        # Kahn, deterministic by name
        ready = sorted(q for q, deg in indeg.items() if deg == 0)
        order: list[str] = []
        while ready:
            q = ready.pop(0)
            order.append(q)
            for t in succ[q]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
            ready.sort()
        if len(order) != len(self.nodes):
            raise AlgebraicLoopError(_find_cycle(succ, indeg))
        self.order = order

    def _allocate(self, conns: list[tuple[str, int, str, int]]) -> None:
        idx = 0
        for qname in self.order:
            block = self.nodes[qname]
            for port in range(block.n_out):
                self.sig_index[(qname, port)] = idx
                idx += 1
        self.n_signals = idx

        driver: dict[tuple[str, int], tuple[str, int]] = {}
        for s, sp, d, dp in conns:
            driver[(d, dp)] = (s, sp)
        for qname, block in self.nodes.items():
            self.input_map[qname] = [
                self.sig_index[driver[(qname, p)]] for p in range(block.n_in)
            ]

        off = 0
        for qname in self.order:
            n = self.nodes[qname].num_continuous_states
            self.state_offset[qname] = off
            self.state_count[qname] = n
            off += n
        self.n_states = off

    def _wire_events(self, events: list[tuple[str, int, str]]) -> None:
        for s, ep, d in events:
            if s not in self.nodes:
                raise ModelError(f"event source '{s}' is not an atomic block")
            if d not in self.nodes:
                raise ModelError(f"event target '{d}' is not an atomic block")
            self.event_targets.setdefault((s, ep), []).append(d)

    def _compile_atomic_children(self) -> None:
        for block in self.nodes.values():
            hook = getattr(block, "compile_atomic", None)
            if hook is not None:
                hook(self.dt)

    # ------------------------------------------------------------------
    # rate queries
    # ------------------------------------------------------------------
    def fundamental_rate(self) -> float:
        """The slowest common step of every discrete block (the timer rate)."""
        ks = [k for k in self.divisors.values() if k > 0]
        if not ks:
            return self.dt
        from math import gcd
        from functools import reduce

        return self.dt * reduce(gcd, ks)


def _flatten(
    model: Model,
    prefix: str,
    nodes: dict[str, Block],
    conns: list[tuple[str, int, str, int]],
    events: list[tuple[str, int, str]],
    dissolve: bool = False,
) -> None:
    """Collect atomic blocks and resolved lines.

    ``dissolve`` is True while inside a *virtual* subsystem, where Inport /
    Outport blocks are boundary markers and melt away.  At the top level
    (and inside a function-call subsystem's separately compiled interior)
    they are ordinary executable blocks.
    """
    from .library.subsystems import Subsystem, Inport, Outport

    for name, block in model.blocks.items():
        qname = prefix + name
        if isinstance(block, Subsystem):
            _flatten(block.inner, qname + ".", nodes, conns, events, dissolve=True)
        elif dissolve and isinstance(block, (Inport, Outport)):
            continue  # boundary markers dissolve during flattening
        else:
            if qname in nodes:
                raise ModelError(f"qualified name collision: '{qname}'")
            nodes[qname] = block

    for c in model.connections:
        src_block = model.blocks[c.src]
        dst_block = model.blocks[c.dst]
        if dissolve and (isinstance(src_block, Inport) or isinstance(dst_block, Outport)):
            continue  # handled when the outer line is resolved
        try:
            s, sp = _resolve_src(model, prefix, c.src, c.src_port, dissolve)
        except _PassThrough:
            raise ModelError(
                f"subsystem input wired straight to an output through "
                f"'{c.src}' — pass-through subsystems are not supported"
            ) from None
        for d, dp in _resolve_dsts(model, prefix, c.dst, c.dst_port):
            conns.append((s, sp, d, dp))

    for e in model.event_connections:
        events.append((prefix + e.src, e.event_port, prefix + e.dst))


class _PassThrough(Exception):
    pass


def _resolve_src(
    model: Model, prefix: str, name: str, port: int, dissolve: bool
) -> tuple[str, int]:
    from .library.subsystems import Subsystem, Inport

    block = model.blocks[name]
    if dissolve and isinstance(block, Inport):
        raise _PassThrough()
    if isinstance(block, Subsystem):
        outp = block.outport(port)
        drivers = block.inner.drivers_of(outp.name, 0)
        if len(drivers) != 1:
            raise UnconnectedPortError(f"{prefix}{name}.{outp.name}", 0)
        c = drivers[0]
        return _resolve_src(block.inner, prefix + name + ".", c.src, c.src_port, True)
    return (prefix + name, port)


def _resolve_dsts(
    model: Model, prefix: str, name: str, port: int
) -> list[tuple[str, int]]:
    from .library.subsystems import Subsystem

    block = model.blocks[name]
    if isinstance(block, Subsystem):
        inp = block.inport(port)
        consumers = block.inner.consumers_of(inp.name, 0)
        out: list[tuple[str, int]] = []
        for c in consumers:
            out.extend(_resolve_dsts(block.inner, prefix + name + ".", c.dst, c.dst_port))
        return out
    return [(prefix + name, port)]


def _find_cycle(succ: dict[str, set[str]], indeg: dict[str, int]) -> list[str]:
    """Extract one cycle from the remaining (non-sorted) subgraph for the
    AlgebraicLoopError message."""
    remaining = {q for q, d in indeg.items() if d > 0}
    start = sorted(remaining)[0]
    path: list[str] = []
    seen: dict[str, int] = {}
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        nxt = sorted(t for t in succ[node] if t in remaining)
        if not nxt:
            remaining.discard(node)
            node = sorted(remaining)[0] if remaining else node
            path.clear()
            seen.clear()
            continue
        node = nxt[0]
    return path[seen[node]:] + [node]
