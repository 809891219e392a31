"""Model container: blocks, connections, events.

A :class:`Model` is the in-memory equivalent of a Simulink ``.mdl`` diagram
— pure structure, no execution state.  ``Model.compile`` flattens the
hierarchy and produces a :class:`~repro.model.compiled.CompiledModel` that
both the :class:`~repro.model.engine.Simulator` (MIL) and the code
generator (:mod:`repro.codegen`) consume, which is precisely the paper's
*single model approach*: one diagram drives simulation and code generation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .block import Block
from .diagnostics import DuplicateNameError, ModelError


@dataclass(frozen=True)
class Connection:
    """A data line from ``(src block, src port)`` to ``(dst block, dst port)``."""

    src: str
    src_port: int
    dst: str
    dst_port: int


@dataclass(frozen=True)
class EventConnection:
    """A function-call line from an event port to a triggerable block."""

    src: str
    event_port: int
    dst: str


def _port(value) -> int:
    """A port number as a plain ``int``: a numpy integer would reach the
    model document as it is, which JSON cannot write."""
    try:
        return operator.index(value)
    except TypeError:
        raise ModelError(
            f"a port number must be an integer, not {type(value).__name__} "
            f"{value!r}"
        ) from None


class Model:
    """A block diagram under construction.

    Blocks are referenced by name; ``add`` returns the block so diagrams
    read naturally::

        m = Model("servo")
        step = m.add(Step("ref", final=1.0))
        ctrl = m.add(Gain("kp", gain=4.0))
        m.connect(step, ctrl)
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.blocks: dict[str, Block] = {}
        self.connections: list[Connection] = []
        self.event_connections: list[EventConnection] = []
        #: edit observers, called as fn(event, *names) with event in
        #: {"add", "remove", "rename"} — the COM automation interface the
        #: PE<->Simulink sync bus subscribes to
        self.observers: list = []

    def _notify(self, event: str, *names: str) -> None:
        for fn in self.observers:
            fn(event, *names)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, block: Block) -> Block:
        """Insert a block; names must be unique within the diagram."""
        if block.name in self.blocks:
            raise DuplicateNameError(f"duplicate block name '{block.name}'")
        self.blocks[block.name] = block
        self._notify("add", block.name)
        return block

    def remove(self, block: Union[Block, str]) -> None:
        """Delete a block and every line attached to it."""
        name = block if isinstance(block, str) else block.name
        if name not in self.blocks:
            raise ModelError(f"no block named '{name}'")
        del self.blocks[name]
        self.connections = [
            c for c in self.connections if c.src != name and c.dst != name
        ]
        self.event_connections = [
            e for e in self.event_connections if e.src != name and e.dst != name
        ]
        self._notify("remove", name)

    def rename(self, block: Union[Block, str], new_name: str) -> None:
        """Rename a block, rewriting attached lines."""
        old = block if isinstance(block, str) else block.name
        if old not in self.blocks:
            raise ModelError(f"no block named '{old}'")
        if new_name in self.blocks:
            raise DuplicateNameError(f"duplicate block name '{new_name}'")
        b = self.blocks.pop(old)
        b.name = new_name
        self.blocks[new_name] = b
        self.connections = [
            Connection(
                new_name if c.src == old else c.src,
                c.src_port,
                new_name if c.dst == old else c.dst,
                c.dst_port,
            )
            for c in self.connections
        ]
        self.event_connections = [
            EventConnection(
                new_name if e.src == old else e.src,
                e.event_port,
                new_name if e.dst == old else e.dst,
            )
            for e in self.event_connections
        ]
        self._notify("rename", old, new_name)

    def connect(
        self,
        src: Union[Block, str],
        dst: Union[Block, str],
        src_port: int = 0,
        dst_port: int = 0,
    ) -> Connection:
        """Wire a data line between two blocks already in the diagram.
        Ports may be any integers (numpy's too); they are stored as
        ``int``."""
        s = self._resolve(src)
        d = self._resolve(dst)
        src_port, dst_port = _port(src_port), _port(dst_port)
        if not (0 <= src_port < s.n_out):
            raise ModelError(f"block '{s.name}' has no output port {src_port}")
        if not (0 <= dst_port < d.n_in):
            raise ModelError(f"block '{d.name}' has no input port {dst_port}")
        conn = Connection(s.name, src_port, d.name, dst_port)
        self.connections.append(conn)
        return conn

    def connect_event(
        self, src: Union[Block, str], dst: Union[Block, str], event_port: int = 0
    ) -> EventConnection:
        """Wire a function-call line from ``src``'s event port to ``dst``.

        ``dst`` must be triggerable (a function-call subsystem or a chart);
        this is how the paper attaches interrupt handlers: "the events are
        represented as function-call ports in the PE blocks" (section 5).
        """
        s = self._resolve(src)
        d = self._resolve(dst)
        event_port = _port(event_port)
        if not (0 <= event_port < s.n_events):
            raise ModelError(f"block '{s.name}' has no event port {event_port}")
        if not getattr(d, "triggerable", False):
            raise ModelError(f"block '{d.name}' cannot be triggered by a function call")
        ev = EventConnection(s.name, event_port, d.name)
        self.event_connections.append(ev)
        return ev

    def _resolve(self, ref: Union[Block, str]) -> Block:
        name = ref if isinstance(ref, str) else ref.name
        try:
            return self.blocks[name]
        except KeyError:
            raise ModelError(f"no block named '{name}' in model '{self.name}'") from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def block(self, name: str) -> Block:
        """Look up a block by name."""
        return self._resolve(name)

    def drivers_of(self, dst: str, dst_port: int) -> list[Connection]:
        """All lines feeding ``(dst, dst_port)``."""
        return [c for c in self.connections if c.dst == dst and c.dst_port == dst_port]

    def consumers_of(self, src: str, src_port: int) -> list[Connection]:
        """All lines fed by ``(src, src_port)``."""
        return [c for c in self.connections if c.src == src and c.src_port == src_port]

    def blocks_of_type(self, cls: type) -> list[Block]:
        """All blocks that are instances of ``cls``."""
        return [b for b in self.blocks.values() if isinstance(b, cls)]

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------
    def compile(self, dt: float) -> "CompiledModel":
        """Flatten, validate and sort the diagram for execution at base
        step ``dt``.  See :class:`repro.model.compiled.CompiledModel`."""
        from .compiled import CompiledModel

        return CompiledModel.build(self, dt)

    def structural_signature(self) -> tuple:
        """A hashable summary of the diagram structure (blocks, lines).

        Used by experiment E9 to prove the *same* model object drives MIL,
        code generation and PIL with zero structural edits.
        """
        blocks = tuple(sorted((n, type(b).__name__) for n, b in self.blocks.items()))
        conns = tuple(sorted((c.src, c.src_port, c.dst, c.dst_port) for c in self.connections))
        events = tuple(sorted((e.src, e.event_port, e.dst) for e in self.event_connections))
        return (blocks, conns, events)

    def describe(self, indent: int = 0) -> str:
        """Human-readable diagram listing (blocks, lines, events), with
        subsystems expanded — the textual stand-in for the diagram canvas."""
        from .library.subsystems import Subsystem

        pad = "  " * indent
        lines = [f"{pad}Model '{self.name}'"]
        for name, block in self.blocks.items():
            ts = getattr(block, "sample_time", None)
            rate = (
                " [continuous]" if ts == 0.0
                else f" [Ts={ts:g}s]" if isinstance(ts, float) and ts > 0
                else ""
            )
            lines.append(f"{pad}  {name}: {type(block).__name__}{rate}")
            if isinstance(block, Subsystem):
                lines.append(block.inner.describe(indent + 2))
        for c in self.connections:
            lines.append(f"{pad}  {c.src}:{c.src_port} --> {c.dst}:{c.dst_port}")
        for e in self.event_connections:
            lines.append(f"{pad}  {e.src} ~[{e.event_port}]~> {e.dst}  (function-call)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Model '{self.name}': {len(self.blocks)} blocks, "
            f"{len(self.connections)} lines, {len(self.event_connections)} events>"
        )
