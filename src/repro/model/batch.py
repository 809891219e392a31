"""Ensemble batch execution: B scenario variants of one compiled model.

The paper's workflow (sections 4-5) is inherently many-run — MIL
validation sweeps, fault grids, parameter studies all re-simulate the
same diagram under varied parameters.  Running those variants one by one
pays the full per-step interpreter cost per variant; running them as
*lanes* of one ensemble pays the set-up once.

:class:`BatchSimulator` has two executors.  The first is **native
lanes**: when the model lowers to C (:mod:`repro.native`), every lane is
one context on one compiled artifact — block parameters are context
data (``P``), so lanes differ only in their ``P``/``DW`` vectors, made
by re-emitting just the blocks the scenarios override
(:meth:`~repro.native.emit.NativeProgram.relower`).  A lane whose
override selects another emitted form (a gain of exactly -1) gets an
artifact of its own.  Without a ``step_hook`` each lane runs whole
chunks in C, writing its rows straight into the lane-major log, with
``SimulationOptions.cancel`` polled between chunks; the lanes of a
chunk step as contiguous groups, one per usable CPU, on threads
(:class:`~repro.native.executor.LaneGroups`).  With a hook, the lanes
advance in lockstep so the hook sees every lane at each step.
``S``/``X`` are then ``(n, B)`` views of the lanes' ``(B, n)`` buffers,
so taps read and write the same way on both executors.

Both executors log into lane-major buffers: scope samples in one
``(B, capacity, n_scopes)`` array and, with ``log_all_signals``, signal
rows in one ``(B, capacity, n_signals)`` array.  Lane ``b``'s rows of a
chunk are contiguous there, exactly what ``nx_run`` writes; per-step
logging writes through ``(capacity, B)`` views of the same buffers.

The second, the **numpy engine**, takes the whole ensemble when native
lanes cannot bind (wired function-call subsystems, no toolchain,
``native=False``/``REPRO_NATIVE=off``, a form that fails to lower,
``"auto"`` while the artifact is still building); the reason is
counted once in ``kernel_fallback_total{reason}`` and kept in
:attr:`BatchSimulator.native_fallback_reason`.  It carries a trailing
batch axis through every pass (the batch-dimension trick of
TrueTime-style co-simulation studies and modern inference servers):

* every signal is promoted from a scalar to a ``(B,)`` row of one
  ``(n_signals, B)`` matrix, every continuous state to a row of one
  ``(n_states, B)`` matrix;
* the schedule is partitioned into three executor classes —

  - **batch-affine runs**: maximal runs of affine blocks fuse into a
    :class:`~repro.model.kernels.BatchAffineKernel`; scenario overrides
    on affine parameters become per-lane ``(B,)`` coefficient columns,
  - **vectorized blocks**: blocks opting in through the
    :meth:`~repro.model.block.Block.supports_batch` protocol evaluate
    all lanes in one call (the servo plant's hot path),
  - **per-lane fallback**: everything else — stateful discrete
    controllers, event emitters, triggered subsystems — executes lane
    by lane on per-lane deep copies, so arbitrary Python blocks and
    per-lane parameter overrides always work;

* event/trigger hits diverge per lane: each lane owns its own pending
  queue entries and triggered-subsystem clones, and the run counts the
  lanes that *skipped* an event some other lane took
  (``lanes_diverged``, also a ``repro.obs`` counter).

Bit-exactness contract: a batched lane is **identical** (``==``, not
just close) to a serial :class:`~repro.model.engine.Simulator` run of
the same scenario.  Every vectorized form performs the same IEEE-754
operations elementwise in the same association order as its scalar
original — the solver keeps the engine's exact expression shapes, the
affine kernel keeps the ``const + c0*u0 + c1*u1`` accumulation order,
and vectorized blocks are hand-audited (``np.where`` selects between
both-branch results that equal the scalar branches).  The equivalence
matrix in ``tests/model/test_batch.py`` pins this across the block
library, both solvers, mixed rates, events, and the servo case study.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..obs.trace import get_tracer
from .block import Block, BlockContext
from .compiled import CompiledModel
from .engine import (
    SimulationCancelled,
    SimulationOptions,
    Simulator,
    advance_steps,
)
from .graph import Model
from .kernels import (
    BatchAffineKernel,
    FusedTriggerKernel,
    _affine_spec,
    plan_fused_trigger,
    plan_kernels,
)
from .result import BatchSimulationResult


class BatchPlanError(Exception):
    """The scenario set cannot be mapped onto the model."""


@dataclass(frozen=True)
class BatchScenario:
    """One lane of an ensemble run.

    ``overrides`` maps a qualified block name to ``{attribute: value}``
    assignments applied to that lane's copy of the block (or folded into
    per-lane affine coefficients when the block is affine).  A plain
    mapping can be passed to :class:`BatchSimulator` instead.
    """

    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    label: Optional[str] = None


@dataclass
class _BatchRow:
    """Affine row whose coefficients may be per-lane ``(B,)`` columns."""

    qname: str
    out_sig: int
    coeffs: tuple
    in_sigs: tuple[int, ...]
    const: Any
    level: int


class _AffineEntry:
    """A fused affine run over the whole signal matrix."""

    __slots__ = ("divisor", "kernel", "qnames")

    def __init__(self, divisor: int, kernel: BatchAffineKernel, qnames: list[str]):
        self.divisor = divisor
        self.kernel = kernel
        self.qnames = qnames


class _BatchEntry:
    """One vectorized block: all lanes evaluated in a single call."""

    __slots__ = ("divisor", "block", "ctx", "in_rows", "out_idx", "S",
                 "off", "n_states", "has_update")

    def __init__(self, divisor, block, ctx, in_rows, out_idx, S, off, n_states):
        self.divisor = divisor
        self.block = block
        self.ctx = ctx
        self.in_rows = in_rows
        self.out_idx = out_idx
        self.S = S
        self.off = off
        self.n_states = n_states
        self.has_update = type(block).update is not Block.update

    def out(self, t: float) -> None:
        r = self.block.batch_outputs(t, self.in_rows, self.ctx)
        S = self.S
        for j, row in zip(self.out_idx, r):
            S[j] = row

    def out_minor(self, t: float) -> None:
        ctx = self.ctx
        ctx.minor = True
        try:
            r = self.block.batch_outputs(t, self.in_rows, ctx)
        finally:
            ctx.minor = False
        S = self.S
        for j, row in zip(self.out_idx, r):
            S[j] = row

    def update(self, t: float) -> None:
        self.block.batch_update(t, self.in_rows, self.ctx)

    def deriv(self, t: float, xdot: np.ndarray) -> None:
        rows = self.block.batch_derivatives(t, self.in_rows, self.ctx)
        off = self.off
        for k in range(self.n_states):
            xdot[off + k] = rows[k]


class _LaneEntry:
    """Per-lane fallback: lane ``b`` runs its own deep-copied block."""

    __slots__ = ("divisor", "qname", "blocks", "ctxs", "in_idx", "out_idx",
                 "S", "sim", "off", "n_states", "has_update", "fires", "_u")

    def __init__(self, divisor, qname, blocks, ctxs, in_idx, out_idx, S, sim,
                 off, n_states):
        self.divisor = divisor
        self.qname = qname
        self.blocks = blocks
        self.ctxs = ctxs
        self.in_idx = in_idx
        self.out_idx = out_idx
        self.S = S
        self.sim = sim
        self.off = off
        self.n_states = n_states
        self.has_update = type(blocks[0]).update is not Block.update
        self.fires = blocks[0].n_events > 0
        # scratch input row, refilled per lane per pass (the engine's
        # scratch-array discipline: blocks must not retain ``u``)
        self._u = [0.0] * len(in_idx)

    def out(self, t: float) -> None:
        S = self.S
        in_idx, out_idx = self.in_idx, self.out_idx
        sim = self.sim
        u = self._u
        for b, (blk, ctx) in enumerate(zip(self.blocks, self.ctxs)):
            for k, i in enumerate(in_idx):
                u[k] = S[i, b]
            out = blk.outputs(t, u, ctx)
            for j, v in zip(out_idx, out):
                S[j, b] = v
        # lanes are independent columns, so firing order across lanes is
        # immaterial; flushing once per entry (instead of inside the lane
        # loop) lets the dispatcher group fired lanes per event — each
        # lane's "ISR" still reads exactly that lane's current data
        if sim._pending:
            sim._flush_dispatch()

    def out_minor(self, t: float) -> None:
        S = self.S
        in_idx, out_idx = self.in_idx, self.out_idx
        u = self._u
        for b, (blk, ctx) in enumerate(zip(self.blocks, self.ctxs)):
            for k, i in enumerate(in_idx):
                u[k] = S[i, b]
            ctx.minor = True
            try:
                out = blk.outputs(t, u, ctx)
            finally:
                ctx.minor = False
            for j, v in zip(out_idx, out):
                S[j, b] = v

    def update(self, t: float) -> None:
        S = self.S
        in_idx = self.in_idx
        u = self._u
        for b, (blk, ctx) in enumerate(zip(self.blocks, self.ctxs)):
            for k, i in enumerate(in_idx):
                u[k] = S[i, b]
            blk.update(t, u, ctx)

    def deriv(self, t: float, xdot: np.ndarray) -> None:
        S = self.S
        in_idx = self.in_idx
        u = self._u
        off, n = self.off, self.n_states
        for b, (blk, ctx) in enumerate(zip(self.blocks, self.ctxs)):
            for k, i in enumerate(in_idx):
                u[k] = S[i, b]
            xdot[off : off + n, b] = blk.derivatives(t, u, ctx)


class BatchSimulator:
    """Runs ``B`` scenarios of one compiled model as batch lanes.

    Mirrors the :class:`~repro.model.engine.Simulator` lifecycle —
    ``initialize`` + ``advance`` for incremental use, :meth:`run` for the
    common case — and honours the same :class:`SimulationOptions`
    (``use_kernels`` is ignored: batching *is* the kernel path;
    ``native`` selects between native lanes and the numpy engine as it
    does for one run, with ``"auto"`` counting the block-steps of all
    lanes).
    """

    def __init__(
        self,
        model: Union[Model, CompiledModel],
        scenarios: Sequence[Union[BatchScenario, Mapping[str, Mapping[str, Any]]]],
        options: SimulationOptions,
        compaction: bool = True,
    ):
        self.options = options
        self.cm = model if isinstance(model, CompiledModel) else model.compile(options.dt)
        if self.cm.dt != options.dt:
            raise ValueError("compiled model base step differs from options.dt")
        self.scenarios = [
            s if isinstance(s, BatchScenario) else BatchScenario(overrides=dict(s))
            for s in scenarios
        ]
        if not self.scenarios:
            raise BatchPlanError("a batch needs at least one scenario")
        self.n_lanes = len(self.scenarios)
        self.labels = [
            s.label if s.label is not None else f"lane{b}"
            for b, s in enumerate(self.scenarios)
        ]
        cm = self.cm
        self.S = np.zeros((cm.n_signals, self.n_lanes))
        self.X = np.zeros((cm.n_states, self.n_lanes))
        self.step_index = 0
        self.time = 0.0
        self._pending: deque[tuple[str, int, int]] = deque()
        self._fired: dict[tuple[str, int], int] = {}
        self._lanes_diverged = 0
        self._diverged_events = 0
        # lane compaction (fused trigger dispatch)
        self._compaction = bool(compaction)
        self._trig_fused: dict[str, FusedTriggerKernel] = {}
        self._fused_dispatches = 0
        self._fused_lane_dispatches = 0
        self._compacted_dispatches = 0
        self._compacted_lane_dispatches = 0
        self._perlane_dispatches = 0
        self._fused_counted = 0
        self._compacted_counted = 0
        # solver work buffers (vector RK4 over the whole state matrix)
        shape = (cm.n_states, self.n_lanes)
        self._X0 = np.zeros(shape)
        self._K = [np.zeros(shape) for _ in range(4)]
        # schedules (populated by initialize)
        self._out_pass: list[tuple[int, Callable[[float], None]]] = []
        self._minor_pass: list[Callable[[float], None]] = []
        self._upd_pass: list[tuple[int, Callable[[float], None]]] = []
        self._deriv_pass: list[Callable[[float, np.ndarray], None]] = []
        self._scope_sched: list[tuple[str, int]] = []
        self._trig: dict[str, list[tuple[Block, BlockContext]]] = {}
        self._trig_out: dict[str, list[int]] = {}
        self._trig_u: dict[str, list] = {}
        self._terminate: list[tuple[Block, BlockContext]] = []
        self._t_log: Optional[np.ndarray] = None
        #: lane-major logs, ``(B, capacity, n_scopes)`` and (with
        #: ``log_all_signals``) ``(B, capacity, n_signals)``
        self._scope_log: Optional[np.ndarray] = None
        self._trace_log: Optional[np.ndarray] = None
        #: per-step views of those: ``(capacity, B)`` per scope, and
        #: ``(capacity, n_signals, B)``
        self._scope_buf: dict[str, np.ndarray] = {}
        self._trace: Optional[np.ndarray] = None
        self._log_len = 0
        self.plan_stats: dict = {}
        #: one bound native context per lane, in thread groups (a
        #: ``LaneGroups``; None on the numpy engine)
        self._lanes = None
        #: why native lanes were not bound (None when they are)
        self.native_fallback_reason: Optional[str] = None
        self._initialized = False
        self._tracer = get_tracer()

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def native_active(self) -> bool:
        return self._lanes is not None

    @property
    def substrate(self) -> str:
        """``"native"`` on native lanes, else ``"numpy"``."""
        return "native" if self._lanes is not None else "numpy"

    @property
    def lanes_diverged(self) -> int:
        """Lanes that skipped an event some other lane took (cumulative)."""
        return self._lanes_diverged

    @property
    def compaction_stats(self) -> dict:
        """Fused-trigger dispatch accounting (cumulative).

        ``recovered_lane_steps`` counts lane-dispatches that events had
        *diverged* (a strict subset of lanes fired) yet still ran inside
        a fused kernel — exactly the work the pre-compaction engine paid
        per-lane Python fallback for.
        """
        return {
            "fused_dispatches": self._fused_dispatches,
            "fused_lane_dispatches": self._fused_lane_dispatches,
            "compacted_dispatches": self._compacted_dispatches,
            "compacted_lane_dispatches": self._compacted_lane_dispatches,
            "perlane_dispatches": self._perlane_dispatches,
            "recovered_lane_steps": self._compacted_lane_dispatches,
        }

    # ------------------------------------------------------------------
    # planning / initialization
    # ------------------------------------------------------------------
    def _validate_scenarios(self) -> None:
        nodes = self.cm.nodes
        for b, sc in enumerate(self.scenarios):
            for qname, attrs in sc.overrides.items():
                block = nodes.get(qname)
                if block is None:
                    raise BatchPlanError(
                        f"scenario {b} overrides unknown block '{qname}'"
                    )
                if getattr(block, "passive", False):
                    raise BatchPlanError(
                        f"scenario {b} overrides passive block '{qname}'"
                    )
                for attr in attrs:
                    if not hasattr(block, attr):
                        raise BatchPlanError(
                            f"scenario {b}: block '{qname}' has no "
                            f"attribute '{attr}'"
                        )

    def _lane_affine_specs(self, block: Block, qname: str, n_states: int):
        """Per-lane affine specs under each scenario's overrides, read off
        lane clones (the shared model is never mutated), or None when any
        lane's override breaks the affine form."""
        specs = []
        for b in range(self.n_lanes):
            spec = _affine_spec(self._clone_for_lane(block, qname, b), n_states)
            if spec is None:
                return None
            specs.append(spec)
        return specs

    @staticmethod
    def _batch_capable(block: Block, n_states: int) -> bool:
        if not block.supports_batch():
            return False
        t = type(block)
        if t.batch_outputs is Block.batch_outputs:
            return False
        if n_states and t.batch_derivatives is Block.batch_derivatives:
            return False
        if t.update is not Block.update and t.batch_update is Block.batch_update:
            return False
        return True

    def _clone_for_lane(self, block: Block, qname: str, lane: int) -> Block:
        """A lane-private copy (blocks like FunctionCallSubsystem keep
        executor state on ``self``, so sharing one instance across lanes
        would entangle them), with that lane's overrides applied."""
        clone = copy.deepcopy(block)
        for attr, value in self.scenarios[lane].overrides.get(qname, {}).items():
            try:
                setattr(clone, attr, value)
            except AttributeError as exc:
                raise BatchPlanError(
                    f"scenario {lane}: cannot set '{qname}.{attr}': {exc}"
                ) from exc
        return clone

    def _make_fire(self, qname: str, lane: int) -> Callable[[int], None]:
        pending = self._pending
        fired = self._fired

        def fire(event_port: int) -> None:
            pending.append((qname, event_port, lane))
            key = (qname, event_port)
            fired[key] = fired.get(key, 0) + 1

        return fire

    def initialize(self) -> None:
        """Validate scenarios, then bind native lanes or else plan the
        numpy engine."""
        t0 = perf_counter()
        self._validate_scenarios()
        if not self._bind_lanes():
            self._plan_engine()
        self._initialized = True
        tr = self._tracer
        if tr.enabled:
            tr.complete("batch.plan", "batch", t0, args=dict(self.plan_stats))

    # ------------------------------------------------------------------
    # native lanes
    # ------------------------------------------------------------------
    def _bind_lanes(self) -> bool:
        """Bind every lane as a context on a compiled artifact, or record
        why the ensemble stays on the numpy engine.

        The base model goes once through the engine's native rung (one
        plan, one ``generate_program``, one artifact).  Each lane then
        re-emits only the overridden blocks, on its own started clones,
        for its ``P``/``DW`` vectors; a lane whose clones render another
        form lowers a TU of its own through the same rung.  Any refusal
        leaves the whole ensemble to the numpy engine, with the rung's
        reason counted once.  The shared compiled model is never mutated:
        forms are lowered from shallow copies holding the clones."""
        cm, B = self.cm, self.n_lanes
        base = Simulator(cm, self.options)
        mode = base._native_mode()
        if mode is False:
            return self._stay_on_engine(base, "disabled")
        base._start()
        artifact = base._native_artifact(mode, base._plan_kernels(), lanes=B)
        if artifact is None:
            return self._stay_on_engine(base)
        if artifact[0].held:
            return self._stay_on_engine(
                base, "plan_refused", "held outputs are shared by every lane")
        overridden = sorted({q for sc in self.scenarios for q in sc.overrides})
        S = np.zeros((B, cm.n_signals))
        X = np.zeros((B, cm.n_states))
        started = [(cm.nodes[q], base._ctxs[q]) for q in cm.order]
        forms = [artifact]
        bound = []
        for b, sc in enumerate(self.scenarios):
            X[b] = base.x
            blocks = {q: self._start_clone(q, b, X[b]) if q in sc.overrides
                      else (cm.nodes[q], base._ctxs[q]) for q in overridden}
            started += [blocks[q] for q in sc.overrides]
            for program, so_path in forms:
                vectors = program.relower(blocks)
                if vectors is not None:
                    break
            else:
                form_cm = copy.copy(cm)
                form_cm.nodes = {**cm.nodes,
                                 **{q: blk for q, (blk, _c) in blocks.items()}}
                form_cm.lowering_memo = None  # the base's lowering, not the clones'
                sim = Simulator(form_cm, self.options)
                sim._start()
                form = sim._native_artifact(mode, sim._plan_kernels(), lanes=B)
                if form is None:
                    return self._stay_on_engine(sim)
                forms.append(form)
                program, so_path = form
                vectors = (None, None)  # the program's own vectors
            bound.append((program, so_path, vectors))
        from ..native.executor import LaneGroups, NativePath

        try:
            lanes = [
                NativePath(program, so_path, S[b], X[b], params=p, dwork=dw)
                for b, (program, so_path, (p, dw)) in enumerate(bound)
            ]
        except Exception as exc:  # dlopen/ABI trouble: the numpy engine
            return self._stay_on_engine(base, "compile_error",
                                        f"load failed: {exc}")
        self._lanes = LaneGroups(lanes, len(base._sched))
        self.S, self.X = S.T, X.T
        self._scope_sched = list(base._scope_sched)
        self._terminate = started
        self.plan_stats = {
            "lanes": B,
            "substrate": "native",
            "forms": len(forms),
            "overridden_blocks": len(overridden),
            "lane_groups": len(self._lanes.groups),
        }
        return True

    def _start_clone(self, qname: str, lane: int, x: np.ndarray):
        """``(clone, ctx)``: lane ``lane``'s copy of ``qname`` started on
        a fresh context over the lane's state row ``x``."""
        cm = self.cm
        block = self._clone_for_lane(cm.nodes[qname], qname, lane)
        off, n = cm.state_offset[qname], cm.state_count[qname]
        if n:
            x[off : off + n] = np.asarray(block.initial_continuous_states())
        ctx = BlockContext()
        ctx.x = x[off : off + n]
        block.start(ctx)
        return block, ctx

    def _stay_on_engine(self, sim: Simulator, reason: Optional[str] = None,
                        detail: str = "") -> bool:
        """Keep ``sim``'s recorded fallback (or record ``reason`` on it,
        counted once) as the ensemble's."""
        if reason is not None:
            sim._native_fallback(reason, detail)
        self.native_fallback_reason = sim.native_fallback_reason
        return False

    def _run_lanes(self, n_steps: int) -> int:
        """``n_steps`` major steps on every lane: one ``nx_run`` call per
        lane chunk, writing its scope (and trace) rows in place into the
        lane-major logs, the lanes split into thread groups; ``cancel``
        is polled before each chunk, on the calling thread.  Returns the
        most groups any chunk ran on."""
        dt = self.options.dt
        cancel = self.options.cancel
        n0 = self._log_len
        if self._t_log is None or self._t_log.shape[0] < n0 + n_steps:
            self._grow_logs(n0 + n_steps)
        scope_log, trace_log = self._scope_log, self._trace_log
        chunk = Simulator._NATIVE_CHUNK
        groups = 1
        for done in range(0, n_steps, chunk):
            step = self.step_index
            if cancel is not None and cancel():
                raise SimulationCancelled(step)
            n = min(chunk, n_steps - done)
            rows = slice(n0 + done, n0 + done + n)
            groups = max(groups, self._lanes.run_chunk(
                step, n, scope_log[:, rows],
                None if trace_log is None else trace_log[:, rows]))
            # t = step * dt per step, the product advance() forms
            self._t_log[rows] = np.arange(step, step + n) * dt
            self._log_len = n0 + done + n
            self.step_index = step + n
            self.time = self.step_index * dt
        return groups

    # ------------------------------------------------------------------
    # numpy engine
    # ------------------------------------------------------------------
    def _plan_engine(self) -> None:
        """Partition the schedule into batch-affine / vectorized /
        per-lane entries and initialise per-lane state."""
        cm = self.cm
        B = self.n_lanes
        S, X = self.S, self.X
        plan = plan_kernels(cm)  # reuse the structural minor-step closure
        overridden = {q for sc in self.scenarios for q in sc.overrides}

        from .library.sinks import Scope

        # qname -> ("affine", run_id, rows) | entry object, for minor pass
        by_qname: dict[str, Any] = {}
        out_entries: list[Any] = []
        n_affine_rows = n_batch = n_lane = n_trig = 0

        run_rows: list[_BatchRow] = []
        run_qnames: list[str] = []
        run_levels: dict[int, int] = {}
        run_divisor = 0
        run_id = 0

        def flush_run():
            nonlocal run_rows, run_qnames, run_id
            if run_rows:
                out_entries.append(
                    _AffineEntry(
                        run_divisor,
                        BatchAffineKernel(run_rows, B),
                        run_qnames,
                    )
                )
                run_rows, run_qnames = [], []
                run_levels.clear()
                run_id += 1

        for qname in cm.order:
            block = cm.nodes[qname]
            off, n_states = cm.state_offset[qname], cm.state_count[qname]

            if getattr(block, "triggerable", False):
                lanes = []
                for b in range(B):
                    clone = self._clone_for_lane(block, qname, b)
                    ctx = BlockContext()
                    if n_states:
                        X[off : off + n_states, b] = np.asarray(
                            clone.initial_continuous_states(), dtype=np.float64
                        )
                    ctx.x = X[off : off + n_states, b]
                    ctx._fire = self._make_fire(qname, b)
                    clone.start(ctx)
                    lanes.append((clone, ctx))
                    self._terminate.append((clone, ctx))
                self._trig[qname] = lanes
                self._trig_out[qname] = [
                    cm.sig_index[(qname, p)] for p in range(block.n_out)
                ]
                self._trig_u[qname] = [0.0] * len(cm.input_map[qname])
                if self._compaction and qname not in overridden:
                    kern = plan_fused_trigger(
                        block, cm.input_map[qname], self._trig_out[qname], B
                    )
                    if kern is not None:
                        self._trig_fused[qname] = kern
                n_trig += 1
                continue

            if getattr(block, "passive", False):
                ctx = BlockContext()
                block.start(ctx)
                self._terminate.append((block, ctx))
                if isinstance(block, Scope):
                    self._scope_sched.append((qname, cm.input_map[qname][0]))
                continue

            div = cm.divisors[qname]
            in_sigs = tuple(cm.input_map[qname])

            # --- affine classification (per-lane coeffs under overrides)
            spec = _affine_spec(block, n_states)
            lane_specs = None
            if spec is not None and qname in overridden:
                lane_specs = self._lane_affine_specs(block, qname, n_states)
                if lane_specs is None:
                    spec = None
            if spec is not None:
                if run_rows and run_divisor != div:
                    flush_run()
                run_divisor = div
                level = (
                    max((run_levels.get(s, -1) for s in in_sigs), default=-1) + 1
                )
                rows = []
                for port in range(block.n_out):
                    if lane_specs is None:
                        coeffs = tuple(float(c) for c in spec[port][0])
                        const: Any = float(spec[port][1])
                    else:
                        coeffs = tuple(
                            self._lane_column(
                                [ls[port][0][j] for ls in lane_specs]
                            )
                            for j in range(block.n_in)
                        )
                        const = self._lane_column(
                            [ls[port][1] for ls in lane_specs]
                        )
                    row = _BatchRow(
                        qname=qname,
                        out_sig=cm.sig_index[(qname, port)],
                        coeffs=coeffs,
                        in_sigs=in_sigs,
                        const=const,
                        level=level,
                    )
                    rows.append(row)
                    run_rows.append(row)
                    run_levels[row.out_sig] = level
                run_qnames.append(qname)
                by_qname[qname] = ("affine", run_id, rows)
                n_affine_rows += len(rows)
                ctx = BlockContext()
                block.start(ctx)
                self._terminate.append((block, ctx))
                continue

            flush_run()
            out_idx = [cm.sig_index[(qname, p)] for p in range(block.n_out)]

            if qname not in overridden and self._batch_capable(block, n_states):
                ctx = BlockContext()
                if n_states:
                    X[off : off + n_states, :] = np.asarray(
                        block.initial_continuous_states(), dtype=np.float64
                    ).reshape(n_states, 1)
                ctx.x = X[off : off + n_states, :]
                block.start(ctx)
                entry: Any = _BatchEntry(
                    div, block, ctx, [S[i] for i in in_sigs], out_idx, S,
                    off, n_states,
                )
                self._terminate.append((block, ctx))
                n_batch += 1
            else:
                blocks, ctxs = [], []
                for b in range(B):
                    clone = self._clone_for_lane(block, qname, b)
                    ctx = BlockContext()
                    if n_states:
                        X[off : off + n_states, b] = np.asarray(
                            clone.initial_continuous_states(), dtype=np.float64
                        )
                    ctx.x = X[off : off + n_states, b]
                    ctx._fire = self._make_fire(qname, b)
                    clone.start(ctx)
                    blocks.append(clone)
                    ctxs.append(ctx)
                    self._terminate.append((clone, ctx))
                entry = _LaneEntry(
                    div, qname, blocks, ctxs, in_sigs, out_idx, S, self,
                    off, n_states,
                )
                n_lane += 1
            out_entries.append(entry)
            by_qname[qname] = entry
            if entry.has_update:
                self._upd_pass.append((div, entry.update))
            if n_states:
                self._deriv_pass.append(entry.deriv)
        flush_run()

        self._out_pass = [
            (e.divisor, e.kernel.make_apply(S) if isinstance(e, _AffineEntry) else e.out)
            for e in out_entries
        ]

        # --- minor pass over the structural dirty closure ------------------
        acc_rows: list[_BatchRow] = []
        acc_run = -1

        def flush_minor():
            nonlocal acc_rows
            if acc_rows:
                self._minor_pass.append(
                    BatchAffineKernel(acc_rows, B).make_apply(S)
                )
                acc_rows = []

        for qname in plan.minor_qnames:
            item = by_qname.get(qname)
            if item is None:
                continue
            if isinstance(item, tuple):
                _tag, rid, rows = item
                # fuse only rows of one original run: levels are per-run,
                # so mixing runs could reorder a cross-run dependency
                if acc_rows and rid != acc_run:
                    flush_minor()
                acc_run = rid
                acc_rows.extend(rows)
            else:
                flush_minor()
                self._minor_pass.append(item.out_minor)
        flush_minor()

        scheduled = n_affine_rows + n_batch + n_lane
        self.plan_stats = {
            "lanes": B,
            "substrate": "numpy",
            "affine_rows": n_affine_rows,
            "affine_kernels": sum(
                1 for e in out_entries if isinstance(e, _AffineEntry)
            ),
            "batch_blocks": n_batch,
            "lane_blocks": n_lane,
            "triggered_blocks": n_trig,
            "fused_triggers": len(self._trig_fused),
            "minor_entries": len(self._minor_pass),
            "overridden_blocks": len(overridden),
            "vectorized_fraction": (
                (n_affine_rows + n_batch) / scheduled if scheduled else 1.0
            ),
        }

    def _lane_column(self, values: list) -> Any:
        """Scalar when all lanes agree, else a ``(B,)`` column."""
        first = float(values[0])
        if all(float(v) == first for v in values):
            return first
        return np.array([float(v) for v in values])

    # ------------------------------------------------------------------
    # event dispatch
    # ------------------------------------------------------------------
    def _flush_dispatch(self) -> None:
        """Drain the pending queue, grouping adjacent fires of the same
        event into one multi-lane dispatch.

        The queue is lane-major (emitters fire inside their lane loop),
        so the common case — one event port fired by ``K`` lanes —
        becomes a single group.  Lanes are independent columns: merging
        adjacent same-event entries only reorders work *across* lanes,
        never within one lane, so the serial per-lane ordering (and with
        it bit-identity) is preserved.  Groups dispatch through the
        target's :class:`FusedTriggerKernel` when one was planned —
        full-width when every lane fired, *compacted* onto the fired
        subset when the event diverged — and lane-by-lane otherwise.
        Targets that fire during execution re-enter the census, matching
        the old FIFO cascade order.
        """
        pending = self._pending
        targets = self.cm.event_targets
        trig_fused = self._trig_fused
        B = self.n_lanes
        while pending:
            qname, event_port, lane = pending.popleft()
            lanes = [lane]
            while (
                pending
                and pending[0][0] == qname
                and pending[0][1] == event_port
            ):
                lanes.append(pending.popleft()[2])
            K = len(lanes)
            for target in targets.get((qname, event_port), ()):
                kern = trig_fused.get(target)
                if kern is None:
                    for b in lanes:
                        self._execute_triggered(target, b)
                    self._perlane_dispatches += K
                    continue
                if K == B and len(set(lanes)) == B:
                    kern.apply(self.S, None, B)
                else:
                    kern.apply(self.S, np.array(lanes, dtype=np.intp), K)
                    self._compacted_dispatches += 1
                    self._compacted_lane_dispatches += K
                clones = self._trig[target]
                for b in lanes:
                    clones[b][0].call_count += 1
                self._fused_dispatches += 1
                self._fused_lane_dispatches += K

    def _execute_triggered(self, qname: str, lane: int) -> None:
        block, ctx = self._trig[qname][lane]
        S = self.S
        u = self._trig_u[qname]
        for k, i in enumerate(self.cm.input_map[qname]):
            u[k] = S[i, lane]
        out = block.outputs(self.time, u, ctx)
        for j, v in zip(self._trig_out[qname], out):
            S[j, lane] = v
        block.update(self.time, u, ctx)

    def _flush_fired(self) -> None:
        B = self.n_lanes
        for cnt in self._fired.values():
            if cnt < B:
                self._lanes_diverged += B - cnt
                self._diverged_events += 1
        self._fired.clear()

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def _out_major(self, t: float, step: int) -> None:
        for div, fn in self._out_pass:
            if div and step % div:
                continue  # discrete block holds between hits
            fn(t)

    def _out_minor(self, t: float) -> None:
        for fn in self._minor_pass:
            fn(t)

    def _update(self, t: float, step: int) -> None:
        for div, fn in self._upd_pass:
            if div == 0 or step % div == 0:
                fn(t)

    def _deriv(self, t: float, xdot: np.ndarray) -> None:
        for fn in self._deriv_pass:
            fn(t, xdot)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _integrate(self, t: float) -> None:
        if self.cm.n_states == 0:
            return
        dt = self.options.dt
        deriv = self._deriv
        X = self.X
        X0 = self._X0
        k1, k2, k3, k4 = self._K
        # the engine's exact expression shapes: ``x0 + half_dt*k1``,
        # ``sixth*(k1 + 2*k2 + 2*k3 + k4)`` — elementwise IEEE-identical
        # to the serial solver's scalar loop
        if self.options.solver == "euler":
            deriv(t, k1)
            X += dt * k1
            return
        X0[:] = X
        half_dt = 0.5 * dt
        half = t + half_dt
        sixth = dt / 6.0
        deriv(t, k1)
        X[:] = X0 + half_dt * k1
        self._out_minor(half)
        deriv(half, k2)
        X[:] = X0 + half_dt * k2
        self._out_minor(half)
        deriv(half, k3)
        X[:] = X0 + dt * k3
        self._out_minor(t + dt)
        deriv(t + dt, k4)
        X[:] = X0 + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def advance(self) -> float:
        """Execute one major step on every lane; returns the new time."""
        if not self._initialized:
            raise RuntimeError("call initialize() first")
        t = self.time
        step = self.step_index
        if self._lanes is not None:
            # lockstep: every lane's output half, then the log row and the
            # hook over all lanes, then every lane's update + integration
            lanes = self._lanes.lanes
            for lane in lanes:
                lane.out_major(step)
            self._log_step(t)
            if self.options.step_hook is not None:
                self.options.step_hook(t, self)
            for lane in lanes:
                lane.finish(step)
        else:
            self._out_major(t, step)
            if self._fired:
                self._flush_fired()
            self._log_step(t)
            if self.options.step_hook is not None:
                self.options.step_hook(t, self)
            self._update(t, step)
            self._integrate(t)
        self.step_index = step + 1
        self.time = self.step_index * self.options.dt
        return self.time

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def _reserve_logs(self, n_steps: int) -> None:
        if self._t_log is None or self._t_log.shape[0] < n_steps:
            self._grow_logs(n_steps)

    def _grow_logs(self, capacity: int) -> None:
        """Re-allocate every log with room for ``capacity`` steps,
        keeping the rows logged so far, and re-point the views."""
        B = self.n_lanes
        n = self._log_len
        t_log = np.empty(capacity)
        if n:
            t_log[:n] = self._t_log[:n]
        self._t_log = t_log

        def grown(old, width):
            new = np.empty((B, capacity, width))
            if n:
                new[:, :n] = old[:, :n]
            return new

        self._scope_log = grown(self._scope_log, len(self._scope_sched))
        self._scope_buf = {
            qname: self._scope_log[:, :, k].T
            for k, (qname, _idx) in enumerate(self._scope_sched)
        }
        if self.options.log_all_signals:
            self._trace_log = grown(self._trace_log, self.cm.n_signals)
            self._trace = self._trace_log.transpose(1, 2, 0)

    def _log_step(self, t: float) -> None:
        n = self._log_len
        if self._t_log is None or n >= self._t_log.shape[0]:
            self._grow_logs(max(64, 2 * n))
        self._t_log[n] = t
        S = self.S
        for qname, idx in self._scope_sched:
            self._scope_buf[qname][n] = S[idx]
        if self.options.log_all_signals:
            self._trace[n] = S
        self._log_len = n + 1

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> BatchSimulationResult:
        """Run all lanes from t=0 to ``t_final`` and collect the logs."""
        if not self._initialized:
            self.initialize()
        n_steps = int(round(self.options.t_final / self.options.dt)) + 1
        self._reserve_logs(n_steps)
        tr = self._tracer
        if not tr.enabled:
            self._run_steps(n_steps)
            self._count_run(n_steps)
            return self.result()
        opts = self.options
        with tr.span("batch.run", cat="batch", args={
            "lanes": self.n_lanes, "dt": opts.dt, "t_final": opts.t_final,
            "solver": opts.solver, "steps": n_steps,
            "substrate": self.substrate,
        }) as span:
            groups = self._run_steps(n_steps)
            if span is not None:
                span.args["lanes_diverged"] = self._lanes_diverged
                span.args["lane_groups"] = groups
        self._count_run(n_steps)
        return self.result()

    def _run_steps(self, n_steps: int) -> int:
        """Run ``n_steps``; returns the most thread groups a chunk of
        them ran on (1 on the calling thread alone)."""
        if self._lanes is not None and self.options.step_hook is None:
            return self._run_lanes(n_steps)
        advance_steps(self, n_steps)
        return 1

    def _count_run(self, n_steps: int) -> None:
        from ..obs.metrics import get_registry

        reg = get_registry()
        reg.counter("batch_runs_total", "batch ensemble runs").inc(1)
        reg.counter(
            "batch_lane_steps_total", "major steps x lanes executed in batch"
        ).inc(n_steps * self.n_lanes)
        if self._diverged_events:
            reg.counter(
                "batch_lanes_diverged_total",
                "lanes that skipped an event another lane took",
            ).inc(self._lanes_diverged)
            self._diverged_events = 0
        if self._fused_lane_dispatches != self._fused_counted:
            reg.counter(
                "batch_fused_lane_dispatches_total",
                "triggered lane-calls executed through fused kernels",
            ).inc(self._fused_lane_dispatches - self._fused_counted)
            self._fused_counted = self._fused_lane_dispatches
        if self._compacted_lane_dispatches != self._compacted_counted:
            reg.counter(
                "batch_compacted_lane_dispatches_total",
                "fused lane-calls recovered from diverged (subset) events",
            ).inc(self._compacted_lane_dispatches - self._compacted_counted)
            self._compacted_counted = self._compacted_lane_dispatches

    def result(self) -> BatchSimulationResult:
        """Assemble a :class:`BatchSimulationResult` from the logs so far."""
        n = self._log_len
        t = self._t_log[:n].copy() if self._t_log is not None else np.empty(0)
        signals: dict[str, np.ndarray] = {}
        for qname, _idx in self._scope_sched:
            label = getattr(self.cm.nodes[qname], "label", None) or qname
            signals[label] = self._scope_buf[qname][:n].copy()
        if self.options.log_all_signals and n:
            trace = self._trace
            for (qname, port), idx in self.cm.sig_index.items():
                signals.setdefault(f"{qname}:{port}", trace[:n, idx, :].copy())
        for block, ctx in self._terminate:
            block.terminate(ctx)
        return BatchSimulationResult(t, signals, self.labels)

    # ------------------------------------------------------------------
    # external access (co-simulation style taps, now lane-addressed)
    # ------------------------------------------------------------------
    def read_signal(self, qname: str, port: int = 0, lane: Optional[int] = None):
        """Current value(s) on an output line: ``(B,)`` copy, or a float
        for one lane."""
        row = self.S[self.cm.sig_index[(qname, port)]]
        return row.copy() if lane is None else float(row[lane])

    def write_signal(
        self, qname: str, port: int, value, lane: Optional[int] = None
    ) -> None:
        """Force a value onto an output line — all lanes (scalar or
        ``(B,)``) or one lane."""
        idx = self.cm.sig_index[(qname, port)]
        if lane is None:
            self.S[idx] = value
        else:
            self.S[idx, lane] = float(value)


def simulate_batch(
    model: Union[Model, CompiledModel],
    scenarios: Sequence[Union[BatchScenario, Mapping[str, Mapping[str, Any]]]],
    t_final: float,
    dt: float = 1e-3,
    solver: str = "rk4",
    compaction: bool = True,
    **kwargs,
) -> BatchSimulationResult:
    """One-call convenience wrapper: compile (if needed) and run a batch."""
    opts = SimulationOptions(dt=dt, t_final=t_final, solver=solver, **kwargs)
    return BatchSimulator(model, scenarios, opts, compaction=compaction).run()
