"""Kernel planning and the compiled fast path of the simulation engine.

The reference interpreter in :mod:`repro.model.engine` dispatches every
block through Python on every pass — correct, but the per-block overhead
(tuple unpacking, input-list allocation, rate tests) dominates the servo
MIL profile.  This module applies the RTW discipline the paper's code
generator uses on the target — *compile the block graph into a flat step
function* — to the host simulator itself:

* :func:`plan_kernels` classifies the topologically-sorted schedule:

  - **passive** sinks (Scope, Terminator, the PE config block) are dropped
    from the hot schedules entirely (scope logging is engine-side);
  - maximal runs of *affine* blocks (Gain, Bias, Sum, Constant — anything
    reporting :meth:`~repro.model.block.Block.affine_outputs`) are fused:
    long runs become one :class:`VectorAffineKernel` (`A @ sigs + b` in
    grouped-gather form), short runs become inline scalar expressions;
  - the remaining blocks stay block-by-block — the automatic fallback for
    triggered blocks, event emitters and arbitrary nonlinear contexts;
  - blocks are grouped by rate divisor into per-phase schedules over the
    hyperperiod, so the passes stop testing ``step % div`` per block;
  - the solver **minor-step schedule is pruned to the "dirty closure"**:
    a block re-evaluates off the major grid only if its outputs can
    actually change there (it holds continuous state, reads ``t``, or is
    fed through direct-feedthrough inputs by such a block).  Purity of
    ``outputs`` (the S-function contract) makes the pruning bit-exact.

* :class:`FastPath` turns a plan into generated flat pass functions
  (``exec``-compiled, constants and bound methods baked into default
  arguments) that the :class:`~repro.model.engine.Simulator` swaps in for
  its interpreted passes.

Every fused form follows the reference accumulation order
(``const + c0*u0 + c1*u1 + ...`` left to right), so fast-path and
reference-path trajectories are identical (``==``, not just close); the
equivalence matrix in ``tests/model/test_kernels.py`` asserts exactly
that over the whole block library, both solvers and mixed rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .block import Block

if TYPE_CHECKING:  # pragma: no cover
    from .compiled import CompiledModel
    from .engine import Simulator

#: Fused affine runs at least this long use the NumPy vector kernel;
#: shorter runs are emitted as inline scalar expressions (NumPy call
#: overhead beats the arithmetic below this size).
VECTOR_MIN_ROWS = 8

#: Per-phase schedules are generated only while the rate hyperperiod
#: stays this small; beyond it the generated pass keeps inline
#: ``step % div`` guards (still one test per *discrete* block only).
PHASE_CAP = 64


class KernelPlanError(Exception):
    """The planner/codegen could not build a fast path for this model;
    the engine falls back to the reference interpreter."""


# ---------------------------------------------------------------------------
# plan data model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AffineRow:
    """One fused output line: ``sigs[out_sig] = const + Σ coeffs·sigs[in_sigs]``."""

    qname: str
    out_sig: int
    coeffs: tuple[float, ...]
    in_sigs: tuple[int, ...]
    const: float
    level: int  # evaluation stratum inside the run (0 = inputs external)


@dataclass
class AffineRun:
    """A maximal run of consecutive affine blocks sharing one divisor."""

    divisor: int
    rows: list[AffineRow] = field(default_factory=list)
    qnames: list[str] = field(default_factory=list)

    @property
    def vectorized(self) -> bool:
        return len(self.rows) >= VECTOR_MIN_ROWS


@dataclass(frozen=True)
class BlockEntry:
    """A block executed through its Python callbacks (the fallback)."""

    qname: str
    divisor: int


@dataclass
class KernelPlan:
    """Static execution plan attached to a compiled model."""

    entries: list[Union[AffineRun, BlockEntry]]
    #: divisor-0 qnames whose outputs can change during solver minor steps
    #: (the dirty closure), in schedule order
    minor_qnames: list[str]
    #: qname -> affine rows, for blocks fused into runs
    affine_rows: dict[str, list[AffineRow]]
    #: passive blocks dropped from the hot schedules
    dropped: list[str]
    #: lcm of the discrete divisors (1 when the model is single-rate),
    #: or None when it exceeded PHASE_CAP
    hyperperiod: Optional[int]
    stats: dict = field(default_factory=dict)

    def report(self) -> dict:
        """Planner summary (used by diagnostics and DESIGN.md numbers)."""
        return dict(self.stats)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------
def _affine_spec(block: Block, n_states: int):
    """The block's affine description iff it is fusable at all."""
    if block.n_events or n_states or getattr(block, "triggerable", False):
        return None
    if type(block).update is not Block.update:  # stateful: update overridden
        return None
    spec = block.affine_outputs()
    if spec is None:
        return None
    if len(spec) != block.n_out:
        return None
    for coeffs, const in spec:
        if len(coeffs) != block.n_in:
            return None
        if not all(math.isfinite(c) for c in coeffs) or not math.isfinite(const):
            return None
    return spec


def plan_kernels(cm: "CompiledModel") -> KernelPlan:
    """Partition the schedule into fused affine runs + fallback entries,
    and compute the minor-step dirty closure and rate hyperperiod."""
    entries: list[Union[AffineRun, BlockEntry]] = []
    affine_rows: dict[str, list[AffineRow]] = {}
    dropped: list[str] = []

    run: Optional[AffineRun] = None
    run_levels: dict[int, int] = {}  # out signal -> producing row level

    def flush():
        nonlocal run
        if run is not None:
            entries.append(run)
            run = None
            run_levels.clear()

    for qname in cm.order:
        block = cm.nodes[qname]
        if getattr(block, "triggerable", False):
            continue
        if getattr(block, "passive", False):
            dropped.append(qname)
            continue
        div = cm.divisors[qname]
        spec = _affine_spec(block, cm.state_count[qname])
        if spec is None:
            flush()
            entries.append(BlockEntry(qname, div))
            continue
        if run is not None and run.divisor != div:
            flush()
        if run is None:
            run = AffineRun(divisor=div)
        in_sigs = tuple(cm.input_map[qname])
        level = max((run_levels.get(s, -1) for s in in_sigs), default=-1) + 1
        rows = []
        for port, (coeffs, const) in enumerate(spec):
            row = AffineRow(
                qname=qname,
                out_sig=cm.sig_index[(qname, port)],
                coeffs=tuple(float(c) for c in coeffs),
                in_sigs=in_sigs,
                const=float(const),
                level=level,
            )
            rows.append(row)
            run.rows.append(row)
            run_levels[row.out_sig] = level
        run.qnames.append(qname)
        affine_rows[qname] = rows
    flush()

    # --- minor-step dirty closure (divisor-0 blocks only) -----------------
    sig_producer = {idx: q for (q, _p), idx in cm.sig_index.items()}
    dirty: set[str] = set()
    minor_qnames: list[str] = []
    for qname in cm.order:
        block = cm.nodes[qname]
        if getattr(block, "triggerable", False) or getattr(block, "passive", False):
            continue
        if cm.divisors[qname] != 0:
            continue
        is_dirty = cm.state_count[qname] > 0 or not getattr(
            block, "time_invariant", False
        )
        if not is_dirty:
            for port, sig in enumerate(cm.input_map[qname]):
                if block.feeds_through(port) and sig_producer.get(sig) in dirty:
                    is_dirty = True
                    break
        if is_dirty:
            dirty.add(qname)
            minor_qnames.append(qname)

    # --- rate hyperperiod -------------------------------------------------
    divisors = sorted({e.divisor for e in entries if e.divisor > 0})
    hyper: Optional[int] = 1
    for k in divisors:
        hyper = hyper * k // math.gcd(hyper, k)
        if hyper > PHASE_CAP:
            hyper = None
            break

    n_affine = sum(len(r.qnames) for r in entries if isinstance(r, AffineRun))
    n_minor_total = sum(
        1
        for q in cm.order
        if cm.divisors[q] == 0 and not getattr(cm.nodes[q], "triggerable", False)
    )
    stats = {
        "blocks": len(cm.order),
        "scheduled": sum(
            len(e.qnames) if isinstance(e, AffineRun) else 1 for e in entries
        ),
        "affine_fused": n_affine,
        "affine_runs": sum(1 for e in entries if isinstance(e, AffineRun)),
        "vector_runs": sum(
            1 for e in entries if isinstance(e, AffineRun) and e.vectorized
        ),
        "passive_dropped": len(dropped),
        "minor_blocks": len(minor_qnames),
        "minor_blocks_reference": n_minor_total,
        "hyperperiod": hyper,
    }
    return KernelPlan(
        entries=entries,
        minor_qnames=minor_qnames,
        affine_rows=affine_rows,
        dropped=dropped,
        hyperperiod=hyper,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# vector kernel
# ---------------------------------------------------------------------------
class VectorAffineKernel:
    """Fused executor for one long affine run.

    Rows are grouped by (level, arity); each group evaluates as
    ``y = consts + c0*U[:,0] + c1*U[:,1] + ...`` — column-wise
    accumulation is exactly the per-row left-to-right order of the
    reference blocks, so results match bit for bit.  Levels evaluate in
    order with scatter in between, so intra-run data dependencies see
    fresh values.  No padding columns exist, so a non-finite signal can
    never leak a spurious ``0*inf`` NaN into unrelated rows.
    """

    __slots__ = ("groups",)

    def __init__(self, rows: list[AffineRow]):
        grouped: dict[tuple[int, int], list[AffineRow]] = {}
        for r in rows:
            grouped.setdefault((r.level, len(r.coeffs)), []).append(r)
        self.groups = []
        for (_lvl, arity), rs in sorted(grouped.items()):
            flat_idx = tuple(s for r in rs for s in r.in_sigs)
            consts = np.array([r.const for r in rs])
            cols = [
                np.array([r.coeffs[j] for r in rs]) for j in range(arity)
            ]
            outs = tuple(r.out_sig for r in rs)
            self.groups.append((flat_idx, consts, cols, outs, arity))

    def apply(self, sigs: list) -> None:
        for flat_idx, consts, cols, outs, arity in self.groups:
            if arity:
                u = np.array([sigs[i] for i in flat_idx]).reshape(-1, arity)
                y = consts + cols[0] * u[:, 0]
                for j in range(1, arity):
                    y = y + cols[j] * u[:, j]
                vals = y.tolist()
            else:
                vals = consts.tolist()
            for k, out in enumerate(outs):
                sigs[out] = vals[k]


class BatchAffineKernel:
    """Fused affine run over a whole ``(n_signals, B)`` signal matrix.

    The batch-axis sibling of :class:`VectorAffineKernel`: rows group by
    (level, arity) and each group evaluates
    ``Y = consts + c0*U[:, 0] + c1*U[:, 1] + ...`` where every operand
    now carries a trailing lane axis.  Coefficients and constants are
    ``(rows, 1)`` columns when all lanes share them, or ``(rows, B)``
    matrices when scenario overrides made them per-lane; broadcasting
    performs the identical IEEE-754 multiply/add per lane either way, so
    lanes stay bit-for-bit equal to the scalar reference.

    ``rows`` duck-types :class:`AffineRow` — ``coeffs`` entries and
    ``const`` may each be a float or a ``(B,)`` array.
    """

    __slots__ = ("groups",)

    def __init__(self, rows, n_lanes: int):
        def column(values):
            # scalars are plain floats; anything else is a (B,) lane column
            if any(not isinstance(v, (int, float)) for v in values):
                return np.vstack([
                    v if not isinstance(v, (int, float))
                    else np.full(n_lanes, float(v))
                    for v in values
                ])
            return np.array([float(v) for v in values]).reshape(-1, 1)

        grouped: dict[tuple[int, int], list] = {}
        for r in rows:
            grouped.setdefault((r.level, len(r.coeffs)), []).append(r)
        self.groups = []
        for (_lvl, arity), rs in sorted(grouped.items()):
            flat_idx = np.array([s for r in rs for s in r.in_sigs],
                                dtype=np.intp)
            consts = column([r.const for r in rs])
            cols = [column([r.coeffs[j] for r in rs]) for j in range(arity)]
            outs = np.array([r.out_sig for r in rs], dtype=np.intp)
            self.groups.append((flat_idx, consts, cols, outs, arity, len(rs)))

    def make_apply(self, S: np.ndarray):
        """A pass callable bound to one signal matrix (ignores ``t``) that
        evaluates every row for every lane and scatters into ``S`` rows."""
        groups = self.groups

        def run(_t: float, _S=S, _groups=groups) -> None:
            for flat_idx, consts, cols, outs, arity, n_rows in _groups:
                if arity:
                    u = _S[flat_idx].reshape(n_rows, arity, -1)
                    y = consts + cols[0] * u[:, 0]
                    for j in range(1, arity):
                        y = y + cols[j] * u[:, j]
                    _S[outs] = y
                else:
                    _S[outs] = consts

        return run


# ---------------------------------------------------------------------------
# fused trigger kernel (lane compaction of event dispatch)
# ---------------------------------------------------------------------------
class FusedTriggerKernel:
    """One triggered :class:`FunctionCallSubsystem` call, replayed for a
    whole *set* of lanes at once.

    The batch engine's per-lane fallback pays a full Python
    ``AtomicExecutor`` pass per fired lane per event.  When the inner
    diagram is a feed-forward arrangement of Inports, Outports and
    stateless affine blocks, one call is a pure function of the outer
    input signals — so ``K`` fired lanes can be evaluated as ``(K,)``
    vector rows in the subsystem's exact schedule order:

    * ``("inject", row, outer_sig)`` — gather the outer signal into the
      inner scratch row (the Inport's latched value),
    * ``("affine", row, coeffs, in_rows, const)`` — evaluate
      ``const + c0*u0 + c1*u1 + ...`` left-to-right, the reference
      accumulation order, on inner scratch rows,
    * latches — scatter each Outport's source row back onto the outer
      signal matrix, exactly what ``_execute_triggered`` writes.

    :func:`plan_fused_trigger` only builds a kernel when the replay is
    provably equivalent to the per-lane executor: no inner state, no
    back-edges (every read row is produced earlier in the same pass),
    full Outport coverage of the output ports.  Lanes are independent
    columns, so evaluating a *subset* of lanes (``lanes`` index array)
    is the compaction move: diverged events re-pack their fired lanes
    into one fused apply instead of looping Python per lane.
    """

    __slots__ = ("program", "latches", "n_rows", "_T")

    def __init__(self, program, latches, n_rows: int, n_lanes: int):
        self.program = program
        self.latches = latches
        self.n_rows = n_rows
        self._T = np.empty((n_rows, n_lanes))

    def apply(self, S, lanes, width: int) -> None:
        """Execute one triggered call for ``width`` lanes.

        ``lanes`` is an index array selecting the fired columns of
        ``S``, or ``None`` for the full batch.
        """
        sel = slice(None) if lanes is None else lanes
        T = self._T[:, :width] if width != self._T.shape[1] else self._T
        for op in self.program:
            if op[0] == "inject":
                T[op[1]] = S[op[2], sel]
            else:
                _tag, row, coeffs, in_rows, const = op
                y = const
                for c, r in zip(coeffs, in_rows):
                    y = y + c * T[r]
                T[row] = y
        for out_sig, src_row in self.latches:
            S[out_sig, sel] = T[src_row]


def plan_fused_trigger(block, outer_in_sigs, outer_out_sigs, n_lanes: int):
    """Build a :class:`FusedTriggerKernel` for a triggered subsystem, or
    ``None`` when one call is not a pure affine function of the outer
    inputs (stateful inner blocks, back-edges, partial Outport coverage,
    non-port non-affine inner blocks — anything the per-lane executor
    must keep handling)."""
    from .library.subsystems import FunctionCallSubsystem, Inport, Outport

    if not isinstance(block, FunctionCallSubsystem):
        return None
    cm = getattr(block, "_cm", None)
    if cm is None or cm.n_states:
        return None
    n_out = block.n_out
    if len(outer_out_sigs) != n_out:
        return None
    program: list[tuple] = []
    produced: set[int] = set()
    latch_row: dict[int, int] = {}
    for qname in cm.order:
        b = cm.nodes[qname]
        if isinstance(b, Inport):
            if b.index >= len(outer_in_sigs):
                return None
            row = cm.sig_index[(qname, 0)]
            program.append(("inject", row, outer_in_sigs[b.index]))
            produced.add(row)
            continue
        if isinstance(b, Outport):
            src = cm.input_map[qname][0]
            if src not in produced:
                return None
            latch_row[b.index] = src
            continue
        spec = _affine_spec(b, cm.state_count[qname])
        if spec is None:
            return None
        in_rows = tuple(cm.input_map[qname])
        if any(r not in produced for r in in_rows):
            return None  # back-edge: one call reads previous-call state
        for port, (coeffs, const) in enumerate(spec):
            row = cm.sig_index[(qname, port)]
            program.append((
                "affine", row,
                tuple(float(c) for c in coeffs), in_rows, float(const),
            ))
            produced.add(row)
    # every output port must be freshly latched, otherwise ctx.dwork["y"]
    # holdover values would be observable and the replay incomplete
    if sorted(latch_row) != list(range(n_out)):
        return None
    latches = [(outer_out_sigs[i], latch_row[i]) for i in range(n_out)]
    return FusedTriggerKernel(program, latches, cm.n_signals, n_lanes)


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------
def _affine_expr(row: AffineRow) -> str:
    parts: list[str] = []
    if row.const != 0.0 or not row.coeffs:
        parts.append(repr(row.const))
    for c, s in zip(row.coeffs, row.in_sigs):
        ref = f"sigs[{s}]"
        if not parts:
            if c == 1.0:
                parts.append(ref)
            elif c == -1.0:
                parts.append(f"-{ref}")
            else:
                parts.append(f"{c!r} * {ref}")
        elif c == 1.0:
            parts.append(f"+ {ref}")
        elif c == -1.0:
            parts.append(f"- {ref}")
        else:
            parts.append(f"+ {c!r} * {ref}")
    return " ".join(parts)


def _gather_expr(in_idx) -> str:
    if not in_idx:
        return "_E"
    return "(" + "".join(f"sigs[{i}], " for i in in_idx) + ")"


@dataclass(frozen=True)
class _Fragment:
    divisor: int
    lines: tuple[str, ...]


class FastPath:
    """Generated flat pass functions for one :class:`Simulator` instance.

    Exposes ``out_major(t, step)``, ``out_minor(t)``, ``update(t, step)``
    and ``deriv(t, xdot)`` with the exact semantics of the reference
    interpreter passes (event dispatch points included).
    """

    def __init__(self, sim: "Simulator", plan: KernelPlan):
        self.plan = plan
        cm = sim.cm
        self._code_cache = getattr(cm, "codegen_cache", None)
        if self._code_cache is None:
            self._code_cache = {}
        ns: dict = {
            "_E": (),
            "_dsp": sim._dispatch_events,
            "_pend": sim._pending_events,
            "_sigs": sim.signals,
        }
        self._ns = ns
        out_frags: list[_Fragment] = []
        upd_frags: list[_Fragment] = []
        n = 0
        for entry in plan.entries:
            if isinstance(entry, AffineRun):
                if entry.vectorized:
                    ns[f"K{n}"] = VectorAffineKernel(entry.rows)
                    out_frags.append(
                        _Fragment(entry.divisor, (f"K{n}.apply(sigs)",))
                    )
                    n += 1
                else:
                    lines = tuple(
                        f"sigs[{r.out_sig}] = {_affine_expr(r)}"
                        for r in entry.rows
                    )
                    out_frags.append(_Fragment(entry.divisor, lines))
                continue
            qname = entry.qname
            block = cm.nodes[qname]
            ctx = sim._ctxs[qname]
            ns[f"o{n}"] = block.outputs
            ns[f"c{n}"] = ctx
            in_idx = cm.input_map[qname]
            out_idx = [cm.sig_index[(qname, p)] for p in range(block.n_out)]
            lines = [f"r = o{n}(t, {_gather_expr(in_idx)}, c{n})"]
            lines += [f"sigs[{j}] = float(r[{p}])" for p, j in enumerate(out_idx)]
            if block.n_events:
                lines.append("if _pend: _dsp()")
            out_frags.append(_Fragment(entry.divisor, tuple(lines)))
            if type(block).update is not Block.update:
                ns[f"u{n}"] = block.update
                upd_frags.append(
                    _Fragment(
                        entry.divisor,
                        (f"u{n}(t, {_gather_expr(in_idx)}, c{n})",),
                    )
                )
            n += 1

        # ---- minor pass over the dirty closure ---------------------------
        minor_lines: list[str] = []
        minor_ctxs: list[str] = []
        for qname in plan.minor_qnames:
            block = cm.nodes[qname]
            rows = plan.affine_rows.get(qname)
            if rows is not None:
                minor_lines += [
                    f"sigs[{r.out_sig}] = {_affine_expr(r)}" for r in rows
                ]
                continue
            cname = f"c{n}"
            ns[cname] = sim._ctxs[qname]
            ns[f"o{n}"] = block.outputs
            in_idx = cm.input_map[qname]
            out_idx = [cm.sig_index[(qname, p)] for p in range(block.n_out)]
            minor_lines.append(f"{cname}.minor = True")
            minor_lines.append(f"r = o{n}(t, {_gather_expr(in_idx)}, {cname})")
            minor_lines.append(f"{cname}.minor = False")
            minor_lines += [
                f"sigs[{j}] = float(r[{p}])" for p, j in enumerate(out_idx)
            ]
            minor_ctxs.append(cname)
            n += 1

        # ---- derivative pass --------------------------------------------
        deriv_lines: list[str] = []
        for qname in cm.order:
            cnt = cm.state_count[qname]
            if not cnt:
                continue
            block = cm.nodes[qname]
            off = cm.state_offset[qname]
            ns[f"d{n}"] = block.derivatives
            ns[f"c{n}"] = sim._ctxs[qname]
            in_idx = cm.input_map[qname]
            deriv_lines.append(
                f"xdot[{off}:{off + cnt}] = d{n}(t, {_gather_expr(in_idx)}, c{n})"
            )
            n += 1

        self.out_major = self._build_phased(
            "out", out_frags, plan.hyperperiod, prologue=("if _pend: _dsp()",)
        )
        self.update = self._build_phased("upd", upd_frags, plan.hyperperiod)
        self.out_minor = self._compile(
            "_minor",
            "t",
            minor_lines or ["pass"],
            guard_ctxs=minor_ctxs,
        )
        self.deriv = self._compile("_deriv", "t, xdot", deriv_lines or ["pass"])

    # ------------------------------------------------------------------
    def _compile(self, name, params, lines, guard_ctxs=()):
        body = "\n".join("    " + ln for ln in lines)
        if guard_ctxs:
            reset = "; ".join(f"{c}.minor = False" for c in guard_ctxs)
            body = (
                "    try:\n"
                + "\n".join("        " + ln for ln in lines)
                + "\n    except BaseException:\n"
                + f"        {reset}\n"
                + "        raise"
            )
        src = (
            f"def {name}({params}, sigs=_sigs, _pend=_pend, _dsp=_dsp, "
            f"float=float, _E=_E):\n{body}\n"
        )
        code = self._code_cache.get(src)
        if code is None:
            try:
                code = compile(src, f"<kernel:{name}>", "exec")
            except SyntaxError as exc:  # pragma: no cover - codegen bug guard
                raise KernelPlanError(f"generated pass failed to compile: {exc}")
            self._code_cache[src] = code
        exec(code, self._ns)
        return self._ns[name]

    def _build_phased(self, tag, frags, hyper, prologue=()):
        """One function per hyperperiod phase (or a single guarded one)."""
        if hyper is None:
            lines = list(prologue)
            for f in frags:
                if f.divisor == 0:
                    lines += list(f.lines)
                else:
                    lines.append(f"if not step % {f.divisor}:")
                    lines += ["    " + ln for ln in f.lines]
            fn = self._compile(f"_{tag}_guarded", "t, step", lines or ["pass"])
            return fn
        fns = []
        for phase in range(hyper):
            lines = list(prologue)
            for f in frags:
                if f.divisor == 0 or phase % f.divisor == 0:
                    lines += list(f.lines)
            fns.append(
                self._compile(f"_{tag}_p{phase}", "t", lines or ["pass"])
            )
        if hyper == 1:
            only = fns[0]
            return lambda t, step: only(t)

        def run(t, step, _fns=tuple(fns), _h=hyper):
            _fns[step % _h](t)

        return run
