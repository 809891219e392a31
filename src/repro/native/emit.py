"""Lowering a :class:`~repro.model.kernels.KernelPlan` to one C
translation unit.

The generated TU mirrors the engine's pass structure exactly — major
output pass over the plan entries (affine rows inline, template blocks
per block), the pruned minor pass, the rate-guarded update pass, the
derivative pass, and the fixed-step integrator with the reference
association order — so a compiled run is bit-identical (atol=0) to the
reference interpreter.

The minor pass evaluates at RK4 stages 2 and 3 only the blocks some
derivative reads (:func:`_deriv_closure`); the rest of the plan's minor
blocks sit inside ``if (full)``, which only stage 4 of the last step of
an ``nx_run`` call sets.  Nothing reads what they write before the next
major pass rewrites it, so the one copy a caller can observe — the
signals an ``nx_run`` call returns with — is the reference's.

The TU is reentrant: it has no mutable file-scope state.  Every entry
point takes an ``nx_ctx`` — a struct of pointers to buffers the Python
executor owns (signals, continuous state, discrete work, integrator
scratch, parameters, held-output slots) — so any number of simulators,
on any threads, can share one loaded library.  It exports one symbol:

``void nx_run(const nx_ctx *c, long long start, long long n,
double *scope_out, double *trace_out)``
    ``n`` major steps from step ``start``, each writing its scope row
    (and, unless ``trace_out`` is NULL, its full signal row).  A whole
    run calls it per chunk; a per-step ``Simulator.advance`` (the PIL
    plant, traced runs) calls it with ``n = 1``.

The TU carries structure only.  Every value a template or affine row
emits (``BlockEmitter.lit``, affine constants and coefficients,
``const_arr`` tables) becomes a slot of the program's parameter vector
(:attr:`NativeProgram.params`, one slot per emitted value in emission
order) that the C code reads as ``P[k]`` through the context; what stays
in the text is block types, wiring, rates, sizes, ``DT`` and the forms a
value selects (the ±1/0 affine shortcuts, template branches).  Design
points of one diagram therefore lower to one TU, and one compiled
artifact serves them all.  The text is deterministic (no timestamps,
stable iteration orders), so it doubles as the compile-cache key
material and as golden-test content.

A program is its structure — the TU text, sizes, scope rows, the ``P``
vector and its owners, the ``DW`` layout — plus a per-run part: the
``DW`` init vector read from the run's started contexts and the held
buffers its blocks own (:meth:`NativeProgram.for_run`), derived on
every bind.  A compiled model's lowering memo keeps the structure alone
(:meth:`NativeProgram.structure`) and lowers nothing on a repeat run.

Emission is per block (:class:`Lowering`): the program keeps, for each
block, the text it rendered at each of its sites, so
:meth:`NativeProgram.relower` can re-emit a handful of blocks alone —
an ensemble lane's overridden clones — into the same ``P`` slots and
``DW`` slice, and tell from the text whether they still render the same
form.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.model.block import Block
from repro.model.kernels import AffineRun, KernelPlan, _affine_spec

#: Bump when emitted C changes shape — part of the disk-cache key, so
#: stale artifacts from older emitters can never be dlopen'ed.
TEMPLATE_VERSION = "7"


class NativeLoweringError(Exception):
    """The model cannot be lowered to native C (unsupported block,
    wired events, ...); the engine falls back to the Python paths."""


def clit(v: float) -> str:
    """Exact C99 literal for a Python float (hex float notation keeps
    every bit; negatives are parenthesized so token pasting like
    ``- -0x1p+0`` can never produce ``--``)."""
    v = float(v)
    if math.isinf(v):
        return "INFINITY" if v > 0 else "(-INFINITY)"
    if math.isnan(v):
        return "NAN"
    h = v.hex()
    return f"({h})" if h.startswith("-") else h


def _affine_c(const: float, coeffs, in_sigs, tu: "_TU") -> str:
    """C mirror of :func:`repro.model.kernels._affine_expr` for one
    :class:`~repro.model.kernels.AffineRow` — identical term order and
    association (C ``+``/``-`` are left-associative and ``*`` binds
    tighter, exactly like the Python expression).  The constant and every
    coefficient but ±1 are parameter slots of the block being emitted."""
    param = tu.param
    parts: list[str] = []
    if const != 0.0 or not coeffs:
        parts.append(param(const))
    for c, s in zip(coeffs, in_sigs):
        ref = f"S[{s}]"
        if not parts:
            if c == 1.0:
                parts.append(ref)
            elif c == -1.0:
                parts.append(f"-{ref}")
            else:
                parts.append(f"{param(c)} * {ref}")
        elif c == 1.0:
            parts.append(f"+ {ref}")
        elif c == -1.0:
            parts.append(f"- {ref}")
        else:
            parts.append(f"+ {param(c)} * {ref}")
    return " ".join(parts)


class BlockEmitter:
    """Per-block emission context handed to native templates."""

    def __init__(self, tu: "_TU", rec: "_Rec"):
        self._tu = tu
        self.rec = rec
        self.lines: list[str] = []

    def u(self, i: int) -> str:
        return f"S[{self.rec.ins[i]}]"

    def y(self, p: int) -> str:
        return f"S[{self.rec.outs[p]}]"

    def dw(self, fld: str, k: int = 0) -> str:
        return f"DW[{self.rec.offs[fld] + k}]"

    def dw_index(self, fld: str) -> int:
        return self.rec.offs[fld]

    def x(self, i: int) -> str:
        return f"X[{self.rec.x0 + i}]"

    def xd(self, i: int) -> str:
        return f"XD[{self.rec.x0 + i}]"

    def held(self, i: int) -> str:
        """Slot ``i`` of the block's held-output buffer (see
        :meth:`~repro.native.templates.NativeTemplate.held`)."""
        k, n = self.rec.held or (None, 0)
        if not 0 <= i < n:
            raise NativeLoweringError(
                f"held slot {i} outside the block's {n}-slot buffer"
            )
        return f"c->H[{k}][{i}]"

    def lit(self, v: float) -> str:
        """A block parameter: a new ``P`` slot holding ``v``."""
        return self._tu.param(v)

    def tmp(self) -> str:
        self._tu.n_tmp += 1
        return f"v{self._tu.n_tmp}"

    def line(self, s: str) -> None:
        self.lines.append(s)

    def const_arr(self, values) -> str:
        """A parameter table: consecutive ``P`` slots, indexable as
        ``<expr>[i]``."""
        first = self._tu.next_slot()
        for v in values:
            self._tu.param(v)
        return f"(P + {first})"


@dataclass
class _TU:
    params: list = field(default_factory=list)  # P[k] values
    owners: list = field(default_factory=list)  # the qname behind each slot
    n_tmp: int = 0
    #: the block being emitted (owner of the slots :meth:`param` adds)
    qname: str = ""

    def param(self, v: float) -> str:
        self.params.append(float(v))
        self.owners.append(self.qname)
        return f"P[{len(self.params) - 1}]"

    def next_slot(self) -> int:
        """The ``P`` index the next value will take."""
        return len(self.params)


class _BlockTU(_TU):
    """One block re-emitted alone: its ``j``-th value renders as the
    block's ``j``-th slot of the whole TU, so an unchanged form renders
    the base text."""

    def __init__(self, slots: list[int]):
        super().__init__()
        self.slots = slots

    def param(self, v: float) -> str:
        self.params.append(float(v))
        return f"P[{self._slot(len(self.params) - 1)}]"

    def next_slot(self) -> int:
        return self._slot(len(self.params))

    def _slot(self, j: int) -> int:
        # an index no base text holds, so a form with more values differs
        return self.slots[j] if j < len(self.slots) else -1 - j


@dataclass
class _Rec:
    """A template-lowered block: template, discrete-work layout and
    slice, held-output slot, and its emitter inputs (resolved once per
    lowering, for every site and re-emission)."""

    tpl: Any
    layout: list
    offs: dict  # field -> absolute DW index
    dw0: int
    n_dw: int
    held: Optional[tuple]  # (slot in the context's H table, length)
    ins: tuple  # the input signals' indices
    outs: tuple  # the output signals' indices
    x0: int  # first continuous-state index


class Lowering:
    """How a program's blocks were emitted, kept so that one block can be
    re-emitted alone (:meth:`NativeProgram.relower`)."""

    def __init__(self, cm, plan: KernelPlan, recs: dict):
        self.cm = cm
        self.plan = plan
        self.recs = recs
        #: qname -> ``[(method, first tmp number, lines)]``, one per TU site
        self.sites: dict[str, list] = {}
        self._slots: Optional[dict] = None

    def emit(self, tu: _TU, qname: str, block, method: str,
             rows=None) -> list[str]:
        """What one block contributes to one pass: its affine ``rows``'
        statements (``(out_sig, const, coeffs, in_sigs)`` each), or else
        the lines its template's ``method`` emits."""
        tu.qname = qname
        if rows is not None:
            return [f"  S[{out}] = {_affine_c(const, coeffs, ins, tu)};"
                    for out, const, coeffs, ins in rows]
        rec = self.recs[qname]
        em = BlockEmitter(tu, rec)
        getattr(rec.tpl, method)(block, em)
        return em.lines

    def site(self, tu: _TU, qname: str, method: str) -> list[str]:
        """Emit the model's block at its next site, record its lines and
        return them as TU text."""
        tmp0 = tu.n_tmp
        rows = self.plan.affine_rows.get(qname)
        if rows is not None:
            rows = [(r.out_sig, r.const, r.coeffs, r.in_sigs) for r in rows]
        lines = self.emit(tu, qname, self.cm.nodes[qname], method, rows)
        self.sites.setdefault(qname, []).append((method, tmp0, lines))
        return lines if rows is not None else _block_chunk(qname, lines)

    def slots(self, owners: list[str]) -> dict:
        """qname -> the ``P`` indices it owns, in emission order."""
        if self._slots is None:
            self._slots = {}
            for k, qname in enumerate(owners):
                self._slots.setdefault(qname, []).append(k)
        return self._slots

    def relower(self, qname: str, block, ctx, slots: list[int]):
        """``(params, dwork)`` of ``block`` emitted at ``qname``'s sites,
        or ``None`` when its text, dwork layout or value count differs."""
        tu = _BlockTU(slots)
        rows, dwork = None, []
        base_rows = self.plan.affine_rows.get(qname)
        if base_rows is not None:
            # the plan holds the base coefficients: re-derive the rows
            spec = _affine_spec(block, self.cm.state_count[qname])
            if spec is None:
                return None
            rows = [(r.out_sig, float(spec[p][1]), tuple(map(float, spec[p][0])),
                     r.in_sigs) for p, r in enumerate(base_rows)]
        elif qname in self.recs:
            rec = self.recs[qname]
            tpl = rec.tpl
            if (tpl.refuse(block) or tpl.held(block) is not None
                    or list(tpl.dwork(block)) != rec.layout):
                return None
            dwork = tpl.dwork_init(block, ctx)
            if len(dwork) != rec.n_dw:
                return None
        for method, tmp0, lines in self.sites.get(qname, ()):
            tu.n_tmp = tmp0
            if self.emit(tu, qname, block, method, rows) != lines:
                return None
        if len(tu.params) != len(slots):
            return None
        return tu.params, dwork


@dataclass
class NativeProgram:
    """A lowered model: the TU text plus everything the executor needs
    to bind it (sizes, scope gather order, this run's parameter vector
    and discrete-state init vector)."""

    source: str
    n_signals: int
    n_states: int
    n_dwork: int
    scope_sigs: list[int]
    #: the ``DW`` init vector of one run (see :meth:`for_run`)
    dwork_init: list[float] = field(default_factory=list)
    #: the values the TU reads as ``P[k]``
    params: list[float] = field(default_factory=list)
    #: the qname that emitted each ``P`` slot
    param_owners: list[str] = field(default_factory=list)
    #: the block-owned float64 buffers one run's context borrows as
    #: ``H[k]`` (see :meth:`for_run`)
    held: list = field(default_factory=list)
    #: qname -> :class:`_Rec` of every template-lowered block, in
    #: emission order (what :meth:`for_run` reads)
    recs: dict = field(default_factory=dict, repr=False)
    #: per-block emission record (see :meth:`relower`)
    lowering: Optional[Lowering] = field(default=None, repr=False)

    def for_run(self, sim) -> "NativeProgram":
        """This program bound to ``sim``'s run: the discrete-work init
        vector read from its started contexts and the held-output
        buffers its blocks own.  The per-run part of every lowering, so
        a program kept across runs (:meth:`structure`) binds the same way
        a fresh one does."""
        cm = sim.cm
        dwork_init: list[float] = []
        held: list = []
        for qname, rec in self.recs.items():
            block = cm.nodes[qname]
            vals = rec.tpl.dwork_init(block, sim._ctxs[qname])
            if len(vals) != rec.n_dw:
                raise NativeLoweringError(
                    f"dwork init size mismatch for '{qname}': "
                    f"{len(vals)} != {rec.n_dw}"
                )
            dwork_init.extend(vals)
            if rec.held is not None:
                buf = _held_buffer(qname, rec.tpl, block)
                if buf is None or buf.size != rec.held[1]:
                    raise NativeLoweringError(
                        f"held buffer of '{qname}' changed since lowering"
                    )
                held.append(buf)
        return dataclasses.replace(self, dwork_init=dwork_init, held=held)

    def structure(self) -> "NativeProgram":
        """This program without its per-run part (:meth:`for_run`) or
        its per-site text (:meth:`relower`): what a lowering memo keeps."""
        return dataclasses.replace(self, dwork_init=[], held=[], lowering=None)

    def listing(self) -> str:
        """The TU followed by its parameter vector as a C comment — every
        number of the run, for reading and diffing (the cache key hashes
        :attr:`source` alone)."""
        rows = [f"/* P[{k}] = {v.hex()}  {q} */"
                for k, (v, q) in enumerate(zip(self.params, self.param_owners))]
        return self.source + "".join(f"{r}\n" for r in rows)

    def relower(self, blocks: Mapping[str, tuple]) -> Optional[dict]:
        """Re-emit only ``blocks`` (``{qname: (block, started context)}``,
        e.g. one ensemble lane's overridden clones) in place of the blocks
        this program was lowered from: ``{qname: (P values, DW values)}``,
        the values of the block's own ``P`` slots and ``DW`` slice, or
        ``None`` when one of them renders other text — another form,
        e.g. a gain of exactly -1 — which needs a TU of its own."""
        low = self.lowering
        slots = low.slots(self.param_owners)
        out = {}
        for qname, (block, ctx) in blocks.items():
            got = low.relower(qname, block, ctx, slots.get(qname, []))
            if got is None:
                return None
            out[qname] = got
        return out

    def lane_vectors(self, n_lanes: int, edits: Mapping[str, tuple]):
        """``(P, DW)``: ``n_lanes`` rows of this program's parameter and
        discrete-work vectors, sized as a context reads them
        (:func:`~repro.native.executor.context_sizes`), one broadcast
        each, with ``edits`` — ``{qname: (lanes, P values, DW values)}``,
        one :meth:`relower` result per listed lane — written into that
        block's slots of those lanes' rows: the matrices an ensemble's
        lanes of this form point into."""
        from .executor import context_sizes

        n_params, n_dwork, _work = context_sizes(self)
        params = np.empty((n_lanes, n_params))
        params[:] = self.params or 0.0
        dwork = np.empty((n_lanes, n_dwork))
        dwork[:] = self.dwork_init if self.n_dwork else 0.0
        slots = self.lowering.slots(self.param_owners) if edits else {}
        for qname, (lanes, values, dws) in edits.items():
            lanes = np.array(lanes, dtype=np.intp)
            own = slots.get(qname)
            if own:
                params[lanes[:, None], own] = values
            rec = self.recs.get(qname)
            if rec is not None and rec.n_dw:
                dwork[lanes, rec.dw0 : rec.dw0 + rec.n_dw] = dws
        return params, dwork


def _block_chunk(qname: str, lines: list[str]) -> list[str]:
    """A template block's ``lines`` as a commented TU block."""
    if not lines:
        return []
    out = [f"  {{ /* {qname} */"]
    out += [f"    {ln}" for ln in lines]
    out.append("  }")
    return out


def _guarded(div: int, lines: list[str]) -> list[str]:
    if div in (0, 1):
        return lines
    return _if(f"step % {div} == 0", lines)


def _if(cond: str, lines: list[str]) -> list[str]:
    if not lines:
        return lines
    return [f"  if ({cond}) {{"] + ["  " + ln for ln in lines] + ["  }"]


def _deriv_closure(cm, plan: KernelPlan) -> set[str]:
    """The minor blocks an RK4 stage must evaluate: the producers of every
    input of a block with a derivative, closed backward through *every*
    input of such a producer (not only the feed-through ones, so a
    parameter value — a ``StateSpace`` ``D`` — never changes the set),
    except the inputs of a block whose template's outputs read none
    (``NativeTemplate.outputs_read_inputs``, e.g. a co-simulation proxy's
    held outputs): the closure stops there.

    What the rest writes is read by nobody before the next major pass
    rewrites it, in order, as long as a block's outputs read only its
    feed-through inputs (the :meth:`~repro.model.block.Block.feeds_through`
    contract), since the order puts a feed-through input's producer first.
    The one block whose outputs read another input, ``StateSpace`` with
    ``D = 0`` (``0.0 * u``), has a derivative, so its inputs are roots."""
    from .templates import ensure_installed

    reg = ensure_installed()
    minor = set(plan.minor_qnames)
    producer = {idx: q for (q, _p), idx in cm.sig_index.items()}
    roots: list[int] = []
    for qname in cm.order:
        if cm.state_count[qname] and not getattr(cm.nodes[qname],
                                                 "triggerable", False):
            roots += cm.input_map[qname]
    needed: set[str] = set()
    while roots:
        qname = producer.get(roots.pop())
        if qname in minor and qname not in needed:
            needed.add(qname)
            tpl = reg.lookup_native(type(cm.nodes[qname]))
            if tpl is None or tpl.outputs_read_inputs:
                roots += cm.input_map[qname]
    return needed


def _held_buffer(qname: str, tpl, block):
    """The block's held-output buffer (``tpl.held``), or ``None``."""
    buf = tpl.held(block)
    if buf is not None and not (
            isinstance(buf, np.ndarray) and buf.dtype == np.float64
            and buf.ndim == 1 and buf.flags.c_contiguous):
        raise NativeLoweringError(
            f"held buffer of '{qname}' must be a contiguous 1-D "
            "float64 ndarray"
        )
    return buf


def generate_program(sim, plan: KernelPlan) -> NativeProgram:
    """Lower ``sim`` (initialized) under ``plan`` to a C TU bound to its
    run (:meth:`NativeProgram.for_run`), or raise
    :class:`NativeLoweringError` with the first refusal reason."""
    from .templates import ensure_installed

    cm = sim.cm
    reg = ensure_installed()

    for (qname, port), targets in sorted(cm.event_targets.items()):
        if targets:
            raise NativeLoweringError(
                f"event ({qname}, {port}) has wired function-call targets; "
                "ISR replay stays on the Python paths"
            )

    # ---- per-block validation + discrete-state layout --------------------
    recs: dict[str, _Rec] = {}
    n_dwork = 0
    n_held = 0
    for entry in plan.entries:
        if isinstance(entry, AffineRun):
            continue
        qname = entry.qname
        block = cm.nodes[qname]
        tpl = reg.lookup_native(type(block))
        if tpl is None:
            raise NativeLoweringError(
                f"no native template for {type(block).__name__} ('{qname}')"
            )
        reason = tpl.refuse(block)
        if reason:
            raise NativeLoweringError(reason)
        layout = list(tpl.dwork(block))
        offs: dict[str, int] = {}
        want = 0
        for fld, n in layout:
            offs[fld] = n_dwork + want
            want += n
        buf = _held_buffer(qname, tpl, block)
        slot = None
        if buf is not None:
            slot = (n_held, buf.size)
            n_held += 1
        recs[qname] = _Rec(
            tpl, layout, offs, n_dwork, want, slot,
            tuple(cm.input_map[qname]),
            tuple(cm.sig_index[(qname, p)] for p in range(block.n_out)),
            cm.state_offset[qname],
        )
        n_dwork += want

    low = Lowering(cm, plan, recs)
    tu = _TU()

    # ---- major output pass ----------------------------------------------
    out_lines: list[str] = []
    for entry in plan.entries:
        if isinstance(entry, AffineRun):
            rows: list[str] = []
            for qname in entry.qnames:
                rows += low.site(tu, qname, "outputs")
            out_lines += _guarded(entry.divisor, rows)
            continue
        out_lines += _guarded(entry.divisor, low.site(tu, entry.qname, "outputs"))

    # ---- minor pass (dirty closure) -------------------------------------
    # what no derivative reads runs only when ``full`` is set: at the last
    # stage of a call's last step, whose signals the caller can observe
    needed = _deriv_closure(cm, plan)
    minor_lines: list[str] = []
    rest: list[str] = []
    for qname in plan.minor_qnames:
        lines = low.site(tu, qname, "outputs")
        if qname in needed:
            minor_lines += _if("full", rest) + lines
            rest = []
        else:
            rest += lines
    minor_lines += _if("full", rest)

    # ---- update pass -----------------------------------------------------
    upd_lines: list[str] = []
    for entry in plan.entries:
        if isinstance(entry, AffineRun):
            continue
        if type(cm.nodes[entry.qname]).update is Block.update:
            continue
        upd_lines += _guarded(entry.divisor, low.site(tu, entry.qname, "update"))

    # ---- derivative pass -------------------------------------------------
    deriv_lines: list[str] = []
    for qname in cm.order:
        if not cm.state_count[qname]:
            continue
        if getattr(cm.nodes[qname], "triggerable", False):
            continue
        if qname not in recs:
            raise NativeLoweringError(
                f"stateful block '{qname}' is outside the lowered schedule"
            )
        deriv_lines += low.site(tu, qname, "deriv")

    scope_sigs = [idx for _qname, idx in sim._scope_sched]

    src = _render(
        cm=cm,
        sim=sim,
        n_params=len(tu.params),
        n_dwork=n_dwork,
        n_held=n_held,
        scope_sigs=scope_sigs,
        out_lines=out_lines,
        minor_lines=minor_lines,
        upd_lines=upd_lines,
        deriv_lines=deriv_lines,
    )
    return NativeProgram(
        source=src,
        n_signals=cm.n_signals,
        n_states=cm.n_states,
        n_dwork=n_dwork,
        scope_sigs=scope_sigs,
        params=tu.params,
        param_owners=tu.owners,
        recs=recs,
        lowering=low,
    ).for_run(sim)


def _render(cm, sim, n_params, n_dwork, n_held, scope_sigs, out_lines,
            minor_lines, upd_lines, deriv_lines) -> str:
    opts = sim.options
    n_states = cm.n_states
    n_sigs = cm.n_signals
    name = getattr(getattr(cm, "source", None), "name", None) or "model"
    L: list[str] = []
    w = L.append
    w("/* generated by repro.native — do not edit")
    w(f" * model: {name}")
    w(f" * dt: {opts.dt!r}  solver: {opts.solver}  template: v{TEMPLATE_VERSION}")
    w(" * bit-exact mirror of repro.model.engine reference passes")
    w(" */")
    w("#include <math.h>")
    w("#include <string.h>")
    w("")
    w(f"#define DT {clit(opts.dt)}")
    w(f"#define NSIG {n_sigs}")
    w(f"#define NSTATE {n_states}")
    w(f"#define NDW {n_dwork}")
    w(f"#define NPARAM {n_params}")
    w(f"#define NHELD {n_held}")
    w("")
    w("/* Per-instance context.  Every buffer is owned by the caller and only")
    w(" * borrowed here: the TU keeps no mutable file-scope state, so any")
    w(" * number of simulators (on any threads) can share one loaded library. */")
    w("typedef struct {")
    w("  double *S;   /* signals [NSIG] */")
    w("  double *X;   /* continuous state [NSTATE] */")
    w("  double *DW;  /* discrete work [NDW] */")
    w("  double *W;   /* integrator scratch [5 * NSTATE]: X0 K1 K2 K3 K4 */")
    w("  const double *P;  /* block parameters [NPARAM] */")
    w(f"  double *H[{max(1, n_held)}];  /* held outputs, written between steps */")
    w("} nx_ctx;")
    w("")
    w("#define NX_LOCALS \\")
    w("  double *S = c->S; double *X = c->X; double *DW = c->DW; \\")
    w("  const double *P = c->P; \\")
    w("  (void)S; (void)X; (void)DW; (void)P")
    w("")
    w("static void out_major(const nx_ctx *c, long long step, double t)")
    w("{")
    w("  NX_LOCALS;")
    w("  (void)step; (void)t;")
    L.extend(out_lines)
    w("}")
    w("")
    w("static void out_minor(const nx_ctx *c, double t, int full)")
    w("{")
    w("  NX_LOCALS;")
    w("  (void)t; (void)full;")
    L.extend(minor_lines)
    w("}")
    w("")
    w("static void upd(const nx_ctx *c, long long step, double t)")
    w("{")
    w("  NX_LOCALS;")
    w("  (void)step; (void)t;")
    L.extend(upd_lines)
    w("}")
    w("")
    if n_states:
        w("static void deriv(const nx_ctx *c, double t, double *XD)")
        w("{")
        w("  NX_LOCALS;")
        w("  (void)t;")
        L.extend(deriv_lines)
        w("}")
        w("")
    w("static void integrate(const nx_ctx *c, double t, int full)")
    w("{")
    if not n_states:
        w("  (void)c; (void)t; (void)full;")
    elif opts.solver == "euler":
        w("  int i;")
        w("  (void)full;")
        w("  double *X = c->X, *K1 = c->W + NSTATE;")
        w("  deriv(c, t, K1);")
        w("  for (i = 0; i < NSTATE; i++) X[i] = X[i] + DT * K1[i];")
    else:
        # classic RK4 in the engine's exact association order (see
        # Simulator._integrate: both its scalar and NumPy forms perform
        # these IEEE operations elementwise)
        w("  int i;")
        w("  double *X = c->X, *X0 = c->W;")
        w("  double *K1 = X0 + NSTATE, *K2 = K1 + NSTATE, "
          "*K3 = K2 + NSTATE, *K4 = K3 + NSTATE;")
        w("  double half_dt = 0.5 * DT;")
        w("  double half = t + half_dt;")
        w("  double sixth = DT / 6.0;")
        w("  for (i = 0; i < NSTATE; i++) X0[i] = X[i];")
        w("  deriv(c, t, K1);")
        w("  for (i = 0; i < NSTATE; i++) X[i] = X0[i] + half_dt * K1[i];")
        w("  out_minor(c, half, 0);")
        w("  deriv(c, half, K2);")
        w("  for (i = 0; i < NSTATE; i++) X[i] = X0[i] + half_dt * K2[i];")
        w("  out_minor(c, half, 0);")
        w("  deriv(c, half, K3);")
        w("  for (i = 0; i < NSTATE; i++) X[i] = X0[i] + DT * K3[i];")
        w("  out_minor(c, t + DT, full);")
        w("  deriv(c, t + DT, K4);")
        w("  for (i = 0; i < NSTATE; i++)")
        w("    X[i] = X0[i] + sixth * (K1[i] + 2.0 * K2[i] + 2.0 * K3[i] + K4[i]);")
    w("}")
    w("")
    w("void nx_run(const nx_ctx *c, long long start, long long n, "
      "double *scope_out, double *trace_out)")
    w("{")
    w("  const double *S = c->S;")
    w("  long long i;")
    w("  for (i = 0; i < n; i++) {")
    w("    long long step = start + i;")
    w("    double t = (double)step * DT;")
    w("    out_major(c, step, t);")
    for j, idx in enumerate(scope_sigs):
        w(f"    scope_out[i * {len(scope_sigs)} + {j}] = S[{idx}];")
    if not scope_sigs:
        w("    (void)scope_out;")
    w("    if (trace_out) memcpy(trace_out + i * NSIG, S, "
      "sizeof(double) * NSIG);")
    w("    upd(c, step, t);")
    w("    integrate(c, t, i == n - 1);")
    w("  }")
    w("}")
    return "\n".join(L) + "\n"
