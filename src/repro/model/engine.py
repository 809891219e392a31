"""Fixed-step simulation engine (the MIL executor).

Executes a :class:`~repro.model.compiled.CompiledModel` with Simulink
fixed-step semantics:

* **major step** — output pass in sorted order (discrete blocks only at
  their sample hits; outputs hold in between), event dispatch, scope
  logging, discrete update pass, then continuous-state integration;
* **minor steps** — the RK4 solver re-evaluates outputs of continuous and
  inherited-rate blocks at intermediate states with ``ctx.minor`` set, so
  events do not fire and discrete state never mutates off the grid.

The PIL/HIL co-simulation in :mod:`repro.sim` drives a plant by
``initialize`` + ``advance``, reading sensors and writing actuation
between steps, without changing the model — the paper's single-model
property.  A caller that needs to stop a run (SimServe's job
cancellation) passes ``SimulationOptions.cancel``: :meth:`Simulator.run`
polls it between bounded native chunks or before every Python step, and
a true poll raises :class:`SimulationCancelled`.

Two execution paths share these semantics:

* the **reference interpreter** (`_ref_*` methods) dispatches every block
  through its Python callbacks — simple, always available;
* the **kernel fast path** (:mod:`repro.model.kernels`) compiles the
  schedule into flat generated pass functions with fused affine kernels,
  per-rate phase tables and a pruned minor-step schedule.  It is selected
  automatically at :meth:`Simulator.initialize` (default on, disable with
  ``SimulationOptions(use_kernels=False)``) and falls back to the
  reference interpreter when planning fails; the equivalence suite in
  ``tests/model/test_kernels.py`` pins the two paths bit-identical.

A third executor, the native C step loop (:mod:`repro.native`), lowers
the same kernel plan; when it binds, the kernel fast path is not built.
Every native step is an ``nx_run`` call: ``run()`` makes one per chunk
(:func:`run_native`) and ``advance()`` one per step, each writing its
rows straight into the :class:`~repro.model.result.RunLog`.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Union

import numpy as np

from ..obs.trace import get_tracer
from .block import Block, BlockContext
from .compiled import CompiledModel
from .graph import Model
from .result import RunLog, SimulationResult


class SimulationCancelled(Exception):
    """A run stopped because its ``SimulationOptions.cancel`` predicate
    read true; ``step_index`` is the major step it stopped before."""

    def __init__(self, step_index: int):
        super().__init__(f"simulation cancelled at step {step_index}")
        self.step_index = step_index


@dataclass
class SimulationOptions:
    """Knobs for a simulation run."""

    dt: float = 1e-3
    t_final: float = 1.0
    solver: str = "rk4"  # "euler" | "rk4"
    log_all_signals: bool = False
    #: zero-argument predicate that ``run()`` polls before every chunk
    #: of at most ``Simulator._NATIVE_CHUNK`` native steps (before every
    #: step on the Python paths and in traced runs); a true poll raises
    #: :class:`SimulationCancelled`.
    cancel: Optional[Callable[[], bool]] = None
    #: use the compiled kernel fast path when the model supports it
    use_kernels: bool = True
    #: compile the model to a native C extension and run the step loop
    #: there: ``True`` forces it, ``False`` disables it, ``"reuse"``
    #: binds whenever the artifact is already built and otherwise runs
    #: on Python while a background build makes it (never waits for
    #: ``cc``; the PIL plant's policy), ``"auto"`` (default) acts as
    #: ``"reuse"`` below :data:`NATIVE_AUTO_THRESHOLD` and waits for the
    #: build at or above it.  ``$REPRO_NATIVE`` (off/on/auto) overrides.
    native: Union[bool, str] = "auto"

    def __post_init__(self) -> None:
        if self.solver not in ("euler", "rk4"):
            raise ValueError(f"unknown solver '{self.solver}'")
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.native not in (True, False, "auto", "reuse"):
            raise ValueError("native must be True, False, 'auto' or 'reuse'")


#: estimated block-steps (steps x scheduled blocks) from which
#: ``native="auto"`` waits for a cold artifact's compile rather than
#: running on Python while it builds in the background
NATIVE_AUTO_THRESHOLD = 100_000


@dataclass
class _Lowered:
    """One solver's slot of ``CompiledModel.lowering_memo``: the kernel
    plan (or its :class:`~repro.model.kernels.KernelPlanError`), then
    the lowered native program's structure
    (:meth:`~repro.native.NativeProgram.structure`) or the reason the
    lowering was refused; ``None`` until first computed."""

    plan: object = None
    program: object = None


class Simulator:
    """Runs one compiled model.  Create, then :meth:`run`.

    The instance is also usable incrementally (``initialize`` +
    ``advance``), which the PIL/HIL co-simulation layers rely on to
    interleave the plant with the MCU simulator step by step.
    """

    def __init__(self, model: Union[Model, CompiledModel], options: SimulationOptions):
        self.options = options
        self.cm = model if isinstance(model, CompiledModel) else model.compile(options.dt)
        if self.cm.dt != options.dt:
            raise ValueError("compiled model base step differs from options.dt")
        self._ctxs: dict[str, BlockContext] = {}
        # plain list: scalar loads/stores in the hot loop beat ndarray access
        self.signals: list[float] = [0.0] * self.cm.n_signals
        self.x = np.zeros(self.cm.n_states)
        self.step_index = 0
        self.time = 0.0
        #: what the run logs (made in initialize)
        self.log: Optional[RunLog] = None
        self._pending_events: deque[tuple[str, int]] = deque()
        # reference-interpreter schedules, built in initialize() only when
        # a Python path binds:
        #   (block, ctx, in_indices, out_indices, divisor, u_scratch)
        self._sched: list[tuple] = []
        self._minor_sched: list[tuple] = []
        self._upd_sched: list[tuple] = []
        self._deriv_sched: list[tuple] = []  # (block, ctx, in_idx, off, n, u)
        self._scope_sched: list[tuple] = []  # (qname, input_index)
        #: blocks the step loop schedules (all but triggered ones; set by
        #: ``_start``)
        self._n_scheduled = 0
        # RK4 work buffers; tiny state vectors (the usual case — a servo
        # plant has a handful of states) integrate through scalar Python
        # arithmetic, which beats NumPy's per-call overhead and performs
        # the exact same IEEE operations elementwise
        n = self.cm.n_states
        self._x0 = np.zeros(n)
        self._k = [np.zeros(n) for _ in range(4)]
        self._scalar_states = 0 < n <= 16
        if self._scalar_states:
            self._x0 = [0.0] * n
            self._k = [[0.0] * n for _ in range(4)]
            self._srange = range(n)
        #: the bound kernel fast path (None on the reference and native
        #: paths)
        self.fast_path = None
        #: why the fast path was not used (None when it is active)
        self.kernel_fallback_reason: Optional[str] = None
        #: the bound native C executor (None on the Python paths)
        self.native_path = None
        #: why the native path was not used (None when it is active)
        self.native_fallback_reason: Optional[str] = None
        self._initialized = False
        self._tracer = get_tracer()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Allocate contexts, call every block's ``start``, and bind the
        native executor or else the Python paths: the reference
        execution schedules and the kernel fast path (planned against
        the blocks' *current* modes — PE peripherals may have been
        switched to PIL/HW after the model was compiled)."""
        self._start()
        # one kernel plan serves both executors; the native loop takes
        # over when it binds, else the Python passes are generated from it
        mode = self._native_mode()
        memo = self._lowering_memo()
        plan = None
        if mode is not False or self.options.use_kernels:
            plan = self._plan_kernels(memo)
        if not self._bind_native(mode, plan, memo):
            self._schedule_reference()
            self._bind_fast_path(plan)
        self.log = run_log(self.cm, self._scope_sched, 1,
                           self.options.log_all_signals)
        if self.native_path is not None:
            self.native_path.check_log(self.log)
        self._initialized = True

    def _lowering_memo(self) -> Optional[_Lowered]:
        """This solver's slot of ``cm.lowering_memo``, or ``None`` when
        the compiled model does not memoize its lowering.  The solver is
        the key because the TU's integrator depends on it."""
        memo = self.cm.lowering_memo
        if memo is None:
            return None
        slot = memo.get(self.options.solver)
        if slot is None:
            slot = memo[self.options.solver] = _Lowered()
        return slot

    def _start(self) -> None:
        """Start every block on a fresh context over its initial states,
        and note the scope schedule and the scheduled-block count: all
        that a native bind reads."""
        cm = self.cm
        from .library.sinks import Scope

        scheduled = 0
        for qname in cm.order:
            block = cm.nodes[qname]
            ctx = BlockContext()
            off, n = cm.state_offset[qname], cm.state_count[qname]
            if n:
                self.x[off : off + n] = np.asarray(block.initial_continuous_states())
            ctx.x = self.x[off : off + n]
            ctx._fire = self._make_fire(qname)
            self._ctxs[qname] = ctx
            block.start(ctx)

            if getattr(block, "triggerable", False):
                continue
            scheduled += 1
            if isinstance(block, Scope):
                self._scope_sched.append((qname, cm.input_map[qname][0]))
        self._n_scheduled = scheduled

    def _schedule_reference(self) -> None:
        """Build the reference interpreter's schedules over the started
        contexts (only a Python path steps through them)."""
        cm = self.cm
        for qname in cm.order:
            block = cm.nodes[qname]
            if getattr(block, "triggerable", False):
                continue
            ctx = self._ctxs[qname]
            in_idx = tuple(cm.input_map[qname])
            out_idx = tuple(cm.sig_index[(qname, p)] for p in range(block.n_out))
            divisor = cm.divisors[qname]
            # preallocated input scratch, refilled in place each visit
            entry = (block, ctx, in_idx, out_idx, divisor, [0.0] * len(in_idx))
            self._sched.append(entry)
            if divisor == 0:
                self._minor_sched.append(entry)
            if type(block).update is not Block.update:
                self._upd_sched.append(entry)
            n = cm.state_count[qname]
            if n:
                self._deriv_sched.append((block, ctx, in_idx,
                                          cm.state_offset[qname], n,
                                          [0.0] * len(in_idx)))

    def _plan_kernels(self, memo: Optional[_Lowered] = None):
        """The kernel plan against the blocks' current modes, or the
        :class:`~repro.model.kernels.KernelPlanError` refusing it (its
        traceback dropped: a memo keeps it); planned once per ``memo``."""
        if memo is not None and memo.plan is not None:
            return memo.plan
        from .kernels import KernelPlanError, plan_kernels

        t0 = perf_counter()
        try:
            plan = plan_kernels(self.cm)
        except KernelPlanError as exc:
            plan = exc.with_traceback(None)
        else:
            if self._tracer.enabled:
                self._tracer.complete("engine.plan_kernels", "engine", t0,
                                      args=dict(plan.stats))
        if memo is not None:
            memo.plan = plan
        return plan

    def _bind_fast_path(self, plan) -> None:
        """Swap in the generated kernel passes, or record why not."""
        from .kernels import FastPath, KernelPlanError

        if not self.options.use_kernels:
            self._kernel_fallback("kernel_disabled",
                                  "disabled by SimulationOptions")
            return
        if isinstance(plan, KernelPlanError):  # never raised: a memo keeps it
            self._kernel_fallback("kernel_plan_refused", str(plan))
            return
        try:
            fp = FastPath(self, plan)
        except KernelPlanError as exc:
            self._kernel_fallback("kernel_plan_refused", str(exc))
            return
        self.fast_path = fp
        # plain functions: they shadow the class-level reference passes
        self._out_major = fp.out_major
        self._out_minor = fp.out_minor
        self._update = fp.update
        self._deriv = fp.deriv

    def _kernel_fallback(self, reason: str, detail: str) -> None:
        self.kernel_fallback_reason = detail
        self._count_fallback(reason)
        if self._tracer.enabled:
            self._tracer.instant("engine.kernel_fallback", cat="engine",
                                 args={"reason": detail})

    # ------------------------------------------------------------------
    # native C executor binding
    # ------------------------------------------------------------------
    @property
    def native_active(self) -> bool:
        return self.native_path is not None

    @staticmethod
    def _count_fallback(reason: str) -> None:
        from ..obs.metrics import get_registry

        get_registry().counter(
            "kernel_fallback_total",
            "native/kernel fast-path fallbacks by reason",
            labels={"reason": reason},
        ).inc()

    def _native_fallback(self, reason: str, detail: str = "") -> None:
        self.native_fallback_reason = (
            f"{reason}: {detail}" if detail else reason
        )
        self._count_fallback(reason)
        if self._tracer.enabled:
            self._tracer.instant(
                "engine.native_fallback", cat="engine",
                args={"reason": reason, "detail": detail[:200]},
            )

    def _native_mode(self):
        """The effective native switch after the env override."""
        env = os.environ.get("REPRO_NATIVE", "").strip().lower()
        if env in ("off", "0", "false", "no"):
            return False
        if env in ("on", "1", "force", "true"):
            return True
        if env == "auto":
            return "auto"
        return self.options.native

    def _bind_native(self, mode, plan, memo: Optional[_Lowered] = None) -> bool:
        """Take over the step loop with the native artifact for ``plan``
        (see :meth:`_native_artifact`), or record why not and leave the
        Python paths to :meth:`_bind_fast_path`."""
        from ..native import NativePath

        artifact = self._native_artifact(mode, plan, memo=memo)
        if artifact is None:
            return False
        program, so_path = artifact
        # Commit: the extension borrows the signal buffer, so the scalar
        # list becomes an ndarray now (the reference passes read
        # ``self.signals`` fresh each call, so co-simulation taps and the
        # legacy shims stay correct alongside the native loop).
        signals = np.ascontiguousarray(self.signals, dtype=np.float64)
        try:
            native = NativePath(program, so_path, signals, self.x)
        except Exception as exc:  # dlopen/ABI trouble: keep Python paths
            self._native_fallback("compile_error", f"load failed: {exc}")
            return False
        self.signals = signals
        self.native_path = native
        return True

    def _native_artifact(self, mode, plan, lanes: int = 1,
                         memo: Optional[_Lowered] = None):
        """Lower ``plan`` to C (:meth:`_lower`) and compile it (or reuse
        the disk cache): ``(program, so_path)``, or ``None`` after
        recording why not.  The fallback ladder: disabled -> plan_refused
        -> toolchain_missing -> compile_pending (a ``"reuse"`` bind, or a
        short ``"auto"`` one) -> compile_error.  ``"auto"`` counts the
        block-steps of ``lanes`` runs of this length (an ensemble's lanes
        share one artifact)."""
        if mode is False:
            self._native_fallback("disabled")
            return None
        if mode == "auto":
            n_steps = int(round(self.options.t_final / self.options.dt)) + 1
            block_steps = n_steps * max(1, self._n_scheduled) * lanes
            if block_steps < NATIVE_AUTO_THRESHOLD:
                mode = "reuse"
        from ..native import (
            ToolchainError,
            ensure_compiled,
            find_cc,
            reuse_compiled,
        )

        program = self._lower(plan, memo)
        if isinstance(program, str):
            self._native_fallback("plan_refused", program)
            return None
        if find_cc() is None:
            self._native_fallback("toolchain_missing",
                                  "no C compiler on PATH (cc/gcc/clang)")
            return None
        try:
            if mode == "reuse":
                so_path = reuse_compiled(program.source)
                if so_path is None:
                    self._native_fallback("compile_pending")
                    return None
            else:
                so_path = ensure_compiled(program.source)
        except ToolchainError as exc:
            self._native_fallback("compile_error", str(exc))
            return None
        return program, so_path

    def _lower(self, plan, memo: Optional[_Lowered] = None):
        """``plan`` lowered to a native program bound to this run, or the
        reason the lowering was refused.  With a ``memo`` the model is
        lowered (``repro.native.generate_program``) at most once: later
        binds reuse its structure, or its refusal, and derive only the
        per-run part (:meth:`~repro.native.NativeProgram.for_run`)."""
        from ..native import NativeLoweringError, generate_program
        from .kernels import KernelPlanError

        kept = memo.program if memo is not None else None
        if isinstance(kept, str):
            return kept
        try:
            if kept is not None:
                return kept.for_run(self)
            if isinstance(plan, KernelPlanError):
                program = str(plan)
            else:
                program = generate_program(self, plan)
        except NativeLoweringError as exc:
            program = str(exc)
        if memo is not None and kept is None:
            memo.program = (program if isinstance(program, str)
                            else program.structure())
        return program

    def _make_fire(self, qname: str) -> Callable[[int], None]:
        # events are queued and dispatched right after the firing block's
        # outputs are stored, so the "ISR" reads current data — the same
        # ordering a real end-of-conversion interrupt sees
        pending = self._pending_events

        def fire(event_port: int) -> None:
            pending.append((qname, event_port))

        return fire

    # ------------------------------------------------------------------
    # reference interpreter passes
    # ------------------------------------------------------------------
    def _ref_out_major(self, t: float, step: int) -> None:
        sigs = self.signals
        pending = self._pending_events
        for block, ctx, in_idx, out_idx, div, u in self._sched:
            if div != 0 and step % div:
                continue  # discrete block holds between hits
            k = 0
            for i in in_idx:
                u[k] = sigs[i]
                k += 1
            out = block.outputs(t, u, ctx)
            for j, v in zip(out_idx, out):
                sigs[j] = float(v)
            if pending:
                dispatch_events(self.cm, self._ctxs, sigs, pending, t)

    def _ref_out_minor(self, t: float) -> None:
        # only continuous/inherited blocks participate in minor steps
        sigs = self.signals
        for block, ctx, in_idx, out_idx, _div, u in self._minor_sched:
            k = 0
            for i in in_idx:
                u[k] = sigs[i]
                k += 1
            ctx.minor = True
            try:
                out = block.outputs(t, u, ctx)
            finally:
                ctx.minor = False
            for j, v in zip(out_idx, out):
                sigs[j] = float(v)

    def _ref_update(self, t: float, step: int) -> None:
        sigs = self.signals
        for block, ctx, in_idx, _out_idx, div, u in self._upd_sched:
            if div == 0 or step % div == 0:
                k = 0
                for i in in_idx:
                    u[k] = sigs[i]
                    k += 1
                block.update(t, u, ctx)

    def _ref_deriv(self, t: float, xdot: np.ndarray) -> None:
        sigs = self.signals
        for block, ctx, in_idx, off, n, u in self._deriv_sched:
            k = 0
            for i in in_idx:
                u[k] = sigs[i]
                k += 1
            xdot[off : off + n] = block.derivatives(t, u, ctx)

    # The active passes.  A Python path binds its generated kernel passes
    # as instance attributes (:meth:`_bind_fast_path`); otherwise these
    # class-level aliases resolve to the reference passes.  Storing
    # ``self._ref_*`` on the instance instead would make the simulator a
    # cycle that only the collector frees.
    _out_major = _ref_out_major
    _out_minor = _ref_out_minor
    _update = _ref_update
    _deriv = _ref_deriv

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _integrate(self, t: float) -> None:
        if self.cm.n_states == 0:
            return
        dt = self.options.dt
        deriv = self._deriv
        x = self.x
        x0 = self._x0
        k1, k2, k3, k4 = self._k
        # classic RK4 (or forward Euler) with minor-step output
        # re-evaluation; every expression keeps the historical association
        # order — ``x0 + (0.5*dt)*k1``, ``((k1 + 2*k2) + 2*k3) + k4`` —
        # so neither the buffer reuse nor the scalar small-state loop
        # moves a single bit relative to the fresh-array NumPy form
        if self._scalar_states:
            rng = self._srange
            if self.options.solver == "euler":
                deriv(t, k1)
                for i in rng:
                    x[i] += dt * k1[i]
                return
            for i in rng:
                x0[i] = x[i]
            half_dt = 0.5 * dt
            half = t + half_dt
            sixth = dt / 6.0
            deriv(t, k1)
            for i in rng:
                x[i] = x0[i] + half_dt * k1[i]
            self._out_minor(half)
            deriv(half, k2)
            for i in rng:
                x[i] = x0[i] + half_dt * k2[i]
            self._out_minor(half)
            deriv(half, k3)
            for i in rng:
                x[i] = x0[i] + dt * k3[i]
            self._out_minor(t + dt)
            deriv(t + dt, k4)
            for i in rng:
                x[i] = x0[i] + sixth * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            return
        if self.options.solver == "euler":
            deriv(t, k1)
            x += dt * k1
            return
        x0[:] = x
        half = t + 0.5 * dt
        deriv(t, k1)
        x[:] = x0 + 0.5 * dt * k1
        self._out_minor(half)
        deriv(half, k2)
        x[:] = x0 + 0.5 * dt * k2
        self._out_minor(half)
        deriv(half, k3)
        x[:] = x0 + dt * k3
        self._out_minor(t + dt)
        deriv(t + dt, k4)
        x[:] = x0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def advance(self) -> float:
        """Execute one major step; returns the new time."""
        if not self._initialized:
            raise RuntimeError("call initialize() first")
        t = self.time
        step = self.step_index
        tr = self._tracer
        if tr.enabled and step % tr.step_stride == 0:
            return self._advance_traced(t, step, tr)
        if self.native_path is not None:
            self._native_step(t, step)
        else:
            self._out_major(t, step)
            self._log_step(t)
            self._update(t, step)
            self._integrate(t)
        self.step_index = step + 1
        self.time = self.step_index * self.options.dt
        return self.time

    def _native_step(self, t: float, step: int) -> None:
        """One native major step: one ``nx_run(step, 1)`` writing its
        scope row (and signal row) straight into the log's next row,
        addressed from the log's base and row stride."""
        log = self.log
        n = log.n
        if n == log.capacity:
            log.room(1)
        trace = log.trace_at
        self.native_path.nx_run(
            step, 1, log.scope_at + n * log.scope_row,
            None if trace is None else trace + n * log.trace_row)
        log.t[n] = t
        log.n = n + 1

    def _advance_traced(self, t: float, step: int, tr) -> float:
        """The sampled 1-in-``step_stride`` variant of :meth:`advance`:
        the same step wrapped in a major-step span, with per-pass child
        spans on the Python paths (the native step is one call)."""
        if self.native_path is not None:
            span = tr.begin("engine.major_step", cat="engine", sim_t=t,
                            args={"step": step, "native": True})
            self._native_step(t, step)
        else:
            span = tr.begin("engine.major_step", cat="engine", sim_t=t,
                            args={"step": step})
            t0 = perf_counter()
            self._out_major(t, step)
            tr.complete("engine.output_pass", "engine", t0, sim_t=t)
            self._log_step(t)
            t0 = perf_counter()
            self._update(t, step)
            tr.complete("engine.update_pass", "engine", t0, sim_t=t)
            t0 = perf_counter()
            self._integrate(t)
            tr.complete("engine.integrate", "engine", t0, sim_t=t)
        self.step_index = step + 1
        self.time = self.step_index * self.options.dt
        tr.end(span)
        return self.time

    def _log_step(self, t: float) -> None:
        sigs = self.signals
        self.log.append(t, [sigs[idx] for _qname, idx in self._scope_sched],
                        sigs)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run from t=0 to ``t_final`` and collect logged signals."""
        if not self._initialized:
            self.initialize()
        n_steps = int(round(self.options.t_final / self.options.dt)) + 1
        self.log.reserve(self.log.n + n_steps)
        tr = self._tracer
        if not tr.enabled:
            if self.native_path is not None:
                run_native(self, self._run_chunk, n_steps, self.options.cancel)
            else:
                advance_steps(self, n_steps)
            return self.result()
        opts = self.options
        if self.native_path is not None:
            substrate = "native"
        else:
            substrate = "kernels" if self.fast_path is not None else "reference"
        with tr.span("engine.run", cat="engine", args={
            "dt": opts.dt, "t_final": opts.t_final, "solver": opts.solver,
            "steps": n_steps, "substrate": substrate,
        }):
            advance_steps(self, n_steps)
        self._count_run(n_steps)
        return self.result()

    #: steps per native whole-loop call, and so the most steps a native
    #: run makes between two ``cancel`` polls — amortizes the FFI call
    #: overhead while keeping cancellation prompt
    _NATIVE_CHUNK = 4096

    def _run_chunk(self, step: int, n: int, scope: np.ndarray,
                   trace: Optional[np.ndarray]) -> int:
        """:func:`run_native`'s runner for this run's one lane."""
        self.native_path.run_chunk(step, n, scope[0],
                                   None if trace is None else trace[0])
        return 1

    def _count_run(self, n_steps: int) -> None:
        """Roll the run into the process-wide metrics registry."""
        from ..obs.metrics import get_registry

        reg = get_registry()
        reg.counter("engine_steps_total", "major steps executed").inc(n_steps)
        if self.cm.n_states:
            per_step = 1 if self.options.solver == "euler" else 4
            reg.counter(
                "engine_solver_minor_steps_total",
                "derivative evaluations by the fixed-step solver",
            ).inc(n_steps * per_step)

    def result(self) -> SimulationResult:
        """Assemble a :class:`SimulationResult` from the logs so far."""
        log = self.log
        signals = {name: rows[0].copy()
                   for name, rows in log.columns().items()}
        for qname in self.cm.order:
            self.cm.nodes[qname].terminate(self._ctxs[qname])
        return SimulationResult(log.t[: log.n].copy(), signals)

    # ------------------------------------------------------------------
    # external access (used by the PIL/HIL co-simulation)
    # ------------------------------------------------------------------
    def read_signal(self, qname: str, port: int = 0) -> float:
        """Current value on an output line."""
        return float(self.signals[self.cm.sig_index[(qname, port)]])

    def read_input(self, qname: str, port: int = 0) -> float:
        """Current value arriving at an input port (co-simulation tap)."""
        return float(self.signals[self.cm.input_map[qname][port]])

    def write_signal(self, qname: str, port: int, value: float) -> None:
        """Force a value onto an output line (co-simulation injection)."""
        self.signals[self.cm.sig_index[(qname, port)]] = float(value)


def dispatch_events(cm: CompiledModel, ctxs: dict, sigs, pending: deque,
                    t: float) -> None:
    """Run the function-call targets of every queued ``(qname, port)``
    event of ``pending`` at time ``t``, each synchronously (ISR
    semantics: outputs stored into ``sigs``, then its update), until the
    queue is empty: the reference pass's dispatch and, bound to one run's
    state, the kernel fast path's (which so holds no simulator)."""
    while pending:
        qname, event_port = pending.popleft()
        for target in cm.event_targets.get((qname, event_port), ()):
            block = cm.nodes[target]
            ctx = ctxs[target]
            u = [sigs[i] for i in cm.input_map[target]]
            out = block.outputs(t, u, ctx)
            for port, v in enumerate(out):
                sigs[cm.sig_index[(target, port)]] = float(v)
            block.update(t, u, ctx)


def advance_steps(sim, n_steps: int) -> None:
    """``n_steps`` calls of ``sim.advance()`` (a :class:`Simulator` or a
    ``BatchSimulator``), polling ``sim.options.cancel`` before each: the
    step loop of the Python paths and of traced runs."""
    advance = sim.advance
    cancel = sim.options.cancel
    for _ in range(n_steps):
        if cancel is not None and cancel():
            raise SimulationCancelled(sim.step_index)
        advance()


def run_native(sim, run_chunk, n_steps: int, cancel=None) -> int:
    """``n_steps`` native major steps of ``sim`` (a :class:`Simulator` or
    a ``BatchSimulator``) in chunks of at most ``Simulator._NATIVE_CHUNK``.
    ``run_chunk(step, n, scope, trace)`` steps every lane, writing into
    the chunk's destination rows of ``sim.log`` (``scope[b]`` and
    ``trace[b]``, or a ``trace`` of None, are lane ``b``'s), and returns
    how many thread groups ran it; this loop writes the times.  ``cancel``
    is polled before each chunk.  Returns the most groups a chunk used."""
    log = sim.log
    dt = sim.options.dt
    log.room(n_steps)
    groups = 1
    for done in range(0, n_steps, Simulator._NATIVE_CHUNK):
        step = sim.step_index
        if cancel is not None and cancel():
            raise SimulationCancelled(step)
        n = min(Simulator._NATIVE_CHUNK, n_steps - done)
        rows = slice(log.n, log.n + n)
        groups = max(groups, run_chunk(
            step, n, log.scope[:, rows],
            None if log.trace is None else log.trace[:, rows]))
        # t = step * dt per step, the product advance() forms
        log.t[rows] = np.arange(step, step + n) * dt
        log.n += n
        sim.step_index = step + n
        sim.time = sim.step_index * dt
    return groups


def run_log(cm: CompiledModel, scope_sched, lanes: int,
            all_signals: bool) -> RunLog:
    """The log of ``lanes`` runs of ``cm``: each scope of ``scope_sched``
    (``(qname, signal)`` pairs) under its label and, with
    ``all_signals``, every signal as ``qname:port``."""
    scopes = [getattr(cm.nodes[qname], "label", None) or qname
              for qname, _idx in scope_sched]
    signals = None
    if all_signals:
        signals = [""] * cm.n_signals
        for (qname, port), idx in cm.sig_index.items():
            signals[idx] = f"{qname}:{port}"
    return RunLog(lanes, scopes, signals)


def simulate(
    model: Union[Model, CompiledModel],
    t_final: float,
    dt: float = 1e-3,
    solver: str = "rk4",
    **kwargs,
) -> SimulationResult:
    """One-call convenience wrapper: compile (if needed) and run."""
    opts = SimulationOptions(dt=dt, t_final=t_final, solver=solver, **kwargs)
    return Simulator(model, opts).run()
