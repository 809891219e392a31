"""Loading and driving a compiled native step-loop extension.

The generated C keeps no mutable file-scope state (see
:mod:`repro.native.emit`): each entry point takes an ``nx_ctx`` whose
buffers Python owns.  A :class:`NativePath` builds one context per
simulator from

* the engine's signal and state vectors, *borrowed* — every value the
  C loop writes is immediately visible to Python (co-simulation taps
  between steps) without copies;
* this instance's parameter vector (``NativeProgram.params``), discrete
  work and integrator scratch, allocated here — so simulators of
  different design points share one artifact;
* the held-output arrays blocks expose (``NativeProgram.held``),
  borrowed, so a harness writes actuation into one buffer whichever
  executor runs the plant.

``nx_run`` is the artifact's one entry point.  :meth:`NativePath.run_chunk`
steps a whole chunk in C and writes its scope (and signal) rows straight
into rows the caller owns, such as one lane's slice of a
:class:`~repro.model.result.RunLog`, after checking them;
:attr:`NativePath.nx_run` is the same call unchecked, for a caller that
checked its log once (:meth:`NativePath.check_log`) and steps one row at
a time (``Simulator.advance``).

:class:`LaneGroups` holds an ensemble's lanes and runs one chunk of
every lane.  Lane ``b`` is one ``nx_ctx`` whose pointers address row
``b`` of the ensemble's ``(B, n)`` signal, state and scratch matrices
and of its form's parameter and discrete-work matrices
(:meth:`NativeProgram.lane_vectors`); the contexts are one array of
addresses (:func:`contexts`, which also builds a :class:`NativePath`'s
one-row context), so making a lane allocates no buffer of its own.
Each lane writes only its own rows, and ``nx_run`` is a ctypes call,
which releases the GIL, so lanes on different threads never share a
written byte and step in parallel.  The lanes are cut into contiguous
groups, one per usable CPU (:func:`~repro.native.cache.
cc_slots`): adjacent lanes' signal and state rows share cache lines,
and interleaved groups (lanes 0, 2, 4, ... on one thread) ran a
16-lane servo chunk slower than one thread did.  The calling thread
runs the first group and a fresh thread each other one; a chunk too
small to pay for the hand-off (:data:`SPLIT_MIN_BLOCK_STEPS`) stays on
the calling thread.  Fresh threads keep no state that a forked child
could inherit half-built; a pool's hand-off (about 35 us against 90 us
on a 2-vCPU host) would save under 2 % of a split 16-lane servo chunk.

The loader is plain-stdlib ctypes.  Each artifact is opened once per
process and its handle shared by every simulator bound to it.
"""

from __future__ import annotations

import ctypes
import threading
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import cache

_libs: dict[str, ctypes.CDLL] = {}
_libs_lock = threading.Lock()


def load_library(so_path: str) -> ctypes.CDLL:
    """The process-wide handle for ``so_path``, opened on first use.
    Artifact paths are content-addressed, so one path is one TU (one
    model structure, whatever its parameter values)."""
    with _libs_lock:
        lib = _libs.get(so_path)
        if lib is None:
            lib = ctypes.CDLL(so_path)
            vp, ll = ctypes.c_void_p, ctypes.c_longlong
            lib.nx_run.argtypes = [vp, ll, ll, vp, vp]
            lib.nx_run.restype = None
            _libs[so_path] = lib
        return lib


def _addr(arr: Optional[np.ndarray]) -> Optional[int]:
    return None if arr is None else arr.ctypes.data


def context_sizes(program) -> tuple[int, int, int]:
    """``(P, DW, W)``: how many doubles one context's parameter,
    discrete-work and integrator-scratch rows hold (at least one each,
    so the C loop never gets a pointer to nothing)."""
    return (max(1, len(program.params)), max(1, program.n_dwork),
            5 * max(1, program.n_states))


def contexts(program, signals: np.ndarray, states: Optional[np.ndarray],
             dwork: np.ndarray, params: np.ndarray, held: Sequence = ()):
    """``(ctx, work)``: row ``b`` of ``ctx`` is one ``nx_ctx``, the
    emitted struct's fields in order: the addresses of row ``b`` of
    ``signals``, ``states``, ``dwork``, the integrator scratch ``work``
    (allocated here) and ``params``, then the held table ``H``, one
    address per ``held`` buffer.  The matrices are ``(rows, n)``, checked
    against ``program``'s sizes: the C loop indexes them through raw
    pointers.  ``states`` is ignored when the program has none."""
    rows = len(signals)
    n_params, n_dwork, n_work = context_sizes(program)
    _check_rows("signals", signals, rows, program.n_signals)
    if program.n_states:
        _check_rows("states", states, rows, program.n_states)
    else:
        states = None
    _check_rows("dwork", dwork, rows, n_dwork)
    _check_rows("params", params, rows, n_params)
    work = np.zeros((rows, n_work))
    # (address of row 0, bytes between rows) per field; every row shares
    # the held buffers, and an empty H table holds one NULL
    fields = [(0, 0) if a is None else (a.ctypes.data, a.strides[0])
              for a in (signals, states, dwork, work, params)]
    fields += [(h.ctypes.data, 0) for h in held] or [(0, 0)]
    ctx = np.array([[a + b * step for a, step in fields] for b in range(rows)],
                   dtype=np.uintp)
    return ctx, work


class NativePath:
    """A bound native executor for one simulator's buffers.

    ``signals`` must be a contiguous float64 ndarray (the engine swaps
    its scalar list out right before binding); ``states`` is the
    engine's state vector, shared with every ``BlockContext.x`` view.
    """

    def __init__(self, program, so_path: str, signals: np.ndarray,
                 states: Optional[np.ndarray]):
        params = np.array([program.params or [0.0]])
        dwork = np.array([program.dwork_init or [0.0]])
        held = list(program.held)
        ctx, work = contexts(
            program, signals[None],
            states[None] if program.n_states else None, dwork, params, held)
        self.program = program
        self.so_path = so_path
        #: the process-wide library handle (shared by every context)
        self.lib = lib = load_library(so_path)
        #: every buffer the context points into, kept alive with it
        self._buffers = (signals, states, dwork, work, params, ctx, *held)
        #: ``nx_run(start, n, scope_addr, trace_addr)`` with the context
        #: pre-bound: no check, the caller owns the rows' addresses
        self.nx_run = partial(lib.nx_run, ctx.ctypes.data)

    def run_chunk(self, start: int, n: int, scope: np.ndarray,
                  trace: Optional[np.ndarray] = None) -> None:
        """Run ``n`` major steps from step ``start``, writing each
        step's scope samples into a row of ``scope`` (``(n, n_scopes)``)
        and, unless ``trace`` is None, its signal vector into a row of
        ``trace`` (``(n, n_signals)``).  Both must be C-contiguous
        float64: the C loop writes them through raw pointers."""
        _check_rows("scope", scope, n, len(self.program.scope_sigs))
        if trace is not None:
            _check_rows("trace", trace, n, self.program.n_signals)
        self.nx_run(start, n, _addr(scope), _addr(trace))

    def check_log(self, log) -> None:
        """``log`` (a one-lane :class:`~repro.model.result.RunLog`) has
        this program's row widths, so :attr:`nx_run` may write its rows
        by address: a growth re-allocates the rows, never their width."""
        _check_rows("scope", log.scope[0], log.capacity,
                    len(self.program.scope_sigs))
        if log.trace is not None:
            _check_rows("trace", log.trace[0], log.capacity,
                        self.program.n_signals)


def _check_rows(name: str, arr, n: int, width: int) -> None:
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and arr.shape == (n, width) and arr.flags.c_contiguous):
        raise TypeError(f"{name} must be C-contiguous float64 rows of "
                        f"shape {(n, width)}")


#: a chunk of fewer block-steps (steps x lanes x scheduled blocks) than
#: this runs on the calling thread.  A servo lane-step (18 blocks) costs
#: about 49 ns in a 16-lane chunk, so 100k block-steps are about 0.27 ms
#: of work.  On a 2-vCPU host (medians of 40 chunks), 16 servo lanes x
#: 4096 steps ran in 3.19 ms as one group and 1.85 ms as two, while
#: 16 x 201 steps (58k block-steps: the most a coalesced SimServe batch
#: of 201-step servo jobs holds) ran in 0.18 ms as one group and 0.34 ms
#: as two, so it stays on one thread.  Two groups broke even near
#: 16 x 600 steps (about 170k block-steps; 16 x 350 ran in 0.29 ms as one
#: group and 0.39 ms as two).
SPLIT_MIN_BLOCK_STEPS = 100_000


class LaneGroups:
    """An ensemble's native lanes, cut into contiguous groups (one per
    usable CPU, sizes differing by at most one) that step each chunk on
    threads of their own.

    ``signals`` and ``states`` are the lanes' C-contiguous ``(B,
    n_signals)`` and ``(B, n_states)`` matrices.  ``forms`` lists
    ``(program, so_path, params, dwork)`` per emitted form, with the
    form's ``(B, n)`` parameter and discrete-work matrices, and
    ``lane_forms[b]`` is the index of lane ``b``'s form: lane ``b``'s
    context points into row ``b`` of each matrix it reads.  ``blocks``
    is the number of scheduled blocks one lane-step runs (the measure
    of :data:`SPLIT_MIN_BLOCK_STEPS`).
    """

    def __init__(self, signals: np.ndarray, states: np.ndarray,
                 forms: Sequence[tuple], lane_forms: Sequence[int],
                 blocks: int):
        n_lanes = len(lane_forms)
        program = forms[0][0]
        made, runs = [], []
        for prog, so_path, params, dwork in forms:
            if prog.held:
                raise TypeError("lanes cannot share held-output buffers")
            made.append(contexts(prog, signals, states, dwork, params))
            runs.append(load_library(so_path).nx_run)
        #: lane ``b``'s context: row ``b`` of its form's contexts
        ctx = np.stack([c for c, _work in made])[lane_forms,
                                                  np.arange(n_lanes)]
        #: every buffer the contexts point into, kept alive with them
        self._buffers = (signals, states, forms, made, ctx)
        #: lane ``b``'s context is at ``_contexts[0] + b * _contexts[1]``
        self._contexts = (ctx.ctypes.data, ctx.strides[0])
        #: per lane, its form's ``nx_run(ctx, start, n, scope_addr,
        #: trace_addr)`` (the caller owns the rows' addresses)
        self.lanes = [runs[f] for f in lane_forms]
        self._n_scopes = len(program.scope_sigs)
        self._n_signals = program.n_signals
        width = min(n_lanes, cache.cc_slots())
        q, r = divmod(n_lanes, width)
        edges = [g * q + min(g, r) for g in range(width + 1)]
        #: ``(first, end)`` lane index ranges, one per group
        self.groups = list(zip(edges, edges[1:]))
        self._block_steps = n_lanes * max(1, blocks)

    def run_chunk(self, start: int, n: int, scope: np.ndarray,
                  trace: Optional[np.ndarray] = None) -> int:
        """``n`` major steps of every lane from step ``start``: lane
        ``b`` writes each step's scope samples into a row of
        ``scope[b]`` (``scope`` is ``(B, n, n_scopes)``) and, unless
        ``trace`` is None, its signal vector into a row of ``trace[b]``
        (``(B, n, n_signals)``).  Each lane's rows must be C-contiguous
        float64: the C loop writes them through raw pointers.  Returns
        how many groups ran the chunk."""
        rows = [_lane_rows("scope", scope, len(self.lanes), n, self._n_scopes)]
        rows.append(None if trace is None else _lane_rows(
            "trace", trace, len(self.lanes), n, self._n_signals))
        if (len(self.groups) == 1
                or n * self._block_steps < SPLIT_MIN_BLOCK_STEPS):
            self._run(0, len(self.lanes), start, n, *rows)
            return 1
        self._split(start, n, *rows)
        return len(self.groups)

    def _run(self, first: int, end: int, start: int, n: int,
             scope: tuple, trace: Optional[tuple]) -> None:
        """Lanes ``first`` to ``end``; ``scope`` and ``trace`` are
        ``(address of lane 0's rows, bytes between lanes)``."""
        lanes = self.lanes
        c0, dc = self._contexts
        s0, ds = scope
        t0, dt = trace or (0, 0)
        for b in range(first, end):
            lanes[b](c0 + b * dc, start, n, s0 + b * ds,
                     None if trace is None else t0 + b * dt)

    def _split(self, start: int, n: int, scope: tuple,
               trace: Optional[tuple]) -> None:
        """The first group on the calling thread, each other group on a
        fresh thread; the first error any group raised is re-raised
        here once every group has finished."""
        errors: list[BaseException] = []

        def group(first: int, end: int) -> None:
            try:
                self._run(first, end, start, n, scope, trace)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=group, args=g, daemon=True)
                   for g in self.groups[1:]]
        for t in threads:
            t.start()
        try:
            self._run(*self.groups[0], start, n, scope, trace)
        finally:
            for t in threads:
                t.join()
        if errors:
            raise errors[0]


def _lane_rows(name: str, arr, lanes: int, n: int, width: int) -> tuple:
    """``(address of lane 0's rows, bytes between lanes)`` of ``arr``,
    ``(lanes, n, width)`` float64 whose lanes are C-contiguous rows."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and arr.shape == (lanes, n, width) and arr[0].flags.c_contiguous):
        raise TypeError(f"{name} must be float64 lanes of C-contiguous rows "
                        f"of shape {(lanes, n, width)}")
    return arr.ctypes.data, arr.strides[0]
