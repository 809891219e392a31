"""Loading and driving a compiled native step-loop extension.

The generated C keeps no mutable file-scope state (see
:mod:`repro.native.emit`): each entry point takes an ``nx_ctx`` whose
buffers Python owns.  A :class:`NativePath` builds one context per
simulator from

* the engine's signal and state vectors, *borrowed* — every value the
  C loop writes is immediately visible to Python (co-simulation taps,
  scope logging, the step hook) without copies;
* this instance's parameter vector (``NativeProgram.params``), discrete
  work and integrator scratch, allocated here, or the parameter and
  discrete-work vectors the caller passes (an ensemble lane's, from
  :meth:`NativeProgram.relower`) — so simulators of different design
  points share one artifact;
* the held-output arrays blocks expose (``NativeProgram.held``),
  borrowed, so a harness writes actuation into one buffer whichever
  executor runs the plant.

:meth:`NativePath.run_chunk` steps a whole chunk in C and writes its
scope (and signal) rows straight into rows the caller owns, such as one
lane's slice of an ensemble's lane-major log.

:class:`LaneGroups` runs one chunk of every lane of an ensemble.  Each
lane owns its context and every buffer it points into, and ``nx_run``
is a ctypes call, which releases the GIL, so lanes on different threads
never share a written byte and step in parallel.  The lanes are cut
into contiguous groups, one per usable CPU (:func:`~repro.native.cache.
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

#: ``nx_ctx`` field order: S, X, DW, W, P, then the held table H[...]
_CTX_FIXED = 5

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
            for name, argtypes in (
                ("nx_out_major", [vp, ll]),
                ("nx_finish", [vp, ll]),
                ("nx_run", [vp, ll, ll, vp, vp]),
            ):
                fn = getattr(lib, name)
                fn.argtypes = argtypes
                fn.restype = None
            _libs[so_path] = lib
        return lib


def _addr(arr: Optional[np.ndarray]) -> Optional[int]:
    return None if arr is None else arr.ctypes.data


def _check_vector(name: str, arr, n: int) -> None:
    """The C loop indexes ``arr[0..n)`` through a raw pointer."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and arr.ndim == 1 and arr.flags.c_contiguous and arr.size == n):
        raise TypeError(f"{name} must be a contiguous float64 vector of {n}")


class NativePath:
    """A bound native executor for one simulator's buffers.

    ``signals`` must be a contiguous float64 ndarray (the engine swaps
    its scalar list out right before binding); ``states`` is the
    engine's state vector, shared with every ``BlockContext.x`` view.
    ``params``/``dwork`` replace the program's own vectors (owned by the
    context from then on).
    """

    def __init__(self, program, so_path: str, signals: np.ndarray,
                 states: Optional[np.ndarray],
                 params: Optional[np.ndarray] = None,
                 dwork: Optional[np.ndarray] = None):
        _check_vector("signals", signals, program.n_signals)
        if program.n_states:
            _check_vector("states", states, program.n_states)
        if params is None:
            params = np.array(program.params or [0.0], dtype=np.float64)
        if dwork is None:
            dwork = np.array(program.dwork_init or [0.0], dtype=np.float64)
        _check_vector("params", params, max(1, len(program.params)))
        _check_vector("dwork", dwork, max(1, program.n_dwork))
        self.program = program
        self.so_path = so_path
        #: the process-wide library handle (shared by every context)
        self.lib = lib = load_library(so_path)
        work = np.zeros(5 * max(1, program.n_states))
        held = list(program.held) or [None]
        #: every buffer the context points into, kept alive with it
        self._buffers = (signals, states, dwork, work, params, *held)
        states = states if program.n_states else None
        addrs = [_addr(signals), _addr(states), _addr(dwork), _addr(work),
                 _addr(params)]
        addrs += [_addr(b) for b in held]
        self._ctx = (ctypes.c_void_p * (_CTX_FIXED + len(held)))(*addrs)
        ctx = ctypes.addressof(self._ctx)
        #: ``out_major(step)`` / ``finish(step)``: the two halves of one
        #: major step, context pre-bound
        self.out_major = partial(lib.nx_out_major, ctx)
        self.finish = partial(lib.nx_finish, ctx)
        self._run = partial(lib.nx_run, ctx)

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
        self._run(start, n, _addr(scope), _addr(trace))


def _check_rows(name: str, arr, n: int, width: int) -> None:
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and arr.shape == (n, width) and arr.flags.c_contiguous):
        raise TypeError(f"{name} must be C-contiguous float64 rows of "
                        f"shape {(n, width)}")


#: a chunk of fewer block-steps (steps x lanes x scheduled blocks) than
#: this runs on the calling thread.  Starting and joining a thread costs
#: about 90 us on a 2-vCPU host, and a servo lane-step (18 blocks) about
#: 0.11 us, so 100k block-steps are about 0.6 ms of work, and a two-way
#: split of them saves about three times what its hand-off costs.  A
#: coalesced SimServe batch of 201-step servo jobs (at most 16 lanes x
#: 201 steps x 18 blocks, about 58k block-steps) stays on one thread.
SPLIT_MIN_BLOCK_STEPS = 100_000


class LaneGroups:
    """An ensemble's native lanes, cut into contiguous groups (one per
    usable CPU, sizes differing by at most one) that step each chunk on
    threads of their own.

    ``blocks`` is the number of scheduled blocks one lane-step runs
    (the measure of :data:`SPLIT_MIN_BLOCK_STEPS`).
    """

    def __init__(self, lanes: Sequence[NativePath], blocks: int):
        self.lanes = list(lanes)
        n_lanes = len(self.lanes)
        width = min(n_lanes, cache.cc_slots())
        q, r = divmod(n_lanes, width)
        edges = [g * q + min(g, r) for g in range(width + 1)]
        #: ``(first, end)`` lane index ranges, one per group
        self.groups = list(zip(edges, edges[1:]))
        self._block_steps = n_lanes * max(1, blocks)

    def run_chunk(self, start: int, n: int, scope: np.ndarray,
                  trace: Optional[np.ndarray] = None) -> int:
        """``n`` major steps of every lane from step ``start``: lane
        ``b`` runs one :meth:`NativePath.run_chunk` into ``scope[b]``
        (and ``trace[b]``).  Returns how many groups ran the chunk."""
        if (len(self.groups) == 1
                or n * self._block_steps < SPLIT_MIN_BLOCK_STEPS):
            self._run(0, len(self.lanes), start, n, scope, trace)
            return 1
        self._split(start, n, scope, trace)
        return len(self.groups)

    def _run(self, first: int, end: int, start: int, n: int,
             scope: np.ndarray, trace: Optional[np.ndarray]) -> None:
        lanes = self.lanes
        for b in range(first, end):
            lanes[b].run_chunk(start, n, scope[b],
                               None if trace is None else trace[b])

    def _split(self, start: int, n: int, scope: np.ndarray,
               trace: Optional[np.ndarray]) -> None:
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
