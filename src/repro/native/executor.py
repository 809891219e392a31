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

The loader is plain-stdlib ctypes.  Each artifact is opened once per
process and its handle shared by every simulator bound to it.
"""

from __future__ import annotations

import ctypes
import threading
from functools import partial
from typing import Optional

import numpy as np

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

    def run_chunk(self, start: int, n: int, want_trace: bool):
        """Run ``n`` major steps; returns ``(scope_rows, trace_rows)``
        as ``(n, n_scopes)`` / ``(n, n_signals)`` arrays (trace is
        ``None`` unless requested)."""
        scope = np.empty((n, max(1, len(self.program.scope_sigs))))
        trace = np.empty((n, self.program.n_signals)) if want_trace else None
        self._run(start, n, _addr(scope), _addr(trace))
        return scope, trace
