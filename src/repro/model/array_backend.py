"""Thin array-ops seam between the batch engine and its array library.

:mod:`repro.model.batch` and :mod:`repro.model.kernels` only touch a
small, enumerable slice of the numpy API — allocation, construction,
stacking, and host transfer.  This module names that slice as an
:class:`ArrayBackend` so a GPU array library (cupy today, anything
numpy-shaped tomorrow) becomes a configuration switch instead of a
rewrite:

* :class:`NumpyBackend` — the always-available default.  Every method
  delegates straight to numpy, so the numpy path has zero added
  overhead and stays bit-identical to the pre-seam engine.
* :class:`CupyBackend` — registered lazily; constructing it raises
  :class:`BackendUnavailable` with an actionable message when cupy (or
  a CUDA device) is absent.  Index vectors stay on-device because cupy
  fancy-indexing with device indices avoids a host sync per kernel
  group.

Selection, in precedence order:

1. an explicit ``backend=`` argument (``BatchSimulator(...,
   backend="numpy")`` or a ready :class:`ArrayBackend` instance),
2. the process-wide default set via :func:`set_array_backend`,
3. the ``REPRO_ARRAY_BACKEND`` environment variable,
4. numpy.

The seam is *allocation-side only*: hot-loop arithmetic in the batch
engine is operator-based (``+``/``*``/slicing), which every
numpy-shaped library already implements, so steady-state stepping never
calls through this module.  jax is intentionally **not** registered:
its immutable arrays reject the in-place row scatter
(``S[outs] = y``) the kernels are built on; a functional rewrite is
tracked in ROADMAP, and :func:`register_backend` keeps the registry
open for it.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Optional, Union

import numpy as np

#: environment variable consulted when no explicit backend is configured
ENV_VAR = "REPRO_ARRAY_BACKEND"


class BackendUnavailable(RuntimeError):
    """The requested array backend cannot run in this environment."""


class ArrayBackend:
    """The ~15 array operations the batch engine actually performs.

    Subclasses supply a numpy-shaped implementation; everything else in
    the engine is operator arithmetic on the arrays these return.
    """

    name: str = "abstract"

    # --- allocation ----------------------------------------------------
    def zeros(self, shape) -> Any:
        raise NotImplementedError

    def empty(self, shape) -> Any:
        raise NotImplementedError

    def full(self, shape, fill_value: float) -> Any:
        raise NotImplementedError

    # --- construction / conversion ------------------------------------
    def asarray(self, data, dtype=None) -> Any:
        raise NotImplementedError

    def array(self, data, dtype=None) -> Any:
        raise NotImplementedError

    def vstack(self, rows) -> Any:
        raise NotImplementedError

    def index_array(self, data) -> Any:
        """Integer index vector for fancy indexing (``intp`` dtype)."""
        raise NotImplementedError

    # --- transfer ------------------------------------------------------
    def asnumpy(self, arr) -> np.ndarray:
        """Host-side ``numpy.ndarray`` copy/view of ``arr``."""
        raise NotImplementedError

    def scalar(self, value) -> float:
        """Host float from a zero-dim / single-element device value."""
        return float(value)

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"<ArrayBackend {self.name}>"


class NumpyBackend(ArrayBackend):
    """Default backend: direct numpy delegation, bit-identical and free."""

    name = "numpy"

    zeros = staticmethod(np.zeros)
    empty = staticmethod(np.empty)
    full = staticmethod(np.full)
    vstack = staticmethod(np.vstack)

    def asarray(self, data, dtype=None):
        return np.asarray(data, dtype=dtype)

    def array(self, data, dtype=None):
        return np.array(data, dtype=dtype)

    def index_array(self, data):
        return np.array(data, dtype=np.intp)

    def asnumpy(self, arr):
        return np.asarray(arr)


class CupyBackend(ArrayBackend):
    """GPU backend over cupy; construction fails fast when unusable."""

    name = "cupy"

    def __init__(self):
        try:
            import cupy  # noqa: PLC0415 - optional dependency
        except ImportError as exc:
            raise BackendUnavailable(
                "array backend 'cupy' requested but cupy is not importable; "
                "install cupy or select the 'numpy' backend"
            ) from exc
        try:
            cupy.zeros(1)  # touch the device once so failures surface here
        except Exception as exc:  # pragma: no cover - needs broken CUDA
            raise BackendUnavailable(
                f"cupy imported but no usable CUDA device: {exc}"
            ) from exc
        self._cp = cupy

    def zeros(self, shape):
        return self._cp.zeros(shape)

    def empty(self, shape):
        return self._cp.empty(shape)

    def full(self, shape, fill_value):
        return self._cp.full(shape, fill_value)

    def asarray(self, data, dtype=None):
        return self._cp.asarray(data, dtype=dtype)

    def array(self, data, dtype=None):
        return self._cp.array(data, dtype=dtype)

    def vstack(self, rows):
        return self._cp.vstack(rows)

    def index_array(self, data):
        return self._cp.array(data, dtype=self._cp.intp)

    def asnumpy(self, arr):
        return self._cp.asnumpy(arr)


# ---------------------------------------------------------------------------
# registry + selection
# ---------------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": NumpyBackend,
    "cupy": CupyBackend,
}
_lock = threading.Lock()
_default: Optional[ArrayBackend] = None
_cache: dict[str, ArrayBackend] = {}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    with _lock:
        _FACTORIES[str(name)] = factory
        _cache.pop(str(name), None)


def backend_names() -> list[str]:
    """Registered backend names (availability not implied)."""
    return sorted(_FACTORIES)


def backend_available(name: str) -> bool:
    """True when ``name`` is registered *and* constructs successfully."""
    try:
        _instantiate(name)
    except (KeyError, BackendUnavailable):
        return False
    return True


def _instantiate(name: str) -> ArrayBackend:
    name = str(name)
    with _lock:
        backend = _cache.get(name)
        if backend is not None:
            return backend
        factory = _FACTORIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown array backend '{name}' (registered: {backend_names()})"
        )
    backend = factory()
    with _lock:
        _cache[name] = backend
    return backend


def set_array_backend(
    backend: Union[str, ArrayBackend, None],
) -> ArrayBackend:
    """Set the process-wide default backend; returns the instance.

    ``None`` clears the override so selection falls back to the
    environment variable / numpy.
    """
    global _default
    if backend is None:
        with _lock:
            _default = None
        return get_array_backend()
    resolved = (
        backend if isinstance(backend, ArrayBackend) else _instantiate(backend)
    )
    with _lock:
        _default = resolved
    return resolved


def get_array_backend(
    backend: Union[str, ArrayBackend, None] = None,
) -> ArrayBackend:
    """Resolve ``backend`` → explicit arg > process default > env > numpy."""
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is not None:
        return _instantiate(backend)
    default = _default
    if default is not None:
        return default
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        return _instantiate(env)
    return _instantiate("numpy")
