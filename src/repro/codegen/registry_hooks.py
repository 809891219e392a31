"""Deferred template registration.

Domain packages (model extras, control, plants) provide TLC templates for
their block types, but importing :mod:`repro.codegen.templates` from their
module bodies creates import-order cycles (codegen imports the model core,
the model library provides templates to codegen).  This module breaks the
cycle: it has **no imports**, so anyone can queue a registration thunk at
import time; :func:`repro.codegen.templates.default_registry` drains the
queue on every call, so templates are installed before any lookup.
"""

from __future__ import annotations

_LAZY: list = []
#: registrations of *native* simulation templates, drained only when a
#: model is first lowered to C, so providing one never makes code
#: generation (or a run with the native path off) import ``repro.native``
_LAZY_NATIVE: list = []


def register_lazy(fn) -> None:
    """Queue a zero-argument registration function (idempotent running is
    the caller's concern; each thunk runs exactly once)."""
    _LAZY.append(fn)


def register_native_lazy(fn) -> None:
    """Queue a zero-argument native-template registration (drained by
    :func:`repro.native.templates.ensure_installed`)."""
    _LAZY_NATIVE.append(fn)


def drain() -> None:
    """Run every queued registration (called by ``default_registry``)."""
    while _LAZY:
        _LAZY.pop(0)()


def drain_native() -> None:
    """Run every queued native-template registration."""
    while _LAZY_NATIVE:
        _LAZY_NATIVE.pop(0)()
