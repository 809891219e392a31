"""repro.native — the compiled C fast path behind the kernel planner.

Lowers a planned model (:mod:`repro.model.kernels`) to one C
translation unit (:mod:`repro.native.emit`) through the native half of
the shared template registry (:mod:`repro.native.templates` /
:mod:`repro.codegen.templates`), compiles it with the host toolchain
into a disk-cached shared object (:mod:`repro.native.cache`), and
hot-loads it as the engine's step-loop executor
(:mod:`repro.native.executor`).  Bit-exactness vs the reference
interpreter is the contract; every failure rung (no toolchain, plan
refused, compile error) falls back to the existing Python paths and
increments ``kernel_fallback_total{reason=...}``.
"""

from __future__ import annotations

from typing import Optional

from .cache import (
    ToolchainError,
    compiler_fingerprint,
    doc_hash_for,
    ensure_compiled,
    find_cc,
    native_cache_stats,
    reuse_compiled,
    wait_pending,
)
from .emit import (
    TEMPLATE_VERSION,
    NativeLoweringError,
    NativeProgram,
    generate_program,
)
from .executor import NativePath
from .templates import NativeTemplate, ensure_installed

__all__ = [
    "TEMPLATE_VERSION",
    "NativeLoweringError",
    "NativeProgram",
    "NativePath",
    "NativeTemplate",
    "ToolchainError",
    "build_native_path",
    "compiler_fingerprint",
    "count_fallback",
    "doc_hash_for",
    "ensure_compiled",
    "ensure_installed",
    "find_cc",
    "generate_program",
    "native_cache_stats",
    "reuse_compiled",
    "wait_pending",
]

#: the fallback-reason taxonomy surfaced on ``kernel_fallback_total``
FALLBACK_REASONS = (
    "disabled",
    "below_auto_threshold",
    "plan_refused",
    "toolchain_missing",
    "compile_pending",
    "compile_error",
)


def count_fallback(reason: str) -> None:
    """Bump ``kernel_fallback_total{reason=...}`` in the process-global
    metrics registry."""
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "kernel_fallback_total",
        "native/kernel fast-path fallbacks by reason",
        labels={"reason": reason},
    ).inc()


def generate_tu(sim, plan=None) -> str:
    """The C translation unit for a simulator (the ``python -m
    repro.codegen dump`` entry point).  Initializes the sim if needed —
    dwork initial values are read from the started block contexts."""
    if not sim._initialized:
        sim.initialize()
    if plan is None:
        from repro.model.kernels import plan_kernels

        plan = plan_kernels(sim.cm)
    return generate_program(sim, plan).source


def build_native_path(sim, plan=None) -> NativePath:
    """Lower, compile (or reuse the cached artifact), and load the
    native executor for ``sim``.

    Raises :class:`NativeLoweringError` when the model refuses to lower
    and :class:`ToolchainError` when no compiler is present or the
    compile fails.  The caller (``Simulator._bind_native``) maps those
    onto the fallback ladder.
    """
    import numpy as np

    if plan is None:
        from repro.model.kernels import plan_kernels

        plan = plan_kernels(sim.cm)
    program = generate_program(sim, plan)
    so_path = ensure_compiled(program.source, doc_hash_for(sim))
    if not isinstance(sim.signals, np.ndarray):
        # the extension borrows this buffer; scalar list -> ndarray
        sim.signals = np.ascontiguousarray(sim.signals, dtype=np.float64)
    return NativePath(program, so_path, sim.signals, sim.x)
