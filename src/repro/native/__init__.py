"""repro.native — the compiled C fast path behind the kernel planner.

Lowers a planned model (:mod:`repro.model.kernels`) to one C
translation unit (:mod:`repro.native.emit`) through the native half of
the shared template registry (:mod:`repro.native.templates` /
:mod:`repro.codegen.templates`), compiles it with the host toolchain
into a disk-cached shared object (:mod:`repro.native.cache`), and
hot-loads it as the engine's step-loop executor
(:mod:`repro.native.executor`).  Block parameters travel as data in the
executor's context, so one artifact serves every design point of a
model structure.  Bit-exactness vs the reference interpreter is the
contract; every failure rung (no toolchain, plan refused, compile
error) falls back to the existing Python paths and increments
``kernel_fallback_total{reason=...}`` (see ``Simulator._bind_native``).
"""

from __future__ import annotations

from .cache import (
    ToolchainError,
    compiler_fingerprint,
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
    "compiler_fingerprint",
    "ensure_compiled",
    "ensure_installed",
    "find_cc",
    "generate_program",
    "generate_tu",
    "native_cache_stats",
    "reuse_compiled",
    "wait_pending",
]


def generate_tu(sim, plan=None) -> str:
    """The C translation unit for a simulator followed by its parameter
    vector as a comment (:meth:`NativeProgram.listing`; the ``python -m
    repro.codegen dump`` output).  Initializes the sim if needed — dwork
    initial values are read from the started block contexts."""
    if not sim._initialized:
        sim.initialize()
    if plan is None:
        from repro.model.kernels import plan_kernels

        plan = plan_kernels(sim.cm)
    return generate_program(sim, plan).listing()
