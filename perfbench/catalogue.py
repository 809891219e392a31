"""Every metric the benchmark reports: name, unit and which way is better.

``END_TO_END`` is printed by an untraced run (``--trace 0``),
``PER_LAYER`` by a traced run (``--trace 1``).  Every workload reports
every name; a layer a workload does not load reports 0 there.
``BENCHMARK.json`` lists the same names (the self-test checks this).

Simulated time and host time are kept apart: ``sim_rtf`` is simulated
seconds per host second; every other ``*_s`` / ``*_ms`` is host time.
In the per-layer list, ``*_s`` is host *self* time summed over the
traced phase (a span's duration minus its child spans), except
``sim.pil_run_s`` (total time inside ``PILSimulator.run``) and
``service.queue_wait_s`` (time jobs waited between submit and
``Scheduler.next_job``).
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("sim_rtf", "s/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

FALLBACK_REASONS = (
    "disabled",
    "below_auto_threshold",
    "plan_refused",
    "toolchain_missing",
    "compile_error",
    "kernel_disabled",
    "kernel_plan_refused",
)

_COMM = [
    ("line_transmits", "count", "lower"),
    ("line_s", "s", "lower"),
    ("decode_feeds", "count", "lower"),
    ("decode_s", "s", "lower"),
    ("encodes", "count", "lower"),
    ("encode_s", "s", "lower"),
    ("arq_calls", "count", "lower"),
    ("arq_s", "s", "lower"),
    ("retransmits", "count", "lower"),
    ("data_fresh_ratio", "ratio", "higher"),
]

#: (name, unit, better)
PER_LAYER = (
    [
        ("sim.pil_runs", "count", "lower"),
        ("sim.pil_run_s", "s", "lower"),
        ("sim.pil_self_s", "s", "lower"),
        ("sim.split_s", "s", "lower"),
        ("mcu.run_until_self_s", "s", "lower"),
        ("mcu.schedule_calls", "count", "lower"),
        ("mcu.schedule_s", "s", "lower"),
        ("mcu.irq_requests", "count", "lower"),
        ("mcu.irq_s", "s", "lower"),
    ]
    + [(f"comm.{cls}.{name}", unit, better)
       for cls in ("clean", "faulted") for name, unit, better in _COMM]
    + [
        ("faults.byte_hook_calls", "count", "lower"),
        ("faults.byte_hook_s", "s", "lower"),
        ("core.builds", "count", "lower"),
        ("core.build_s", "s", "lower"),
        ("model.builds", "count", "lower"),
        ("model.build_s", "s", "lower"),
        ("model.compiles", "count", "lower"),
        ("model.compile_s", "s", "lower"),
        ("engine.initializes", "count", "lower"),
        ("engine.initialize_s", "s", "lower"),
        ("engine.advance_calls", "count", "lower"),
        ("engine.advance_s", "s", "lower"),
        ("engine.runs", "count", "lower"),
        ("engine.run_s", "s", "lower"),
        ("engine.python_steps_per_s", "1/s", "higher"),
        ("engine.native_active_ratio", "ratio", "higher"),
    ]
    + [(f"engine.fallback.{r}", "count", "lower") for r in FALLBACK_REASONS]
    + [
        ("batch.runs", "count", "lower"),
        ("batch.run_s", "s", "lower"),
        ("batch.lane_steps", "count", "higher"),
        ("native.codegens", "count", "lower"),
        ("native.codegen_s", "s", "lower"),
        ("native.compile_s", "s", "lower"),
        ("native.cache_hits", "count", "higher"),
        ("native.cache_misses", "count", "lower"),
        ("native.steps_per_s", "1/s", "higher"),
        ("fuzz.clean_candidates", "count", "higher"),
        ("fuzz.faulted_candidates", "count", "higher"),
        ("fuzz.mutations", "count", "higher"),
        ("fuzz.mutate_s", "s", "lower"),
        ("fuzz.signatures", "count", "higher"),
        ("fuzz.signature_s", "s", "lower"),
        ("fuzz.novel_ratio", "ratio", "higher"),
        ("obs.capture_events", "count", "lower"),
        ("service.submits", "count", "higher"),
        ("service.submit_s", "s", "lower"),
        ("service.queue_wait_s", "s", "lower"),
        ("service.cache_leases", "count", "higher"),
        ("service.cache_lease_s", "s", "lower"),
        ("service.model_cache_hit_ratio", "ratio", "higher"),
        ("service.execs", "count", "higher"),
        ("service.exec_s", "s", "lower"),
        ("service.store_puts", "count", "higher"),
        ("service.store_s", "s", "lower"),
        ("service.rejected", "count", "lower"),
        ("loadgen.max_lag_ms", "ms", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.work_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
        ("trace_overhead_pct", "%", "lower"),
    ]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
