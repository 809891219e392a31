"""SimServe — the batched simulation job service.

Turns the engine (:mod:`repro.model`), the PIL rig (:mod:`repro.sim`)
and the fault-campaign substrate (:mod:`repro.faults`) into a
multi-tenant backend: typed job requests with priorities, deadlines and
cancellation; a bounded priority queue with explicit backpressure; a
thread- or process-backed worker pool; a compiled-model cache keyed by a
deterministic content hash (repeat submissions skip
``CompiledModel.build`` entirely); a bounded LRU result store; and a
live metrics surface.

Quickstart::

    from repro.service import SimServe, MILRequest

    with SimServe(workers=4) as svc:
        handle = svc.submit(MILRequest(builder=build, dt=1e-4, t_final=0.1))
        result = handle.result()

CLI demo: ``python -m repro.service`` (batch PID-gain sweep + metrics).
"""

from .jobs import (
    AdmissionError,
    CampaignCellRequest,
    Job,
    JobCancelled,
    JobFailed,
    JobHandle,
    JobPriority,
    JobState,
    MILRequest,
    PILRequest,
    QueueFull,
    ServiceClosed,
    SweepRequest,
)
from .client import BatchSweepHandle, SimServe, SweepHandle
from .coalesce import CoalesceConfig, CoalescedBatch, coalesce_key
from .metrics import Histogram, ServiceMetrics
from .model_cache import ModelCache, model_content_hash
from .results import JobRecord, ResultStore
from .scheduler import Scheduler
from .workers import WorkerPool, execute_request

__all__ = [
    "AdmissionError",
    "BatchSweepHandle",
    "CampaignCellRequest",
    "CoalesceConfig",
    "CoalescedBatch",
    "Histogram",
    "Job",
    "JobCancelled",
    "JobFailed",
    "JobHandle",
    "JobPriority",
    "JobRecord",
    "JobState",
    "MILRequest",
    "ModelCache",
    "PILRequest",
    "QueueFull",
    "ResultStore",
    "Scheduler",
    "ServiceClosed",
    "ServiceMetrics",
    "SimServe",
    "SweepHandle",
    "SweepRequest",
    "WorkerPool",
    "coalesce_key",
    "execute_request",
    "model_content_hash",
]
