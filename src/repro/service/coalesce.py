"""Continuous batching for SimServe: dynamic vector-job formation.

PR 5's :class:`~repro.model.BatchSimulator` amortizes one compiled model
across ``B`` lanes, but only for a *static* batch the caller assembles up
front.  This module lets the **scheduler** assemble those batches: queued
MIL and batched-sweep jobs that share a canonical model document (same
content hash, same ``dt``/``solver``/``t_final``/logging) are coalesced
into one vector job, and late arrivals are admitted at the next major-
step boundary — i.e. any compatible job that lands before the worker
calls ``initialize()`` joins the in-flight batch at step 0.  This is the
inference-server "continuous batching" playbook applied to simulation
serving.

Three pieces:

* :func:`coalesce_key` — the compatibility key.  Two requests may share
  one :class:`~repro.model.BatchSimulator` run iff their canonical model
  documents hash identically **and** every option that shapes the
  trajectory (``dt``, ``solver``, ``t_final``, ``log_all_signals``)
  matches.  Requests that cannot be keyed (PIL, campaign cells, fan-out
  sweeps, unhashable models) return ``None`` and always run serial.
* :class:`CoalesceConfig` — max batch width and the coalesce window: how
  long the first popped job waits for same-key peers before the batch is
  sealed.  ``from_env()`` reads the ``SIMSERVE_COALESCE*`` variables so
  the feature is a deployment switch, not a code change.
* :class:`CoalescedBatch` — what the scheduler hands a worker instead of
  a bare :class:`~repro.service.jobs.Job` when two or more jobs fused.
  A window that expires with a single member yields the bare job — a
  lone submission runs on the serial path, never as a B=1 vector job.

Invariants the scheduler enforces during formation (tested in
``tests/service/test_coalesce.py``):

* only PENDING, same-priority-class jobs coalesce — a HIGH job is never
  delayed by (or fused with) NORMAL traffic;
* a peer whose deadline expired is shed through the normal ``on_shed``
  path during formation, never silently absorbed — coalescing does not
  cross a deadline-shed boundary;
* per-lane results demux through the existing job/record plumbing
  bit-identical to a direct serial run of each member.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.model.io import model_content_hash

from .jobs import Job, MILRequest, SweepRequest

#: environment switches (read by :meth:`CoalesceConfig.from_env`)
ENV_ENABLE = "SIMSERVE_COALESCE"
ENV_MAX_BATCH = "SIMSERVE_COALESCE_MAX_BATCH"
ENV_WINDOW_S = "SIMSERVE_COALESCE_WINDOW_S"


@dataclass(frozen=True)
class CoalesceConfig:
    """Continuous-batching knobs.

    ``max_batch`` caps vector-job width (the batch seals early once
    reached); ``window_s`` is how long the first job of a forming batch
    waits for compatible peers.  ``window_s=0`` still coalesces whatever
    is *already queued* at pop time — it only disables waiting.
    """

    max_batch: int = 16
    window_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch < 2:
            raise ValueError("max_batch must be >= 2 (1 is just serial)")
        if self.window_s < 0:
            raise ValueError("window_s must be >= 0")

    @classmethod
    def from_env(cls) -> Optional["CoalesceConfig"]:
        """Config from ``SIMSERVE_COALESCE*`` env vars; None when off."""
        flag = os.environ.get(ENV_ENABLE, "").strip().lower()
        if flag not in ("1", "true", "on", "yes"):
            return None
        kwargs = {}
        raw = os.environ.get(ENV_MAX_BATCH, "").strip()
        if raw:
            kwargs["max_batch"] = int(raw)
        raw = os.environ.get(ENV_WINDOW_S, "").strip()
        if raw:
            kwargs["window_s"] = float(raw)
        return cls(**kwargs)


def coalesce_key(request) -> Optional[Tuple]:
    """Compatibility key for continuous batching, or None to stay serial.

    Keyed on the canonical model-document hash (which already folds in
    ``dt`` and ``solver``) plus every remaining option that shapes the
    trajectory or the log set.  ``retain_trace`` is deliberately
    excluded — it only controls result-store retention and is honored
    per member at demux.  MIL jobs and batched sweeps with one model doc
    can share a run: a lane is a lane.
    """
    if isinstance(request, MILRequest):
        pass
    elif isinstance(request, SweepRequest) and request.execution == "batch":
        pass
    else:
        return None
    try:
        content = model_content_hash(
            request.resolve_model(), request.dt, request.solver
        )
    except Exception:
        # unhashable (callable-holding) or unbuildable models run serial;
        # the build error, if real, surfaces on the worker with context
        return None
    return (content, request.t_final, request.log_all_signals)


class CoalescedBatch:
    """Two or more same-key jobs the scheduler fused into one vector run.

    Ordering of ``members`` is the scheduler's dequeue order (priority,
    then FIFO), which fixes lane order and therefore demux order.
    """

    __slots__ = ("key", "members")

    def __init__(self, key: Tuple, members: List[Job]):
        if len(members) < 2:
            raise ValueError("a coalesced batch needs >= 2 members")
        self.key = key
        self.members = members

    @property
    def width(self) -> int:
        """Number of member *jobs* (lane count can be higher: a batched
        sweep member contributes one lane per scenario)."""
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = ",".join(j.id for j in self.members)
        return f"<CoalescedBatch x{len(self.members)} [{ids}]>"
