"""SimServe job model: typed requests, priorities, lifecycle, handles.

Every unit of work the service accepts is a *request* — a declarative,
picklable description of one simulation to run (MIL run, PIL session,
fault-campaign cell) or a family of them (parameter sweep).  The service
wraps each accepted request in a :class:`Job` carrying the scheduling
metadata the paper's workflow never needed in-process but a shared
backend cannot live without: priority, submission deadline, cancellation,
and timing bookkeeping.

Requests are plain dataclasses so the process-backed worker pool can ship
them through a :class:`~concurrent.futures.ProcessPoolExecutor`
unchanged; for that to work, ``builder`` / ``make_pil`` callables must be
module-level functions, exactly like
:meth:`repro.faults.FaultCampaign.run` already requires.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.model.graph import Model


class JobPriority(IntEnum):
    """Smaller value = dequeued first (heap order)."""

    HIGH = 0
    NORMAL = 1
    LOW = 2


class JobState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"  # shed: deadline passed before a worker picked it up

    @property
    def terminal(self) -> bool:
        return self not in (JobState.PENDING, JobState.RUNNING)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------
class AdmissionError(Exception):
    """The service refused to accept a submission."""


class QueueFull(AdmissionError):
    """Bounded queue is at capacity — explicit backpressure, never a hang."""

    def __init__(self, depth: int, limit: int):
        super().__init__(
            f"job queue full ({depth}/{limit} pending); retry later or raise "
            "queue_depth"
        )
        self.depth = depth
        self.limit = limit


class ServiceClosed(AdmissionError):
    """Submission after shutdown()."""


class JobCancelled(Exception):
    """Raised inside a worker to abort a cooperatively-cancelled run."""


class JobFailed(Exception):
    """Raised by :meth:`JobHandle.result` when the job errored."""


# ---------------------------------------------------------------------------
# typed requests
# ---------------------------------------------------------------------------
@dataclass
class MILRequest:
    """One model-in-the-loop run.

    Exactly one of ``model`` / ``builder`` must be given.  ``builder`` is
    called with ``builder_kwargs`` and may return a :class:`Model` or any
    object with a ``.model`` attribute (e.g. a
    :class:`~repro.casestudy.ServoModel`).
    """

    model: Optional[Model] = None
    builder: Optional[Callable[..., Any]] = None
    builder_kwargs: Mapping[str, Any] = field(default_factory=dict)
    dt: float = 1e-3
    t_final: float = 1.0
    solver: str = "rk4"
    log_all_signals: bool = False
    #: keep the full SimulationResult in the result store (summaries are
    #: always kept; traces are what the LRU bound really protects against)
    retain_trace: bool = True

    kind = "mil"

    def __post_init__(self) -> None:
        if (self.model is None) == (self.builder is None):
            raise ValueError("give exactly one of model= or builder=")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")

    def resolve_model(self) -> Model:
        if self.model is not None:
            return self.model
        built = self.builder(**dict(self.builder_kwargs))
        return built.model if hasattr(built, "model") else built


@dataclass
class PILRequest:
    """One processor-in-the-loop session.

    ``make_pil`` builds a fresh rig (a deployed application is single-use,
    same contract as :class:`~repro.faults.FaultCampaign`); the worker
    calls ``make_pil(**make_kwargs).run(t_final)``.
    """

    make_pil: Callable[..., Any]
    t_final: float
    make_kwargs: Mapping[str, Any] = field(default_factory=dict)
    retain_trace: bool = True

    kind = "pil"

    def __post_init__(self) -> None:
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")


@dataclass
class CampaignCellRequest:
    """One (intensity, link-mode) cell of a fault campaign."""

    campaign: Any  # repro.faults.FaultCampaign (kept loose for pickling)
    intensity: float
    reliable: bool
    retain_trace: bool = False

    kind = "campaign_cell"


@dataclass
class SweepRequest:
    """A parameter sweep — fanned out, or batched into one vector job.

    ``execution="fanout"`` (default): the service expands this at
    submission into ``len(grid)`` child :class:`MILRequest` jobs sharing
    a sweep id — each point individually scheduled, cancellable, and
    cache-keyed.  ``grid`` entries are kwargs overlays merged over
    ``base_kwargs`` before calling ``builder``.

    ``execution="batch"``: the whole sweep runs as **one** job on a
    :class:`~repro.model.BatchSimulator` — one compiled model amortized
    across every sweep point as a batch lane.  ``scenarios`` gives the
    per-lane block overrides (``{qname: {attr: value}}`` per lane, the
    :class:`~repro.model.BatchScenario` shape); ``builder`` is called
    once with ``base_kwargs`` to build the shared model.  Lanes come
    back bit-identical to what the fan-out path would produce serially.
    """

    builder: Callable[..., Any]
    grid: Sequence[Mapping[str, Any]] = ()
    base_kwargs: Mapping[str, Any] = field(default_factory=dict)
    dt: float = 1e-3
    t_final: float = 1.0
    solver: str = "rk4"
    log_all_signals: bool = False
    retain_trace: bool = True
    execution: str = "fanout"
    scenarios: Optional[Sequence[Mapping[str, Mapping[str, Any]]]] = None

    @property
    def kind(self) -> str:
        return "sweep_batch" if self.execution == "batch" else "sweep"

    def __post_init__(self) -> None:
        if self.execution not in ("fanout", "batch"):
            raise ValueError(f"unknown execution mode {self.execution!r}")
        if self.execution == "batch":
            if not self.scenarios:
                raise ValueError("batch execution needs scenarios=")
        elif not self.grid:
            raise ValueError("sweep grid is empty")

    def resolve_model(self) -> Model:
        built = self.builder(**dict(self.base_kwargs))
        return built.model if hasattr(built, "model") else built

    def expand(self) -> list[MILRequest]:
        jobs = []
        for point in self.grid:
            kwargs = dict(self.base_kwargs)
            kwargs.update(point)
            jobs.append(
                MILRequest(
                    builder=self.builder,
                    builder_kwargs=kwargs,
                    dt=self.dt,
                    t_final=self.t_final,
                    solver=self.solver,
                    log_all_signals=self.log_all_signals,
                    retain_trace=self.retain_trace,
                )
            )
        return jobs


JobRequest = Any  # MILRequest | PILRequest | CampaignCellRequest


# ---------------------------------------------------------------------------
# the scheduled unit
# ---------------------------------------------------------------------------
_job_counter = itertools.count(1)


class Job:
    """One admitted request plus its scheduling state.

    Mutable fields are only touched by the submitting thread (before the
    job enters the queue) and by the single worker that dequeues it; the
    ``cancel``/``done`` events are the cross-thread signals.
    """

    __slots__ = (
        "id", "request", "priority", "deadline_s", "sweep_id",
        "submitted_at", "dequeued_at", "started_at", "finished_at",
        "state", "error", "cache_hit", "trace_parent",
        "cancel_event", "done_event", "coalesce_key", "phase_s",
    )

    def __init__(
        self,
        request: JobRequest,
        priority: JobPriority = JobPriority.NORMAL,
        deadline_s: Optional[float] = None,
        sweep_id: Optional[str] = None,
    ):
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.id = f"job-{next(_job_counter):06d}"
        self.request = request
        self.priority = JobPriority(priority)
        self.deadline_s = deadline_s
        self.sweep_id = sweep_id
        self.submitted_at = time.monotonic()
        #: when the scheduler handed this job to a worker (or claimed it
        #: into a forming batch) — the end of the ``queue`` phase
        self.dequeued_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: per-phase durations (seconds) — the latency waterfall.  Keys
        #: are a subset of ``queue / coalesce / cache / run / demux /
        #: store`` depending on how the job executed.
        self.phase_s: dict[str, float] = {}
        self.state = JobState.PENDING
        self.error: Optional[str] = None
        self.cache_hit = False
        #: submitter's open span id — worker-side job spans attach here
        self.trace_parent: Optional[str] = None
        #: continuous-batching compatibility key (set at submission when
        #: coalescing is enabled; None = this job always runs serial)
        self.coalesce_key: Optional[tuple] = None
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.request.kind

    def expired(self, now: Optional[float] = None) -> bool:
        """Deadline passed before execution started?"""
        if self.deadline_s is None:
            return False
        now = time.monotonic() if now is None else now
        return now - self.submitted_at > self.deadline_s

    def queued_s(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def exec_s(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def total_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def mark_queue_phases(self) -> None:
        """Fill the scheduler-side phases from the lifecycle stamps."""
        if self.dequeued_at is not None:
            self.phase_s.setdefault("queue", self.dequeued_at - self.submitted_at)
        elif self.started_at is not None:
            self.phase_s.setdefault("queue", self.started_at - self.submitted_at)
        elif self.finished_at is not None:
            # never ran (shed / cancelled-while-pending): the whole life
            # of the job was queue time
            self.phase_s.setdefault("queue", self.finished_at - self.submitted_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.id} {self.kind} {self.priority.name} {self.state.value}>"


class JobHandle:
    """The client's view of one submitted job."""

    def __init__(self, job: Job, store):
        self._job = job
        self._store = store

    @property
    def job_id(self) -> str:
        return self._job.id

    @property
    def state(self) -> JobState:
        return self._job.state

    @property
    def sweep_id(self) -> Optional[str]:
        return self._job.sweep_id

    @property
    def phases(self) -> dict:
        """The job's per-phase latency waterfall so far (seconds)."""
        return dict(self._job.phase_s)

    def cancel(self) -> bool:
        """Request cancellation.

        Pending jobs are skipped by the workers; running MIL jobs abort at
        the run's next cancel poll (cooperative: at most
        ``Simulator._NATIVE_CHUNK`` native steps, or one Python step,
        away).  Returns False when the job already finished.
        """
        if self._job.state.terminal:
            return False
        self._job.cancel_event.set()
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._job.done_event.wait(timeout)

    def record(self, timeout: Optional[float] = None):
        """The stored :class:`~repro.service.results.JobRecord` (waits)."""
        if not self.wait(timeout):
            raise TimeoutError(f"{self.job_id} still {self._job.state.value}")
        rec = self._store.get(self.job_id)
        if rec is None:
            raise KeyError(f"{self.job_id} evicted from the result store")
        return rec

    def result(self, timeout: Optional[float] = None):
        """The job's payload (e.g. a SimulationResult); raises on failure."""
        rec = self.record(timeout)
        if rec.state is JobState.DONE:
            return rec.result if rec.result is not None else rec.summary
        if rec.state is JobState.CANCELLED:
            raise JobCancelled(self.job_id)
        raise JobFailed(f"{self.job_id} {rec.state.value}: {rec.error}")
