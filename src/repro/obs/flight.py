"""Black-box flight recorder: always-on, bounded, auto-dumping.

The user-facing :class:`~repro.obs.trace.Tracer` is *opt-in* — it stays
disabled unless someone is actively profiling, so when a worker crashes
at 3am there is nothing to look at.  The flight recorder is the
complement: a **cheap, always-on** ring of recent operational events
(job lifecycle edges, phase waterfalls, link recoveries) that costs one
trace instant per event and is independent of the tracer's enable state.

A :class:`FlightRecorder` *is* a :class:`~repro.obs.trace.Tracer` — a
second instance of the one ring type, so the tracer's sampled engine
spans cannot evict the ``job.finish`` events a crash dump exists to
keep, and a ``use_tracer`` swap does not swap the black box away.  Its
events are trace instants (``ph == "i"``, the schema of
:mod:`repro.obs.trace`); ``ts`` is seconds since the ring's epoch.

On a *trigger event* — worker crash, deadline shed, job exception,
watchdog reset, campaign interrupt — the recorder writes the ring with
:meth:`~repro.obs.trace.Tracer.export_jsonl` (plus a manifest sidecar
pinning the trigger, the ring's wall-clock ``epoch``, code state and
library versions) so the minutes leading up to the failure survive the
process.  An event's wall time is ``epoch + ts``.  Dumps are
rate-limited and capped so a crash loop cannot fill a disk.

``job.finish`` events carry the job's full phase waterfall in
``args["phases"]`` — a flight dump alone reconstructs what every recent
job spent in queue/coalesce/cache/run/demux/store
(``python -m repro.obs report dump.jsonl``), and every trace tool reads
it (``summary``, ``convert`` to Chrome JSON for Perfetto).

A process-wide recorder (:func:`get_flight_recorder`) is shared by the
service, campaign and PIL layers; :func:`configure_flight` points it at
a dump directory (default: record-only, never write).  SimServe can
alternatively carry a private recorder (``SimServe(flight=...)``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from .trace import Tracer

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "configure_flight",
    "TRIGGER_REASONS",
]

#: default ring capacity (events); overflow drops the oldest
DEFAULT_CAPACITY = 4096

#: dumps closer together than this are coalesced into the first one
DEFAULT_MIN_DUMP_INTERVAL_S = 1.0

#: hard cap on auto-dumps per recorder lifetime (crash-loop protection)
DEFAULT_MAX_DUMPS = 16

#: the trigger taxonomy (DESIGN §13); ``manual`` is the CLI/HTTP dump
TRIGGER_REASONS = (
    "worker_crash",
    "deadline_shed",
    "job_exception",
    "watchdog_reset",
    "campaign_interrupt",
    "manual",
)

ENV_FLIGHT_DIR = "REPRO_FLIGHT_DIR"


class FlightRecorder(Tracer):
    """Always-on bounded event ring (a :class:`Tracer`) with trigger dumps.

    Pickling ships the configuration only, as for any :class:`Tracer`:
    the ring, the trigger counts and the dump list start empty on the
    far side.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = True,
        dump_dir: Optional[str] = None,
        max_dumps: int = DEFAULT_MAX_DUMPS,
        min_dump_interval_s: float = DEFAULT_MIN_DUMP_INTERVAL_S,
    ):
        super().__init__(capacity=capacity, enabled=enabled)
        self.dump_dir = os.fspath(dump_dir) if dump_dir is not None else None
        self.max_dumps = int(max_dumps)
        self.min_dump_interval_s = float(min_dump_interval_s)
        self.trigger_counts: dict[str, int] = {}
        self.dumps: list[str] = []
        #: auto-dumps that failed to write (counted, never raised)
        self.dump_errors = 0
        self._last_dump_at: Optional[float] = None
        self._dump_seq = 0

    def __getstate__(self) -> dict:
        return {
            "capacity": self.capacity,
            "enabled": self.enabled,
            "dump_dir": self.dump_dir,
            "max_dumps": self.max_dumps,
            "min_dump_interval_s": self.min_dump_interval_s,
        }

    # ------------------------------------------------------------------
    # triggers + dumping
    # ------------------------------------------------------------------
    def trigger(self, reason: str, args: Optional[dict] = None) -> Optional[str]:
        """Record a trigger event and auto-dump the ring.

        Returns the dump path, or ``None`` when no dump was written
        (recorder disabled, no ``dump_dir`` configured, rate-limited,
        the ``max_dumps`` cap was reached, or the write failed, which
        counts in ``dump_errors`` — the trigger is still counted and
        recorded in the ring in every case).  A trigger fires inside the
        path that failed, so a dump that cannot be written must not add
        a failure of its own.
        """
        if not self.enabled:
            return None
        with self._lock:
            self.trigger_counts[reason] = self.trigger_counts.get(reason, 0) + 1
        self.instant(f"flight.trigger.{reason}", cat="flight", args=args)
        if self.dump_dir is None:
            return None
        now = time.monotonic()
        with self._lock:
            if len(self.dumps) >= self.max_dumps:
                return None
            if (
                self._last_dump_at is not None
                and now - self._last_dump_at < self.min_dump_interval_s
            ):
                return None
            self._last_dump_at = now
            self._dump_seq += 1
            seq = self._dump_seq
        path = os.path.join(
            self.dump_dir, f"flight-{self.pid}-{seq:03d}-{reason}.jsonl"
        )
        try:
            return self._write_dump(path, reason, args)
        except OSError:
            with self._lock:
                self.dump_errors += 1
            return None

    def dump(self, path: Optional[str] = None, reason: str = "manual") -> str:
        """Write the ring to ``path`` (or an auto-named file under
        ``dump_dir`` / the current directory) unconditionally."""
        if path is None:
            with self._lock:
                self._dump_seq += 1
                seq = self._dump_seq
            path = os.path.join(
                self.dump_dir or ".", f"flight-{self.pid}-{seq:03d}-{reason}.jsonl"
            )
        return self._write_dump(os.fspath(path), reason, None)

    def _write_dump(self, path: str, reason: str, args: Optional[dict]) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self.export_jsonl(path, config={"reason": reason, "trigger_args": args or {}})
        with self._lock:
            self.dumps.append(path)
        return path

    def _write_manifest(self, trace_path: str, config: Optional[dict], events: int) -> None:
        """The flight manifest: ``config`` names the trigger (``reason``,
        ``trigger_args``); ``epoch`` is the wall time of ``ts == 0``."""
        config = config or {}
        wall_time = time.time()
        manifest = {
            "kind": "flight-dump",
            "reason": config.get("reason", "manual"),
            "trigger_args": config.get("trigger_args", {}),
            "events": events,
            "dropped_events": self.dropped_events,
            "capacity": self.capacity,
            "trigger_counts": dict(self.trigger_counts),
            "epoch": wall_time - self.now(),
            "wall_time": wall_time,
            "pid": self.pid,
        }
        try:
            from .manifest import RunManifest

            manifest["run"] = RunManifest.collect(config=None).as_dict()
        except Exception:  # manifest collection must never block a dump
            pass
        with open(trace_path + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)

    def stats(self) -> dict:
        with self._lock:
            return {
                "events": len(self._buf),
                "capacity": self.capacity,
                "dropped_events": self.dropped_events,
                "enabled": self.enabled,
                "dump_dir": self.dump_dir,
                "dumps": list(self.dumps),
                "dump_errors": self.dump_errors,
                "trigger_counts": dict(self.trigger_counts),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder {len(self)}/{self.capacity} events, "
            f"{len(self.dumps)} dumps>"
        )


#: a permanently disabled recorder — what ``SimServe(flight=False)`` uses
NULL_RECORDER = FlightRecorder(capacity=1, enabled=False)


# ---------------------------------------------------------------------------
# the process-wide recorder
# ---------------------------------------------------------------------------
_GLOBAL = FlightRecorder(dump_dir=os.environ.get(ENV_FLIGHT_DIR) or None)


def get_flight_recorder() -> FlightRecorder:
    """The process-wide black box every operational layer records into."""
    return _GLOBAL


def configure_flight(
    dump_dir: Optional[str] = None,
    capacity: Optional[int] = None,
    enabled: Optional[bool] = None,
    max_dumps: Optional[int] = None,
    min_dump_interval_s: Optional[float] = None,
) -> FlightRecorder:
    """Reconfigure the global recorder in place and return it.

    Changing ``capacity`` rebuilds the ring (newest events kept).
    """
    fr = _GLOBAL
    if capacity is not None:
        fr._resize(capacity)
    with fr._lock:
        if dump_dir is not None:
            fr.dump_dir = os.fspath(dump_dir)
        if enabled is not None:
            fr.enabled = bool(enabled)
        if max_dumps is not None:
            fr.max_dumps = int(max_dumps)
        if min_dump_interval_s is not None:
            fr.min_dump_interval_s = float(min_dump_interval_s)
    return fr
