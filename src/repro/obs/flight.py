"""Black-box flight recorder: always-on, bounded, auto-dumping.

The user-facing :class:`~repro.obs.trace.Tracer` is *opt-in* — it stays
disabled unless someone is actively profiling, so when a worker crashes
at 3am there is nothing to look at.  The flight recorder is the
complement: a **cheap, always-on** ring of recent operational events
(job lifecycle edges, phase waterfalls, link recoveries) that costs a
dict append per event and is independent of the tracer's enable state.

On a *trigger event* — worker crash, deadline shed, job exception,
watchdog reset, campaign interrupt — the recorder snapshots the ring to
a JSONL dump (plus a manifest sidecar pinning the trigger, code state
and library versions) so the minutes leading up to the failure survive
the process.  Dumps are rate-limited and capped so a crash loop cannot
fill a disk.

Event schema (one JSON object per line in a dump)::

    {"ts": <monotonic s since recorder epoch>, "wall": <unix time>,
     "name": "job.finish", "cat": "service", "sim_t": null,
     "pid": 1234, "tid": 5678, "args": {...}}

``job.finish`` events carry the job's full phase waterfall in
``args["phases"]`` — a flight dump alone reconstructs what every recent
job spent in queue/coalesce/cache/run/demux/store
(``python -m repro.obs report dump.jsonl``).

A process-wide recorder (:func:`get_flight_recorder`) is shared by the
service, campaign and PIL layers; :func:`configure_flight` points it at
a dump directory (default: record-only, never write).  SimServe can
alternatively carry a private recorder (``SimServe(flight=...)``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Optional

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


class FlightRecorder:
    """Bounded, thread-safe black-box event ring with trigger dumps."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = True,
        dump_dir: Optional[str] = None,
        max_dumps: int = DEFAULT_MAX_DUMPS,
        min_dump_interval_s: float = DEFAULT_MIN_DUMP_INTERVAL_S,
    ):
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be >= 1")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self.dump_dir = os.fspath(dump_dir) if dump_dir is not None else None
        self.max_dumps = int(max_dumps)
        self.min_dump_interval_s = float(min_dump_interval_s)
        self._buf: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self.dropped_events = 0
        self.trigger_counts: dict[str, int] = {}
        self.dumps: list[str] = []
        #: auto-dumps that failed to write (counted, never raised)
        self.dump_errors = 0
        self._last_dump_at: Optional[float] = None
        self._dump_seq = 0
        self.pid = os.getpid()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        cat: str = "service",
        args: Optional[dict] = None,
        sim_t: Optional[float] = None,
    ) -> None:
        """Append one event to the ring (a dict build + deque append)."""
        if not self.enabled:
            return
        event = {
            "ts": time.monotonic() - self._t0,
            "wall": time.time(),
            "name": name,
            "cat": cat,
            "sim_t": sim_t,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "args": args if args is not None else {},
        }
        with self._lock:
            if len(self._buf) == self.capacity:
                self.dropped_events += 1
            self._buf.append(event)

    def events(self) -> list[dict]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._buf)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    def clear(self) -> None:
        with self._lock:
            self._buf.clear()
            self.dropped_events = 0

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
        self.record(f"flight.trigger.{reason}", cat="flight", args=args)
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
        events = self.events()
        with open(path, "w") as fh:
            for ev in events:
                fh.write(json.dumps(ev, default=str) + "\n")
        manifest = {
            "kind": "flight-dump",
            "reason": reason,
            "trigger_args": args or {},
            "events": len(events),
            "dropped_events": self.dropped_events,
            "capacity": self.capacity,
            "trigger_counts": dict(self.trigger_counts),
            "wall_time": time.time(),
            "pid": self.pid,
        }
        try:
            from .manifest import RunManifest

            manifest["run"] = RunManifest.collect(config=None).as_dict()
        except Exception:  # manifest collection must never block a dump
            pass
        with open(path + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
        with self._lock:
            self.dumps.append(path)
        return path

    def to_jsonl(self) -> str:
        """The ring as JSONL text (what the ``/flight`` endpoint serves)."""
        return "".join(json.dumps(ev, default=str) + "\n" for ev in self.events())

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
class _NullFlightRecorder(FlightRecorder):
    def __init__(self):
        super().__init__(capacity=1, enabled=False)


NULL_RECORDER = _NullFlightRecorder()


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
    with fr._lock:
        if capacity is not None and capacity != fr.capacity:
            if capacity < 1:
                raise ValueError("flight-recorder capacity must be >= 1")
            old = list(fr._buf)
            fr.capacity = int(capacity)
            fr._buf = deque(old[-capacity:], maxlen=capacity)
        if dump_dir is not None:
            fr.dump_dir = os.fspath(dump_dir)
        if enabled is not None:
            fr.enabled = bool(enabled)
        if max_dumps is not None:
            fr.max_dumps = int(max_dumps)
        if min_dump_interval_s is not None:
            fr.min_dump_interval_s = float(min_dump_interval_s)
    return fr


def load_flight_dump(path) -> list[dict]:
    """Load a flight-recorder JSONL dump back into event dicts."""
    with open(os.fspath(path)) as fh:
        return [json.loads(line) for line in fh if line.strip()]
