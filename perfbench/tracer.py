"""Layer spans for the traced benchmark run.

The wrappers are installed from the benchmark's files, around the
public entry points of each layer; nothing under ``src/`` is changed.
A span records its name, start, end, parent span and the id of the
operation (fuzz candidate or service job) it belongs to.  Spans are
kept in memory, up to a cap, and written out as JSON lines when the run
ends.  Every wrapped call also feeds per-thread accumulators (count,
total time, self time), so the per-layer numbers cover every call even
after the span cap is reached.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter

#: spans kept in memory for the JSON-lines dump; calls beyond the cap
#: still count in the accumulators
MAX_SPANS = 100_000


class _ThreadState:
    """What one thread's wrappers touch, in one slotted object (a
    ``threading.local`` attribute read per field would cost more)."""

    __slots__ = ("stack", "stats", "counts", "op", "suffix", "in_run",
                 "ident", "keep", "work_open")

    def __init__(self, keep: bool):
        #: open spans, innermost last: ``[span_id, child_s]`` each
        self.stack: list[list] = []
        #: span name -> [count, total_s, self_s]
        self.stats: dict = {}
        #: free-form counters the special-case wrappers bump
        self.counts: dict = {}
        self.op = None
        #: ``.clean`` / ``.faulted``: splits the comm spans by candidate class
        self.suffix = ".clean"
        #: inside Simulator.run: its advance() calls are not spanned
        self.in_run = False
        self.ident = threading.get_ident()
        #: False once the span cap is reached (accumulators go on)
        self.keep = keep
        #: a service worker's current busy window start (perf_counter)
        self.work_open = None


class LayerTracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tl = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple] = []
        #: id(request) -> job id, filled at submit, read on the worker
        self.job_of: dict = {}

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------
    def state(self) -> _ThreadState:
        try:
            return self._tl.ts
        except AttributeError:
            ts = self._tl.ts = _ThreadState(len(self.spans) < MAX_SPANS)
            with self._states_lock:
                self._states.append(ts)
            return ts

    def set_op(self, op, suffix: str = ".clean") -> None:
        """Tag the calling thread's later spans with an operation id and
        candidate class."""
        ts = self.state()
        ts.op = op
        ts.suffix = suffix

    def count(self, key: str, n: float = 1) -> None:
        counts = self.state().counts
        counts[key] = counts.get(key, 0) + n

    # ------------------------------------------------------------------
    # span core
    # ------------------------------------------------------------------
    def _open(self, ts: _ThreadState) -> list:
        frame = [next(self._ids) if ts.keep else 0, 0.0]
        ts.stack.append(frame)
        return frame

    def _close(self, ts: _ThreadState, frame: list, name: str,
               t0: float, t1: float) -> None:
        stack = ts.stack
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][1] += dur
        st = ts.stats.get(name)
        if st is None:
            st = ts.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if ts.keep:
            self._keep(ts, frame, name, t0, t1)

    def _keep(self, ts: _ThreadState, frame: list, name: str,
              t0: float, t1: float) -> None:
        spans = self.spans
        parent = ts.stack[-1][0] if ts.stack else None
        spans.append((frame[0], parent, name, t0, t1, ts.op, ts.ident))
        if len(spans) >= MAX_SPANS:
            ts.keep = False

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        ts = self.state()
        frame = self._open(ts)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(ts, frame, name, t0, perf_counter())

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``; undone
        by :meth:`uninstall`.  Class-level descriptors (classmethods)
        are unwrapped and rewrapped."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if raw is None:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """The common wrapper: one span per call.  A name ending in a dot
        takes the thread's candidate-class suffix.  ``on_result(args,
        result, tracer)`` runs after the call, inside the span."""
        tracer = self
        local, state, next_id = self._tl, self.state, self._ids.__next__
        split = name.endswith(".")
        base = name[:-1] if split else name

        def make(orig):
            # _close inlined: this runs on every wrapped call
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                try:
                    ts = local.ts
                except AttributeError:
                    ts = state()
                stack = ts.stack
                frame = [next_id() if ts.keep else 0, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = orig(*args, **kwargs)
                    if on_result is not None:
                        on_result(args, result, tracer)
                    return result
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    dur = t1 - t0
                    if stack:
                        stack[-1][1] += dur
                    key = base + ts.suffix if split else base
                    st = ts.stats.get(key)
                    if st is None:
                        st = ts.stats[key] = [0, 0.0, 0.0]
                    st[0] += 1
                    st[1] += dur
                    st[2] += dur - frame[1]
                    if ts.keep:
                        tracer._keep(ts, frame, key, t0, t1)
            return wrapper

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def _threads(self) -> list[_ThreadState]:
        with self._states_lock:
            return list(self._states)

    def stats(self, where=None) -> dict:
        """``{span name: (count, total_s, self_s)}`` over all threads, or
        over the threads whose state satisfies ``where``."""
        out: dict = {}
        for ts in self._threads():
            if where is not None and not where(ts):
                continue
            for name, (n, total, self_s) in list(ts.stats.items()):
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += total
                acc[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def counts(self) -> dict:
        out: dict = {}
        for ts in self._threads():
            for key, n in list(ts.counts.items()):
                out[key] = out.get(key, 0) + n
        return out

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in seconds on the
        host ``perf_counter`` clock)."""
        with open(path, "w") as f:
            f.write(json.dumps({
                "spans": len(self.spans),
                "spans_total": sum(v[0] for v in self.stats().values()),
                "clock": "perf_counter",
            }) + "\n")
            for sid, parent, name, t0, t1, op, thread in self.spans:
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "op": op, "thread": thread,
                }) + "\n")
