"""Host-speed normalization.

On a shared host the same work can take 20-40 % longer for tens of
seconds at a time, and neither thread CPU time nor steal time shows it.
The benchmark therefore times a fixed reference kernel next to the work
it measures and reports host times scaled to a nominal host speed::

    normalized_s = measured_s * REF_NOMINAL_S / reference_s

where ``reference_s`` is the kernel's time measured around the work.
The kernel is pure Python and frozen here (never tuned to the code
under test): a heap-ordered event queue, method calls on small objects,
dict lookups and float arithmetic, the mix of the simulator's hot loops.
A change that speeds up the package moves its times, not the
kernel's, so the ratio keeps the change and drops the host's swings.

The kernel is sampled only between measured operations, on the thread
that runs them, so it never runs beside the measured work and it sees
the CPU the work ran on.  It runs with the garbage collector off, so a
larger package heap does not slow it through collections.

Limit: the kernel runs in the benchmark's process and its node pool (a
few MB) shares the CPU caches with the measured code.  A change that
makes the package evict more of them, or enlarges its working set,
also slows the kernel a little, and that share of the regression
cancels out of the normalized figures.  Every run therefore prints the
raw (unnormalized) value of each normalized metric next to it, and
``baseline.json`` keeps both.  The kernel stays on the measuring
thread rather than in a helper process: a helper runs on either vCPU,
and on the reference host it cut the spreads far less (see README).
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

#: the reference kernel's time on the nominal host (s); frozen, so
#: normalized figures of different runs and commits compare directly
REF_NOMINAL_S = 0.003
#: kernel calls per measurement (the median is used)
REPEATS = 3
#: samples this close to an interval scale it
WINDOW_S = 0.5
#: ``maybe_sample`` samples when the last sample is older than this
INTERVAL_S = 0.5


class _Node:
    __slots__ = ("value", "count")

    def __init__(self):
        self.value = 0.0
        self.count = 0

    def step(self, u: float, gain: float) -> float:
        self.value = 0.98 * self.value + gain * u
        self.count += 1
        return self.value


class ReferenceKernel:
    """Fixed work: schedule and dispatch ``EVENTS`` events through a
    heap, each updating one of ``NODES`` small objects picked by a
    scattering stride.  The node pool (a few MB) makes the kernel pay
    for cold caches the way the measured code does after an idle gap."""

    EVENTS = 1500
    NODES = 40_000

    def __init__(self):
        self.nodes = [_Node() for _ in range(self.NODES)]
        self.table = {k: 0.5 + 0.1 * k for k in range(8)}

    def __call__(self) -> float:
        n, nodes, table = self.EVENTS, self.nodes, self.table
        size = len(nodes)
        heap: list = []
        acc = 0.0
        for i in range(n):
            heapq.heappush(heap, ((i * 0.618) % 1.0 + i, i))
        while heap:
            t, i = heapq.heappop(heap)
            node = nodes[(i * 7919) % size]
            acc += node.step(t * 1e-3, table.get(i & 7, 1.0))
            if i % 3 == 0 and i < n:
                heapq.heappush(heap, (t + 0.5, i + n))
        return acc

    def measure(self, repeats: int = REPEATS) -> float:
        """The kernel's time now (median of ``repeats`` calls)."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            self()
            times.append(perf_counter() - t0)
        return statistics.median(times)


_kernel: ReferenceKernel | None = None


def _measure(repeats: int) -> float:
    """The kernel's time now, with the garbage collector off: a
    collection started by the kernel's allocations would walk the
    package's heap and bill it to the host."""
    global _kernel
    if _kernel is None:
        _kernel = ReferenceKernel()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel.measure(repeats)
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Reference measurements along a run, and the scale factor for any
    interval of it (from the measurements nearest before and after)."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        #: (clock at the end of the measurement, reference seconds)
        self.points: list[tuple[float, float]] = []
        #: host time spent measuring (excluded from the work it brackets)
        self.spent_s = 0.0

    def sample(self, repeats: int = REPEATS) -> None:
        t0 = self.clock()
        ref = _measure(repeats)
        t1 = self.clock()
        self.points.append((t1, ref))
        self.spent_s += t1 - t0

    def maybe_sample(self) -> None:
        """Sample when the last sample is older than ``INTERVAL_S``."""
        if not self.points or self.clock() - self.points[-1][0] >= INTERVAL_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """``REF_NOMINAL_S / reference`` for the interval [t0, t1]: the
        median of the samples within ``WINDOW_S`` of it, else of the
        nearest sample on each side."""
        near = [ref for t, ref in self.points if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            before = [ref for t, ref in self.points if t <= t0]
            after = [ref for t, ref in self.points if t >= t1]
            near = before[-1:] + after[:1] or [ref for _, ref in self.points]
        return REF_NOMINAL_S / statistics.median(near)

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * self.factor(t0, t1)

    def norm(self, chunks) -> float:
        """Normalized host seconds of ``(start, end)`` chunks."""
        return sum(self.scale(t1 - t0, t0, t1) for t0, t1 in chunks)

    def run(self, fn, *args, every=None):
        """``(fn(*args), chunks)``: the call's host time as ``(start,
        end)`` chunks of this probe's clock.  With ``every = (owner,
        name, n)`` the probe samples after each ``n`` calls of
        ``owner.name`` made during the call, outside the chunks, so a
        long call is normalized piecewise."""
        chunks: list[tuple[float, float]] = []
        start = [self.clock()]
        if every is None:
            result = fn(*args)
        else:
            owner, name, n = every
            orig = owner.__dict__[name]
            calls = [0]
            probe = self

            def counted(*a, **kw):
                calls[0] += 1
                if calls[0] % n == 0:
                    chunks.append((start[0], probe.clock()))
                    probe.sample()
                    start[0] = probe.clock()
                return orig(*a, **kw)

            setattr(owner, name, counted)
            try:
                result = fn(*args)
            finally:
                setattr(owner, name, orig)
        chunks.append((start[0], self.clock()))
        return result, chunks
