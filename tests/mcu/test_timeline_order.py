"""The MCU timeline's ordering contract.

``MCUDevice.run_until`` runs events by time, then in the order they were
scheduled.  The device keeps future events on a heap and events due now
in a FIFO lane; this module checks that split against a heap-only
reference timeline (every event on one ``(time, seq)`` heap) on
generated programs whose callbacks schedule at offset 0, at a negative
offset (clamped to now), at the time of an earlier-scheduled event (a
tie), or in the future, and which interleave ``run_until`` boundaries on
event times with ``reset``.
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.mcu import MC56F8367, MCUDevice


class HeapTimeline:
    """The reference: one heap ordered by (time, scheduling sequence)."""

    def __init__(self):
        self.time = 0.0
        self._queue = []
        self._seq = itertools.count()

    def schedule(self, t, fn):
        heapq.heappush(self._queue, (max(t, self.time), next(self._seq), fn))

    def run_until(self, t_end):
        if t_end < self.time:
            raise ValueError("cannot run backwards")
        while self._queue and self._queue[0][0] <= t_end:
            t, _seq, fn = heapq.heappop(self._queue)
            self.time = t
            fn()
        self.time = t_end

    @property
    def pending_events(self):
        return len(self._queue)

    def reset(self):
        self._queue.clear()
        self.time = 0.0


#: dyadic offsets, so sums stay exact and ties are frequent
OFFSETS = (0.25, 0.5, 1.0)
#: a program stops scheduling after this many callbacks (bounds fan-out)
MAX_CALLS = 400

#: what a callback does: (kind, parameter, child step)
actions = st.one_of(
    st.tuples(st.just("zero"), st.just(0.0), st.integers(1, 3)),
    st.tuples(st.just("past"), st.sampled_from(OFFSETS), st.integers(1, 3)),
    st.tuples(st.just("tie"), st.integers(0, 64), st.integers(1, 3)),
    st.tuples(st.just("future"), st.sampled_from(OFFSETS), st.integers(1, 3)),
    st.just(("reset", 0.0, 0)),
)
#: event kinds: event k's actions; children have a larger kind, and kinds
#: past the end are leaves
kinds = st.lists(st.lists(actions, max_size=3), min_size=1, max_size=8)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 7), st.sampled_from((0.0,) + OFFSETS)),
        st.tuples(st.just("run_to_event"), st.integers(0, 64), st.just(0.0)),
        st.tuples(st.just("run_for"), st.just(0), st.sampled_from((0.0,) + OFFSETS)),
        st.just(("reset", 0, 0.0)),
    ),
    max_size=14,
)


def execute(tl, program, plan):
    """Run one program on timeline ``tl``; returns what it observed."""
    log = []
    times = []  # every absolute time handed to schedule, in order
    calls = itertools.count()

    def at(t, kind):
        times.append(t)
        tl.schedule(t, lambda: fire(kind))

    def fire(kind):
        log.append((kind, tl.time.hex()))
        if next(calls) >= MAX_CALLS or kind >= len(program):
            return
        for what, param, step in program[kind]:
            child = kind + step
            if what == "zero":
                at(tl.time, child)
            elif what == "past":
                at(tl.time - param, child)
            elif what == "tie":
                at(times[param % len(times)], child)
            elif what == "future":
                at(tl.time + param, child)
            else:
                tl.reset()
                log.append(("reset", tl.pending_events))

    for what, arg, offset in plan:
        if what == "schedule":
            at(tl.time + offset, arg)
        elif what == "run_to_event":
            t_end = times[arg % len(times)] if times else tl.time
            tl.run_until(max(t_end, tl.time))
        elif what == "run_for":
            tl.run_until(tl.time + offset)
        else:
            tl.reset()
        log.append((what, tl.time.hex(), tl.pending_events))
    tl.run_until(tl.time + 64.0)
    log.append(("end", tl.time.hex(), tl.pending_events))
    return log


@settings(max_examples=300, deadline=None)
@given(kinds, steps)
def test_device_matches_the_heap_reference(program, plan):
    expected = execute(HeapTimeline(), program, plan)
    assert execute(MCUDevice(MC56F8367), program, plan) == expected


def test_zero_delay_event_runs_after_heap_events_due_at_the_same_instant():
    dev = MCUDevice(MC56F8367)
    order = []
    dev.schedule(1.0, lambda: (order.append("a"), dev.schedule(1.0, lambda: order.append("now"))))
    dev.schedule(1.0, lambda: order.append("b"))
    dev.schedule(0.5, lambda: dev.schedule(1.0, lambda: order.append("c")))
    dev.run_until(2.0)
    assert order == ["a", "b", "c", "now"]


def test_pending_events_and_reset_cover_both_lanes():
    dev = MCUDevice(MC56F8367)
    dev.schedule(0.0, lambda: None)   # due now
    dev.schedule(-1.0, lambda: None)  # clamped to now
    dev.schedule(1.0, lambda: None)   # future
    assert dev.pending_events == 3
    dev.reset()
    assert dev.pending_events == 0
    ran = []
    dev.schedule(0.0, lambda: ran.append(dev.time))
    dev.run_until(0.0)
    assert ran == [0.0] and dev.pending_events == 0
