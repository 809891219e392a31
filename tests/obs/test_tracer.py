"""Tracer core: ring buffer, span stack, pickling, exporters, loading."""

import json
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import Tracer, configure, get_tracer, load_trace, use_tracer


def _capture_child(parent_id, capacity):
    """Module-level worker: run a span tree under a fresh capture tracer
    attached to the submitter's span, return the events (the pattern
    ``repro.faults.campaign._run_chunk_task_traced`` uses)."""
    from repro.obs import Tracer, use_tracer

    local = Tracer(capacity=capacity, enabled=True)
    with use_tracer(local):
        with local.attach(parent_id):
            with local.span("child.work", cat="test") as outer:
                local.instant("child.tick", cat="test")
            assert outer is not None
    return local.events()


class TestRingBuffer:
    def test_overflow_keeps_newest_and_counts_drops(self):
        tr = Tracer(capacity=4, enabled=True)
        for k in range(10):
            tr.instant(f"ev-{k}")
        assert len(tr) == 4
        assert tr.dropped_events == 6
        assert [e["name"] for e in tr.events()] == ["ev-6", "ev-7", "ev-8", "ev-9"]

    def test_first_wrap_counts_the_event_its_marker_evicts(self):
        # the overflow marker's own append evicts ev-0, the fifth event
        # evicts ev-1: two caller events lost, the marker not counted
        tr = Tracer(capacity=4, enabled=True)
        for k in range(5):
            tr.instant(f"ev-{k}")
        assert [e["name"] for e in tr.events()] == [
            "ev-2", "ev-3", "obs.ring_overflow", "ev-4"]
        assert tr.dropped_events == 2
        for k in range(5, 8):  # ...and evicting the marker drops nothing
            tr.instant(f"ev-{k}")
        assert [e["name"] for e in tr.events()] == ["ev-4", "ev-5", "ev-6", "ev-7"]
        assert tr.dropped_events == 4

    def test_clear_resets_drop_counter(self):
        tr = Tracer(capacity=2, enabled=True)
        for k in range(5):
            tr.instant(f"ev-{k}")
        tr.clear()
        assert len(tr) == 0
        assert tr.dropped_events == 0

    def test_configure_capacity_change_keeps_newest(self):
        tr = Tracer(capacity=16, enabled=True)
        with use_tracer(tr):
            for k in range(8):
                get_tracer().instant(f"ev-{k}")
            configure(capacity=3)
            assert tr.capacity == 3
            assert [e["name"] for e in tr.events()] == ["ev-5", "ev-6", "ev-7"]
            assert tr.dropped_events == 5  # ev-0..ev-4, evicted by the shrink
            configure(enabled=False, capacity=16)
            assert not tr.enabled

    def test_configure_rejects_bad_values(self):
        with use_tracer(Tracer()):
            with pytest.raises(ValueError):
                configure(capacity=0)
            with pytest.raises(ValueError):
                configure(step_stride=0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(step_stride=0)


class TestSpans:
    def test_disabled_tracer_is_inert(self):
        tr = Tracer(enabled=False)
        assert tr.begin("x") is None
        tr.end(None)
        tr.instant("x")
        tr.complete("x", "app", t0=0.0)
        with tr.span("x") as sp:
            assert sp is None
        assert len(tr) == 0

    def test_nesting_records_parent_chain(self):
        tr = Tracer(enabled=True)
        with tr.span("outer") as outer:
            assert tr.current_span() == outer.id
            with tr.span("inner") as inner:
                assert inner.parent == outer.id
                tr.instant("mark")
        assert tr.current_span() is None
        by_name = {e["name"]: e for e in tr.events()}
        assert by_name["mark"]["parent"] == by_name["inner"]["id"]
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        # spans close inner-first
        assert [e["name"] for e in tr.events() if e["ph"] == "X"] == [
            "inner", "outer",
        ]

    def test_span_args_mutable_until_end(self):
        tr = Tracer(enabled=True)
        with tr.span("run", args={"a": 1}) as sp:
            sp.args["b"] = 2
        (ev,) = tr.events()
        assert ev["args"] == {"a": 1, "b": 2}
        assert ev["dur"] >= 0.0

    def test_complete_inherits_open_span_as_parent(self):
        import time

        tr = Tracer(enabled=True)
        with tr.span("outer") as outer:
            tr.complete("timed", "engine", t0=time.perf_counter(), sim_t=0.5)
        timed = next(e for e in tr.events() if e["name"] == "timed")
        assert timed["parent"] == outer.id
        assert timed["sim_t"] == 0.5
        assert timed["cat"] == "engine"

    def test_sim_t_rides_along(self):
        tr = Tracer(enabled=True)
        tr.instant("tick", sim_t=0.125)
        (ev,) = tr.events()
        assert ev["sim_t"] == 0.125
        assert ev["ph"] == "i"


class TestPickling:
    def test_round_trip_ships_config_only(self):
        tr = Tracer(capacity=128, enabled=True, step_stride=7)
        tr.instant("before-pickle")
        clone = pickle.loads(pickle.dumps(tr))
        assert clone.capacity == 128
        assert clone.enabled
        assert clone.step_stride == 7
        assert len(clone) == 0  # buffer does not cross the boundary
        clone.instant("after")  # and the rebuilt clone is usable
        assert len(clone) == 1


class TestCrossProcess:
    def test_attach_and_ingest_reparent(self):
        tr = Tracer(enabled=True)
        with tr.span("parent.submit") as sp:
            parent_id = sp.id
        foreign = _capture_child(parent_id, capacity=64)
        assert tr.ingest(foreign) == len(foreign)
        events = tr.events()
        child_root = next(e for e in events if e["name"] == "child.work")
        assert child_root["parent"] == parent_id
        tick = next(e for e in events if e["name"] == "child.tick")
        assert tick["parent"] == child_root["id"]

    def test_reparenting_across_real_process_pool(self):
        tr = Tracer(enabled=True)
        with tr.span("parent.submit") as sp:
            parent_id = sp.id
            with ProcessPoolExecutor(max_workers=1) as pool:
                foreign = pool.submit(_capture_child, parent_id, 64).result()
        tr.ingest(foreign)
        child_root = next(e for e in tr.events() if e["name"] == "child.work")
        assert child_root["parent"] == parent_id
        assert child_root["pid"] != tr.pid  # ids embed the producing pid
        assert child_root["id"].startswith(f"{child_root['pid']}-")


class TestExporters:
    def _traced(self):
        tr = Tracer(enabled=True)
        with tr.span("outer", cat="engine", sim_t=0.0, args={"n": 3}):
            tr.instant("mark", cat="link", sim_t=0.001, args={"seq": 9})
        return tr

    def test_chrome_round_trips_json_loads(self, tmp_path):
        tr = self._traced()
        path = tr.export_chrome(tmp_path / "t.trace.json", manifest=False)
        doc = json.loads(open(path).read())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        outer, mark = by_name["outer"], by_name["mark"]
        assert outer["ph"] == "X" and "dur" in outer
        assert mark["ph"] == "i" and mark["s"] == "t"
        assert mark["args"]["seq"] == 9
        assert mark["args"]["sim_t"] == 0.001
        assert outer["args"]["span_id"]  # ids survive via args

    def test_jsonl_and_chrome_load_identically(self, tmp_path):
        tr = self._traced()
        p_jsonl = tr.export_jsonl(tmp_path / "t.jsonl", manifest=False)
        p_chrome = tr.export_chrome(tmp_path / "t.trace.json", manifest=False)
        a, b = load_trace(p_jsonl), load_trace(p_chrome)
        assert len(a) == len(b) == 2
        for ea, eb in zip(a, b):
            for key in ("ph", "name", "cat", "sim_t", "id", "parent", "pid"):
                assert ea[key] == eb[key], key
            assert eb["ts"] == pytest.approx(ea["ts"], abs=1e-9)
            assert eb["dur"] == pytest.approx(ea["dur"], abs=1e-9)

    def test_single_line_jsonl_loads(self, tmp_path):
        tr = Tracer(enabled=True)
        tr.instant("only")
        path = tr.export_jsonl(tmp_path / "one.jsonl", manifest=False)
        (ev,) = load_trace(path)
        assert ev["name"] == "only"

    def test_export_writes_manifest_next_to_trace(self, tmp_path):
        tr = self._traced()
        path = tr.export_jsonl(tmp_path / "t.jsonl", config={"dt": 1e-3})
        manifest = json.loads(open(path + ".manifest.json").read())
        assert manifest["config"] == {"dt": 1e-3}
        assert manifest["tracer_stats"]["events"] == 2
        assert manifest["tracer_stats"]["dropped_events"] == 0
        assert "python" in manifest["versions"]


class TestUseTracer:
    def test_swaps_and_restores_global(self):
        before = get_tracer()
        scratch = Tracer(enabled=True)
        with use_tracer(scratch) as active:
            assert get_tracer() is scratch is active
        assert get_tracer() is before
