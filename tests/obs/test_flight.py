"""Black-box flight recorder: ring semantics, triggers, dumps, wiring."""

from __future__ import annotations

import json
import os
import pickle
import time
import unittest

from repro.obs.flight import (
    NULL_RECORDER,
    TRIGGER_REASONS,
    FlightRecorder,
    configure_flight,
    get_flight_recorder,
)
from repro.obs.trace import load_trace

import tempfile


class TestFlightRing(unittest.TestCase):
    def test_record_and_snapshot(self):
        fr = FlightRecorder(capacity=8)
        fr.instant("a", args={"k": 1})
        fr.instant("b", cat="test", sim_t=0.5)
        events = fr.events()
        self.assertEqual([e["name"] for e in events], ["a", "b"])
        self.assertEqual(events[0]["args"], {"k": 1})
        self.assertEqual(events[1]["sim_t"], 0.5)
        self.assertEqual(len(fr), 2)
        # timestamps are monotone within the ring
        self.assertLessEqual(events[0]["ts"], events[1]["ts"])

    def test_bounded_overflow_counts_drops(self):
        fr = FlightRecorder(capacity=4)
        for k in range(10):
            fr.instant(f"e{k}")
        self.assertEqual(len(fr), 4)
        self.assertEqual(fr.dropped_events, 6)
        self.assertEqual([e["name"] for e in fr.events()],
                         ["e6", "e7", "e8", "e9"])

    def test_first_wrap_counts_both_lost_events_in_the_dump(self):
        fr = FlightRecorder(capacity=4)
        for k in range(5):
            fr.instant(f"e{k}")
        self.assertEqual([e["name"] for e in fr.events()],
                         ["e2", "e3", "obs.ring_overflow", "e4"])
        self.assertEqual(fr.dropped_events, 2)  # e0 and e1
        with tempfile.TemporaryDirectory() as tmp:
            path = fr.dump(os.path.join(tmp, "box.jsonl"))
            with open(path + ".manifest.json") as fh:
                manifest = json.load(fh)
        self.assertEqual(manifest["dropped_events"], 2)
        self.assertEqual(manifest["events"], 4)

    def test_shrink_counts_evicted_events_in_the_dump(self):
        fr = FlightRecorder(capacity=16)
        for k in range(8):
            fr.instant(f"e{k}")
        fr._resize(3)  # what configure_flight(capacity=3) does
        self.assertEqual([e["name"] for e in fr.events()], ["e5", "e6", "e7"])
        self.assertEqual(fr.dropped_events, 5)
        with tempfile.TemporaryDirectory() as tmp:
            path = fr.dump(os.path.join(tmp, "box.jsonl"))
            with open(path + ".manifest.json") as fh:
                manifest = json.load(fh)
        self.assertEqual(manifest["dropped_events"], 5)
        self.assertEqual(manifest["events"], 3)

    def test_disabled_recorder_is_inert(self):
        fr = FlightRecorder(enabled=False)
        fr.instant("x")
        self.assertEqual(len(fr), 0)
        self.assertIsNone(fr.trigger("manual"))
        self.assertFalse(NULL_RECORDER.enabled)
        NULL_RECORDER.instant("x")
        self.assertEqual(len(NULL_RECORDER), 0)

    def test_clear_resets(self):
        fr = FlightRecorder(capacity=2)
        for k in range(5):
            fr.instant(f"e{k}")
        fr.clear()
        self.assertEqual(len(fr), 0)
        self.assertEqual(fr.dropped_events, 0)


class TestTriggers(unittest.TestCase):
    def test_trigger_records_event_and_counts(self):
        fr = FlightRecorder()  # no dump_dir: record-only
        self.assertIsNone(fr.trigger("deadline_shed", args={"job": "j1"}))
        self.assertEqual(fr.trigger_counts, {"deadline_shed": 1})
        names = [e["name"] for e in fr.events()]
        self.assertIn("flight.trigger.deadline_shed", names)

    def test_trigger_taxonomy_is_complete(self):
        for reason in ("worker_crash", "deadline_shed", "job_exception",
                       "watchdog_reset", "campaign_interrupt", "manual"):
            self.assertIn(reason, TRIGGER_REASONS)

    def test_trigger_auto_dumps_with_manifest(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp)
            fr.instant("job.finish", args={"job": "j1", "phases": {"run": 0.01}})
            path = fr.trigger("worker_crash", args={"job": "j1"})
            self.assertIsNotNone(path)
            self.assertTrue(os.path.exists(path))
            self.assertIn("worker_crash", os.path.basename(path))
            events = load_trace(path)
            self.assertEqual(events[0]["name"], "job.finish")
            self.assertEqual(events[-1]["name"], "flight.trigger.worker_crash")
            with open(path + ".manifest.json") as fh:
                manifest = json.load(fh)
            self.assertEqual(manifest["reason"], "worker_crash")
            self.assertEqual(manifest["events"], len(events))
            self.assertEqual(manifest["trigger_counts"], {"worker_crash": 1})

    def test_dump_rate_limit_and_cap(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp, min_dump_interval_s=3600.0)
            first = fr.trigger("job_exception")
            second = fr.trigger("job_exception")
            self.assertIsNotNone(first)
            self.assertIsNone(second)  # rate-limited
            self.assertEqual(fr.trigger_counts["job_exception"], 2)  # still counted
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp, max_dumps=1,
                                min_dump_interval_s=0.0)
            self.assertIsNotNone(fr.trigger("manual"))
            self.assertIsNone(fr.trigger("manual"))  # capped
            self.assertEqual(len(fr.dumps), 1)

    def test_unwritable_dump_dir_is_counted_not_raised(self):
        with tempfile.TemporaryDirectory() as tmp:
            blocker = os.path.join(tmp, "not-a-dir")
            open(blocker, "w").close()
            dump_dir = os.path.join(blocker, "flight")
            fr = FlightRecorder(dump_dir=dump_dir, min_dump_interval_s=0.0)
            self.assertIsNone(fr.trigger("job_exception", args={"job": "j1"}))
            self.assertIsNone(fr.trigger("job_exception"))
            self.assertEqual(fr.trigger_counts, {"job_exception": 2})
            names = [e["name"] for e in fr.events()]
            self.assertEqual(names.count("flight.trigger.job_exception"), 2)
            self.assertEqual(fr.stats()["dump_errors"], 2)
            self.assertEqual(fr.dumps, [])
            # an explicit dump still reports the failure to its caller
            with self.assertRaises(OSError):
                fr.dump(os.path.join(dump_dir, "box.jsonl"))

    def test_explicit_dump(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder()
            fr.instant("x")
            path = fr.dump(os.path.join(tmp, "box.jsonl"))
            self.assertEqual(load_trace(path)[0]["name"], "x")

    def test_to_jsonl_roundtrip(self):
        fr = FlightRecorder()
        fr.instant("a", args={"n": 1})
        fr.instant("b")
        lines = fr.to_jsonl().strip().splitlines()
        self.assertEqual(len(lines), 2)
        self.assertEqual(json.loads(lines[0])["name"], "a")

    def test_manifest_epoch_dates_every_event(self):
        with tempfile.TemporaryDirectory() as tmp:
            created = time.time()
            fr = FlightRecorder()
            fr.instant("a")
            fr.instant("b")
            path = fr.dump(os.path.join(tmp, "box.jsonl"))
            with open(path + ".manifest.json") as fh:
                manifest = json.load(fh)
            for ev in load_trace(path):
                wall = manifest["epoch"] + ev["ts"]
                self.assertLessEqual(created, wall)
                self.assertLessEqual(wall, manifest["wall_time"])

    def test_pickle_ships_configuration_with_an_empty_ring(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(capacity=32, dump_dir=tmp, max_dumps=3,
                                min_dump_interval_s=0.0)
            fr.instant("a")
            fr.trigger("manual")
            clone = pickle.loads(pickle.dumps(fr))
            self.assertEqual(
                (clone.capacity, clone.enabled, clone.dump_dir,
                 clone.max_dumps, clone.min_dump_interval_s),
                (32, True, tmp, 3, 0.0),
            )
            self.assertEqual(len(clone), 0)
            self.assertEqual(clone.trigger_counts, {})
            self.assertEqual(clone.dumps, [])
            self.assertIsNotNone(clone.trigger("manual"))  # usable
            self.assertEqual(len(clone), 1)

    def test_stats_shape(self):
        fr = FlightRecorder(capacity=16)
        fr.instant("a")
        fr.trigger("manual")
        stats = fr.stats()
        self.assertEqual(stats["capacity"], 16)
        self.assertEqual(stats["events"], 2)
        self.assertEqual(stats["trigger_counts"], {"manual": 1})
        self.assertEqual(stats["dump_errors"], 0)
        self.assertTrue(stats["enabled"])


class TestGlobalRecorder(unittest.TestCase):
    def test_configure_flight_in_place(self):
        fr = get_flight_recorder()
        old = (fr.capacity, fr.dump_dir, fr.enabled)
        try:
            got = configure_flight(capacity=64)
            self.assertIs(got, fr)
            self.assertEqual(fr.capacity, 64)
        finally:
            configure_flight(capacity=old[0], enabled=old[2])
            fr.dump_dir = old[1]

    def test_global_is_shared(self):
        self.assertIs(get_flight_recorder(), get_flight_recorder())


if __name__ == "__main__":
    unittest.main()
