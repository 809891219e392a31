"""``python -m repro.obs`` — summary/convert subcommands and validation."""

import json

import pytest

from repro.obs import Tracer, load_trace, summarize, validate, format_summary
from repro.obs.__main__ import main


@pytest.fixture
def trace_jsonl(tmp_path):
    tr = Tracer(enabled=True)
    with tr.span("outer", cat="engine", sim_t=0.0):
        with tr.span("inner", cat="engine", sim_t=0.001):
            tr.instant("mark", cat="link", args={"seq": 1})
    return tr.export_jsonl(tmp_path / "run.jsonl", manifest=False)


class TestSummary:
    def test_human_output(self, trace_jsonl, capsys):
        assert main(["summary", trace_jsonl]) == 0
        out = capsys.readouterr().out
        assert "events 3" in out
        assert "engine" in out and "link" in out
        assert "validation: ok" in out

    def test_json_output(self, trace_jsonl, capsys):
        assert main(["summary", trace_jsonl, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["problems"] == []
        assert doc["summary"]["spans"] == 2
        assert doc["summary"]["instants"] == 1
        assert set(doc["summary"]["categories"]) == {"engine", "link"}

    def test_strict_passes_clean_trace(self, trace_jsonl):
        assert main(["summary", trace_jsonl, "--strict"]) == 0

    def test_top_spans_table(self, trace_jsonl, capsys):
        assert main(["summary", trace_jsonl, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "slowest spans — engine" in out
        assert "outer" in out and "p95" in out

    def test_top_spans_json(self, trace_jsonl, capsys):
        assert main(["summary", trace_jsonl, "--json", "--top", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["top_spans"]["engine"]
        assert len(rows) == 1
        # "outer" contains "inner", so it dominates total duration
        assert rows[0]["name"] == "outer"
        assert {"name", "count", "total_dur", "p95_dur", "max_dur"} <= set(rows[0])

    def test_strict_fails_broken_trace(self, tmp_path, capsys):
        broken = dict(
            ph="i", name="orphan", cat="app", ts=0.0, dur=0.0, sim_t=None,
            id=None, parent="1-999", pid=1, tid=0, args={},
        )
        path = tmp_path / "broken.jsonl"
        path.write_text(json.dumps(broken) + "\n")
        assert main(["summary", str(path), "--strict"]) == 1
        assert main(["summary", str(path)]) == 0  # non-strict only reports
        out = capsys.readouterr().out
        assert "parent '1-999' not in trace" in out


class TestConvert:
    def test_jsonl_to_chrome_and_back(self, trace_jsonl, tmp_path, capsys):
        chrome = str(tmp_path / "run.trace.json")
        back = str(tmp_path / "back.jsonl")
        assert main(["convert", trace_jsonl, chrome]) == 0
        assert "wrote 3 events" in capsys.readouterr().out
        json.loads(open(chrome).read())  # valid Chrome JSON
        assert main(["convert", chrome, back]) == 0
        a, b = load_trace(trace_jsonl), load_trace(back)
        assert [e["name"] for e in a] == [e["name"] for e in b]
        assert [e["id"] for e in a] == [e["id"] for e in b]
        assert [e["parent"] for e in a] == [e["parent"] for e in b]
        assert validate(b) == []


class TestServeAndReport:
    def test_serve_demo_then_report(self, tmp_path, capsys):
        import os

        from repro.obs.flight import get_flight_recorder

        snap_path = str(tmp_path / "snap.json")
        flight_dir = str(tmp_path / "flight")
        fr = get_flight_recorder()
        old_dir = fr.dump_dir
        # the recorder is process-wide: a shed an earlier test recorded
        # would land in this run's dump
        fr.clear()
        try:
            assert main([
                "serve", "--port", "0", "--demo-jobs", "1", "--force-shed",
                "--t-final", "0.01", "--snapshot", snap_path,
                "--flight-dir", flight_dir,
            ]) == 0
        finally:
            fr.dump_dir = old_dir
            fr.clear()
        out = capsys.readouterr().out
        assert "ops plane listening on http://127.0.0.1:" in out
        snap = json.loads(open(snap_path).read())
        assert snap["jobs"]["completed"] >= 1
        assert snap["jobs"]["shed"] == 1
        assert "run" in snap["waterfall"]
        # the forced shed auto-dumped a flight box
        dumps = [p for p in os.listdir(flight_dir) if p.endswith(".jsonl")]
        assert len(dumps) >= 1

        # snapshot -> report
        html = str(tmp_path / "report.html")
        assert main(["report", snap_path, "-o", html]) == 0
        out = capsys.readouterr().out
        assert "ops report (snapshot" in out
        assert "shed" in out
        text = open(html).read()
        assert "Phase waterfall" in text

        # flight dump -> report (post-mortem path)
        assert main([
            "report", os.path.join(flight_dir, dumps[0]), "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "flight"
        assert doc["triggers"].get("deadline_shed") == 1

    def test_report_file_survives_a_closed_stdout(self, tmp_path, monkeypatch):
        import sys

        from repro.obs.flight import FlightRecorder

        class ClosedPipe:
            def write(self, _text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        dump = FlightRecorder(dump_dir=str(tmp_path)).trigger("deadline_shed")
        html = tmp_path / "report.html"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["report", dump, "-o", str(html)])
        assert "Phase waterfall" in html.read_text()

    def test_one_event_flight_dump_reports_as_flight(self, tmp_path, capsys):
        from repro.obs.flight import FlightRecorder

        # a trigger on an empty ring dumps exactly one event
        path = FlightRecorder(dump_dir=str(tmp_path)).trigger("deadline_shed")
        assert len(load_trace(path)) == 1
        assert main(["report", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "flight"
        assert doc["triggers"] == {"deadline_shed": 1}


class TestOneSchema:
    """A flight dump is a trace and a trace export is ops-report input."""

    def test_flight_dump_validates_converts_and_reports(self, tmp_path, capsys):
        from repro.obs.flight import FlightRecorder

        fr = FlightRecorder(dump_dir=str(tmp_path))
        fr.instant("job.finish", cat="service", args={
            "job": "j1", "state": "expired", "phases": {"queue": 0.002},
        })
        dump = fr.trigger("deadline_shed", args={"job": "j1"})
        assert main(["summary", dump, "--strict"]) == 0
        chrome = tmp_path / "flight.trace.json"
        assert main(["convert", dump, str(chrome)]) == 0
        assert "traceEvents" in json.loads(chrome.read_text())
        capsys.readouterr()
        reports = []
        for path in (dump, str(chrome)):
            assert main(["report", path, "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        from_dump, from_chrome = reports
        assert from_dump["jobs"]["shed"] == 1
        assert from_dump["triggers"] == {"deadline_shed": 1}
        assert from_chrome["jobs"] == from_dump["jobs"]
        assert from_chrome["triggers"] == from_dump["triggers"]

    def test_chrome_export_of_a_tracer_reports_its_jobs(self, tmp_path, capsys):
        tr = Tracer(enabled=True)
        for job, state in (("j1", "done"), ("j2", "failed")):
            tr.instant("job.finish", cat="service", args={
                "job": job, "state": state, "phases": {"run": 0.01},
            })
        path = tr.export_chrome(tmp_path / "jobs.trace.json", manifest=False)
        assert main(["report", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "flight"
        assert doc["jobs"]["finished"] == 2
        assert doc["jobs"]["done"] == 1 and doc["jobs"]["failed"] == 1
        assert [row["phase"] for row in doc["phases"]] == ["run"]


class TestValidator:
    def test_negative_duration_flagged(self):
        ev = dict(ph="X", name="bad", cat="app", ts=0.0, dur=-1.0, sim_t=None,
                  id="1-1", parent=None, pid=1, tid=0, args={})
        problems = validate([ev])
        assert len(problems) == 1 and "negative duration" in problems[0]

    def test_child_escaping_parent_flagged(self):
        parent = dict(ph="X", name="p", cat="app", ts=0.0, dur=1.0, sim_t=None,
                      id="1-1", parent=None, pid=1, tid=0, args={})
        child = dict(ph="X", name="c", cat="app", ts=0.5, dur=2.0, sim_t=None,
                     id="1-2", parent="1-1", pid=1, tid=0, args={})
        problems = validate([parent, child])
        assert len(problems) == 1 and "escapes parent" in problems[0]

    def test_cross_pid_child_exempt_from_containment(self):
        parent = dict(ph="X", name="p", cat="app", ts=0.0, dur=1.0, sim_t=None,
                      id="1-1", parent=None, pid=1, tid=0, args={})
        child = dict(ph="X", name="c", cat="app", ts=50.0, dur=2.0, sim_t=None,
                     id="2-1", parent="1-1", pid=2, tid=0, args={})
        assert validate([parent, child]) == []

    def test_summary_counts(self):
        tr = Tracer(enabled=True)
        with tr.span("a", cat="x"):
            tr.instant("b", cat="y")
        s = summarize(tr.events())
        assert s["events"] == 2 and s["spans"] == 1 and s["instants"] == 1
        assert s["processes"] == 1
        text = format_summary(s, problems=[])
        assert "validation: ok" in text
