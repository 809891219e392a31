#!/usr/bin/env python
"""The SimServe ops plane: scrape, health, status, and the black box.

The paper's integrated environment is a long-running service — a tuning
UI, regression sweeps, and fault campaigns all lease the same simulation
backend — so operating it needs the same plumbing any service needs:

* ``/metrics``   — Prometheus exposition of job/cache/queue counters and
  the per-phase latency-waterfall histograms,
* ``/healthz``   — liveness (queue depth, worker pool, crash count);
  returns 503 once the service is unhealthy,
* ``/statusz``   — recent jobs with per-phase timings (JSON or HTML),
* ``/flight``    — the always-on flight recorder's ring, downloadable as
  JSONL even when nothing has gone wrong yet.

This script stands the service up with ``ops_port=0`` (ephemeral), runs
a few servo jobs plus one job whose deadline is already over — the
deadline shed trips the flight recorder's auto-dump — then scrapes every
endpoint over a real socket and renders the offline ops report from the
dump alone, the post-mortem path an operator would use after a crash.

Run:  PYTHONPATH=src python examples/ops_plane_service.py
      PYTHONPATH=src python examples/ops_plane_service.py --keep-artifacts
"""

import argparse
import json
import sys
import tempfile
import urllib.request
from pathlib import Path

from repro.casestudy import build_servo_model
from repro.obs.flight import FlightRecorder
from repro.obs.report import build_report, load_ops_input, render_html
from repro.obs.trace import load_trace
from repro.service import JobPriority, JobState, MILRequest, SimServe

DT = 1e-4
T_FINAL = 0.2


def request() -> MILRequest:
    return MILRequest(builder=build_servo_model, dt=DT, t_final=T_FINAL)


def scrape(url: str) -> tuple[int, dict, bytes]:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=4,
                    help="servo MIL jobs to run (default 4)")
    ap.add_argument("--keep-artifacts", action="store_true",
                    help="write flight dump + report.html to ./ops-artifacts")
    args = ap.parse_args(argv)

    out_dir = Path("ops-artifacts") if args.keep_artifacts else None
    tmp = None if out_dir else tempfile.TemporaryDirectory()
    dump_dir = str(out_dir or tmp.name)
    flight = FlightRecorder(dump_dir=dump_dir)

    with SimServe(workers=2, ops_port=0, flight=flight) as svc:
        print(f"ops plane listening on {svc.ops_url}")

        handles = [svc.submit(request()) for _ in range(args.jobs)]
        shed = svc.submit(request(), priority=JobPriority.LOW,
                          deadline_s=1e-6)  # already expired => shed
        assert svc.wait_all(handles + [shed], timeout=300.0)
        assert shed.state == JobState.EXPIRED

        # --- live scrapes over a real socket --------------------------
        status, headers, body = scrape(svc.ops_url + "/metrics")
        text = body.decode()
        assert status == 200 and "simserve_phase_run_seconds_bucket" in text
        n_lines = len(text.splitlines())
        print(f"  /metrics : {n_lines} exposition lines "
              f"({headers['Content-Type'].split(';')[0]})")

        _, _, body = scrape(svc.ops_url + "/healthz")
        health = json.loads(body)
        print(f"  /healthz : ok={health['ok']} "
              f"workers_alive={health['pool']['workers_alive']} "
              f"crash_count={health['pool']['crash_count']}")

        _, _, body = scrape(svc.ops_url + "/statusz")
        rows = json.loads(body)["jobs"]
        done = [r for r in rows if r["state"] == "done"][0]
        phases = ", ".join(f"{k}={v * 1e3:.2f}ms"
                           for k, v in done["phases"].items())
        print(f"  /statusz : {len(rows)} recent jobs; newest done job "
              f"waterfall: {phases}")

        _, _, body = scrape(svc.ops_url + "/flight")
        print(f"  /flight  : {len(body.splitlines())} ring events (JSONL)")

    # --- post-mortem: the shed auto-dumped a black box ----------------
    assert flight.trigger_counts.get("deadline_shed") == 1
    dump = flight.dumps[0]
    events = load_trace(dump)
    sheds = [e for e in events if e["name"] == "job.finish"
             and e["args"]["state"] == "expired"]
    print(f"flight dump: {Path(dump).name} ({len(events)} events, "
          f"{len(sheds)} shed job)")

    report = build_report(load_ops_input(dump))
    print(f"ops report from the dump alone: jobs={report['jobs']}, "
          f"triggers={report['triggers']}")
    if out_dir:
        html = out_dir / "report.html"
        html.write_text(render_html(report))
        print(f"wrote {html}")
    if tmp:
        tmp.cleanup()

    if report["jobs"]["shed"] != 1 or not sheds:
        print("FAIL: the deadline shed did not reach the flight dump",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
