"""``python -m repro.obs`` — trace tooling and the live ops plane.

Subcommands::

    python -m repro.obs summary TRACE [--json] [--strict] [--top N]
    python -m repro.obs convert IN OUT
    python -m repro.obs serve [--port P] [--flight-dir DIR]
                              [--demo-jobs N] [--force-shed]
                              [--duration S]
    python -m repro.obs report INPUT [-o OUT.html] [--json]

``summary`` loads either format (JSONL or Chrome trace-event JSON),
prints totals + per-category/per-name tables, and runs the structural
validator; ``--strict`` exits non-zero when validation finds problems;
``--top N`` adds the N slowest span names per category.
``convert`` rewrites a trace into the format implied by OUT's extension
(``.jsonl`` → JSONL, anything else → Chrome JSON).
``serve`` stands up a SimServe instance with the embedded HTTP ops
endpoint (``/metrics``, ``/healthz``, ``/statusz``, ``/flight``) and —
optionally — synthetic servo traffic so the endpoints have something to
show; ``--force-shed`` submits an already-expired job to exercise the
deadline-shed flight trigger (what the CI smoke job curls).
``report`` renders a metrics snapshot or an event file (a flight-recorder
dump, or any trace in either format) into the per-phase latency-waterfall
ops report.  A flight dump is a JSONL trace, so ``summary`` and
``convert`` read it too.
"""

from __future__ import annotations

import argparse
import json
import sys

from .summary import format_summary, format_top, summarize, top_spans, validate
from .trace import Tracer, load_trace


def _cmd_summary(ns: argparse.Namespace) -> int:
    events = load_trace(ns.trace)
    summary = summarize(events)
    problems = validate(events)
    top = top_spans(events, ns.top) if ns.top else None
    if ns.json:
        doc = {"summary": summary, "problems": problems}
        if top is not None:
            doc["top_spans"] = top
        print(json.dumps(doc, indent=2))
    else:
        print(format_summary(summary, problems))
        if top is not None:
            print()
            print(format_top(top))
    if ns.strict and problems:
        return 1
    return 0


def _cmd_convert(ns: argparse.Namespace) -> int:
    events = load_trace(ns.input)
    tracer = Tracer(capacity=max(1, len(events)), enabled=True)
    tracer.ingest(events)
    if ns.output.endswith(".jsonl"):
        tracer.export_jsonl(ns.output, manifest=False)
    else:
        tracer.export_chrome(ns.output, manifest=False)
    print(f"wrote {len(events)} events -> {ns.output}")
    return 0


def _cmd_serve(ns: argparse.Namespace) -> int:
    import time

    from repro.casestudy import build_servo_model
    from repro.service import JobPriority, MILRequest, SimServe

    from .flight import configure_flight

    if ns.flight_dir:
        configure_flight(dump_dir=ns.flight_dir)
    svc = SimServe(workers=ns.workers, ops_port=ns.port, ops_host=ns.host)
    try:
        print(f"ops plane listening on {svc.ops_url}", flush=True)
        handles = []
        for _ in range(ns.demo_jobs):
            handles.append(svc.submit(MILRequest(
                builder=build_servo_model, dt=1e-4, t_final=ns.t_final,
            )))
        if ns.force_shed:
            # a job whose deadline is over before any worker can reach
            # it: exercises the deadline_shed flight trigger end to end
            shed = svc.submit(
                MILRequest(builder=build_servo_model, dt=1e-4,
                           t_final=ns.t_final),
                priority=JobPriority.LOW,
                deadline_s=1e-6,
            )
            handles.append(shed)
        for h in handles:
            h.wait(timeout=120.0)
        snap = svc.metrics_snapshot()
        print(json.dumps({
            "jobs": snap["jobs"], "waterfall": snap["waterfall"],
            "flight": snap["flight"],
        }, indent=2, default=str), flush=True)
        if ns.snapshot:
            with open(ns.snapshot, "w") as fh:
                json.dump(snap, fh, indent=2, default=str)
            print(f"wrote snapshot -> {ns.snapshot}", flush=True)
        deadline = time.monotonic() + ns.duration
        while time.monotonic() < deadline:
            time.sleep(min(0.5, max(0.0, deadline - time.monotonic())))
    finally:
        svc.shutdown()
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    from .report import build_report, load_ops_input, render_html, render_text

    report = build_report(load_ops_input(ns.input))
    # the file first: a closed stdout (``| head``) must not lose it
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(render_html(report))
    if ns.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(render_text(report))
    if ns.output:
        print(f"wrote report -> {ns.output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="trace tooling + the live ops plane",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sum = sub.add_parser("summary", help="summarize + validate a trace")
    p_sum.add_argument("trace", help="trace file (JSONL or Chrome JSON)")
    p_sum.add_argument("--json", action="store_true", help="machine-readable output")
    p_sum.add_argument(
        "--strict", action="store_true",
        help="exit 1 if structural validation finds problems",
    )
    p_sum.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="also print the N slowest span names per category",
    )
    p_sum.set_defaults(fn=_cmd_summary)

    p_conv = sub.add_parser("convert", help="convert between trace formats")
    p_conv.add_argument("input", help="source trace (either format)")
    p_conv.add_argument("output", help="destination (.jsonl => JSONL, else Chrome JSON)")
    p_conv.set_defaults(fn=_cmd_convert)

    p_srv = sub.add_parser(
        "serve", help="run SimServe with the embedded HTTP ops endpoint"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="ops port (0 = ephemeral, printed at startup)")
    p_srv.add_argument("--workers", type=int, default=2)
    p_srv.add_argument("--flight-dir", default=None,
                       help="directory for flight-recorder auto-dumps")
    p_srv.add_argument("--demo-jobs", type=int, default=0,
                       help="run N synthetic servo MIL jobs")
    p_srv.add_argument("--t-final", type=float, default=0.05,
                       help="sim horizon of each demo job (seconds)")
    p_srv.add_argument("--force-shed", action="store_true",
                       help="submit one already-expired job (deadline shed)")
    p_srv.add_argument("--snapshot", default=None, metavar="PATH",
                       help="write the final metrics snapshot JSON here")
    p_srv.add_argument("--duration", type=float, default=0.0,
                       help="keep serving this many seconds after the demo jobs")
    p_srv.set_defaults(fn=_cmd_serve)

    p_rep = sub.add_parser(
        "report", help="latency-waterfall ops report from a snapshot/flight dump"
    )
    p_rep.add_argument("input", help="metrics snapshot JSON, or a flight dump / trace")
    p_rep.add_argument("-o", "--output", default=None,
                       help="write a self-contained HTML report here")
    p_rep.add_argument("--json", action="store_true",
                       help="print the report dict instead of the table")
    p_rep.set_defaults(fn=_cmd_report)

    ns = parser.parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":
    sys.exit(main())
