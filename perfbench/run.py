"""The repository benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pil_fuzz --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer spans;
``--trace 1`` runs the workload twice on the same inputs, untraced and
then traced, and reports the per-layer metrics (see ``catalogue.py``).
The last line of standard output is the JSON result; the lines before
it repeat each metric with its unit, the correctness verdict and the
run's provenance.  Spans, and the metrics (normalized and raw) with
the provenance, are also written under
``.perfbench_work/out/``.

Exit codes: 0 measured (the JSON says whether outputs were correct),
2 no package source to measure, 3 void run (the service load generator
fell behind its schedule by more than the benchmark's bound).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import mil_sweep  # noqa: E402
import pil_fuzz  # noqa: E402
import serve_mixed  # noqa: E402

WORKLOADS = {
    "pil_fuzz": pil_fuzz,
    "mil_sweep": mil_sweep,
    "serve_mixed": serve_mixed,
}


def parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not common.source_present():
        print("perfbench: no package source (src/repro) or fuzz corpus in "
              f"{common.ROOT}; nothing to measure", file=sys.stderr)
        return 2
    mod = WORKLOADS[args.workload]
    if args.setup_probe:
        # a fresh interpreter timed by the parent; the parent chose the
        # (empty) native cache through the environment
        common.prepare_env(os.environ["REPRO_NATIVE_CACHE"])
        mod.setup_probe(args.seed)
        return 0
    trace = bool(args.trace)
    scratch = common.fresh_dir(common.WORK, f"run-{os.getpid()}")
    try:
        common.prepare_env(os.path.join(scratch, "native"))
        setup = None
        if not trace:
            setup = common.measure_setup(args.workload, args.seed, scratch)
        try:
            outcome = mod.run(args.seed, args.seconds, trace, scratch)
        except serve_mixed.VoidRun as exc:
            print(f"perfbench: void run: {exc}", file=sys.stderr)
            return 3
        if setup is not None:
            outcome.metrics["setup_s"], outcome.raw["setup_s"], probes = setup
            outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
            outcome.notes.append(
                "setup_s probes = " + ", ".join(f"{t:.4f}" for t in probes))
        prov = common.provenance(args.workload, args.seed, trace,
                                 outcome.fallback_delta, outcome.doc_hashes)
        out_dir = os.path.join(common.WORK, "out")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{args.workload}-trace{args.trace}")
        with open(stem + ".result.json", "w") as f:
            json.dump({"provenance": prov, "metrics": outcome.metrics,
                       "raw_metrics": outcome.raw}, f, indent=2, sort_keys=True)
        if outcome.tracer is not None:
            outcome.tracer.dump(stem + ".spans.jsonl")
        common.emit(outcome, trace, prov)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
