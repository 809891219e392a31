#!/usr/bin/env python
"""Continuous batching in SimServe: staggered clients, one vector run.

The paper's integrated environment serves many interactive experiments
against the same plant diagram — a tuning UI, a regression sweep, a
fuzzing campaign — and those submissions arrive *staggered*, not as one
pre-assembled batch.  With continuous batching enabled, the scheduler
coalesces queued jobs that share a canonical model document into a
single :class:`~repro.model.BatchSimulator` run, admits late arrivals at
the step-0 boundary, and demuxes per-lane results that stay
bit-identical to a direct serial run.

This script is also the CI smoke for the feature: it exits non-zero if
the staggered submissions fail to collapse into one vector job or any
lane differs from the serial reference by even one bit.

Run:  PYTHONPATH=src python examples/continuous_batching_service.py
      PYTHONPATH=src python examples/continuous_batching_service.py --jobs 12
      PYTHONPATH=src python examples/continuous_batching_service.py --backend process
"""

import argparse
import sys
import time

import numpy as np

from repro.model import Model, SimulationOptions, Simulator
from repro.model.library import Constant, Gain, Integrator, Scope, Sum
from repro.service import CoalesceConfig, MILRequest, SimServe

DT = 1e-4
T_FINAL = 0.3


def build_loop() -> Model:
    """A tiny closed loop: setpoint -> P gain -> integrator plant -> scope."""
    m = Model("loop")
    ref = m.add(Constant("ref", value=1.0))
    err = m.add(Sum("err", signs="+-"))
    ctrl = m.add(Gain("ctrl", gain=2.0))
    plant = m.add(Integrator("plant"))
    scope = m.add(Scope("y", label="y"))
    m.connect(ref, err, 0, 0)
    m.connect(plant, err, 0, 1)
    m.connect(err, ctrl)
    m.connect(ctrl, plant)
    m.connect(plant, scope)
    return m


def request() -> MILRequest:
    return MILRequest(model=build_loop(), dt=DT, t_final=T_FINAL)


def serial_reference():
    req = request()
    sim = Simulator(
        req.resolve_model().compile(DT),
        SimulationOptions(dt=DT, t_final=T_FINAL, solver=req.solver),
    )
    return sim.run()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=8,
                    help="staggered submissions to coalesce (default 8)")
    ap.add_argument("--window-ms", type=float, default=50.0,
                    help="coalesce window in milliseconds (default 50)")
    ap.add_argument("--stagger-ms", type=float, default=1.0,
                    help="delay between submissions (default 1)")
    ap.add_argument("--backend", choices=("thread", "process"),
                    default="thread",
                    help="SimServe worker backend (default thread)")
    args = ap.parse_args(argv)

    reference = serial_reference()
    cfg = CoalesceConfig(max_batch=max(2, args.jobs),
                         window_s=args.window_ms / 1e3)

    # one worker => the whole staggered wave must land in ONE vector job
    t0 = time.perf_counter()
    with SimServe(workers=1, backend=args.backend, coalesce=cfg) as svc:
        handles = []
        for _ in range(args.jobs):
            handles.append(svc.submit(request()))
            time.sleep(args.stagger_ms / 1e3)
        records = [h.record(timeout=300.0) for h in handles]
        snap = svc.metrics_snapshot()
    wall = time.perf_counter() - t0

    coalesced = [r for r in records if "coalesced" in r.summary]
    widths = sorted({r.summary["coalesced"]["width"] for r in coalesced})
    identical = all(
        np.array_equal(rec.result[name], reference[name])
        for rec in records
        for name in reference.names
    )

    print(f"{args.jobs} staggered submissions ({args.stagger_ms:.1f} ms apart, "
          f"{args.window_ms:.0f} ms window, {args.backend} backend) in "
          f"{wall*1e3:.0f} ms wall")
    print(f"  vector batches formed : {snap['coalesce']['batches']} "
          f"(widths {widths})")
    print(f"  jobs coalesced        : {snap['coalesce']['jobs']}/{args.jobs}")
    print(f"  lanes bit-identical to the serial reference: {identical}")

    if snap["coalesce"]["batches"] != 1 or len(coalesced) != args.jobs:
        print("FAIL: staggered submissions did not collapse into one "
              "vector job", file=sys.stderr)
        return 1
    if not identical:
        print("FAIL: a coalesced lane diverged from its serial run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
