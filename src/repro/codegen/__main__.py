"""``python -m repro.codegen`` — code-generation CLI.

Subcommands:

``dump <model>``
    Lower a model through the kernel planner and print the native C
    translation unit — the exact source the engine would compile when
    ``native=True`` — followed by the parameter vector it reads as
    ``P[k]``, one comment line per slot.  ``<model>`` is either a JSON
    model file (see :func:`repro.model.io.load_model`) or the built-in
    name ``servo`` (the paper's case study).  Useful for inspecting what
    runs on the metal and for diffing template changes.
"""

from __future__ import annotations

import argparse
import sys


def _build_model(spec: str):
    if spec == "servo":
        from repro.casestudy import ServoConfig, build_servo_model

        return build_servo_model(ServoConfig(setpoint=100.0)).model
    from repro.model.io import load_model

    return load_model(spec)


def cmd_dump(args: argparse.Namespace) -> int:
    from repro.model import SimulationOptions, Simulator
    from repro.native import NativeLoweringError, generate_tu
    from repro.model.kernels import KernelPlanError

    model = _build_model(args.model)
    sim = Simulator(
        model.compile(args.dt),
        SimulationOptions(
            dt=args.dt, t_final=args.dt, solver=args.solver, native=False
        ),
    )
    try:
        tu = generate_tu(sim)
    except (KernelPlanError, NativeLoweringError) as exc:
        print(f"error: model does not lower to native C: {exc}",
              file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as f:
            f.write(tu)
        print(f"wrote {len(tu)} bytes to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(tu)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.codegen",
        description="code-generation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dump = sub.add_parser(
        "dump", help="print the native C translation unit for a model"
    )
    dump.add_argument(
        "model",
        help="JSON model file, or the built-in name 'servo'",
    )
    dump.add_argument("--dt", type=float, default=1e-4,
                      help="base step size (default 1e-4)")
    dump.add_argument("--solver", choices=["euler", "rk4"], default="rk4",
                      help="integrator (default rk4)")
    dump.add_argument("--out", default=None,
                      help="write to this file instead of stdout")
    dump.set_defaults(func=cmd_dump)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
