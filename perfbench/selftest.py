"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/selftest.py

Checks that

* ``BENCHMARK.json`` declares exactly the metrics of ``catalogue.py``;
* every workload, untraced and traced, prints every declared metric
  name with its unit, and a JSON last line a caller can parse;
* a deliberately corrupted output trips each workload's correctness
  check;
* two seeds give different inputs but the same metric names;
* with no package source to measure, the command exits non-zero
  without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
from catalogue import END_TO_END, PER_LAYER  # noqa: E402

TINY_S = 1.0
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run_cli(workload: str, seed: int, trace: int, cwd: str = common.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(TINY_S), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_declaration() -> None:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    expect(declared == {n: u for n, u, *_ in END_TO_END},
           "BENCHMARK.json end_to_end matches catalogue.END_TO_END")
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect(declared == {n: u for n, u, *_ in PER_LAYER},
           "BENCHMARK.json per_layer matches catalogue.PER_LAYER")


def check_output(workload: str) -> None:
    names = {}
    for trace, metrics in ((0, END_TO_END), (1, PER_LAYER)):
        proc = run_cli(workload, 1, trace)
        expect(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            expect(False, f"{workload} --trace {trace} ends with a JSON line")
            continue
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}
               and result["correct"] and result["failed"] == 0,
               f"{workload} --trace {trace} is correct with no failures")
        for name, unit, *_ in metrics:
            printed = any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}")
                          for ln in lines)
            got = result["metrics"].get(name, {})
            if not (printed and got.get("unit") == unit):
                expect(False, f"{workload}: {name} printed with unit {unit}")
                break
        else:
            expect(True, f"{workload} --trace {trace}: all {len(metrics)} "
                         "metrics printed with their units")
        names[trace] = set(result["metrics"])
    proc = run_cli(workload, 2, 0)
    other = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    expect(set(other) == names.get(0), f"{workload}: seed 2 reports the same metric names")


def check_inputs_differ() -> None:
    import mil_sweep
    import serve_mixed
    from repro.fuzz.mutate import MutationConfig, PlanMutator
    from repro.fuzz.targets import get_target

    expect(mil_sweep.first_distinct(1, 4) != mil_sweep.first_distinct(2, 4),
           "mil_sweep: seeds 1 and 2 give different parameter points")
    a, b = serve_mixed.schedule(1, 2.0), serve_mixed.schedule(2, 2.0)
    expect(a["offsets"] != b["offsets"] and a["jobs"] != b["jobs"],
           "serve_mixed: seeds 1 and 2 give different arrivals and job points")
    target = get_target("servo")
    grid = target.seed_grid()
    cfg = MutationConfig(t_final=target.t_final, sensor_blocks=tuple(target.sensor_blocks))
    m1 = PlanMutator(1, cfg).mutate(grid[0], mate=grid[1])[0].to_dict()
    m2 = PlanMutator(2, cfg).mutate(grid[0], mate=grid[1])[0].to_dict()
    expect(m1 != m2, "pil_fuzz: seeds 1 and 2 mutate to different candidates")


def check_corruption(scratch: str) -> None:
    """Corrupt one output per workload in-process; the run must say so."""
    import mil_sweep
    import pil_fuzz
    import serve_mixed
    import repro.fuzz.replay as replay
    import repro.service.workers as workers

    # mil_sweep: the single native runs drift by one ulp of the time base
    orig_single = mil_sweep.single_run

    def drifted(point, native="auto"):
        result, active = orig_single(point, native)
        result.t[-1] = result.t[-1] + 1e-12
        return result, active

    mil_sweep.single_run = drifted
    try:
        out = mil_sweep.run(1, TINY_S, False, scratch)
    finally:
        mil_sweep.single_run = orig_single
    expect(out.mismatches != [], "mil_sweep: a corrupted single run trips the check")

    # pil_fuzz: a replayed corpus corner reports another signature hash
    orig_eval = replay.evaluate_plan

    def wrong_hash(*args, **kwargs):
        outcome = dict(orig_eval(*args, **kwargs))
        outcome["hash"] = "0" * 16
        return outcome

    replay.evaluate_plan = wrong_hash
    try:
        out = pil_fuzz.run(1, TINY_S, False, scratch)
    finally:
        replay.evaluate_plan = orig_eval
    expect(out.mismatches != [], "pil_fuzz: a corrupted corpus replay trips the check")

    # serve_mixed: the service hands back a perturbed MIL trace
    orig_exec = workers.execute_request

    def perturbed(request, *args, **kwargs):
        summary, result, hit = orig_exec(request, *args, **kwargs)
        if hasattr(result, "names") and "speed" in result.names:
            result["speed"][-1] += 1.0
        return summary, result, hit

    workers.execute_request = perturbed
    try:
        out = serve_mixed.run(1, TINY_S, False, scratch)
    finally:
        workers.execute_request = orig_exec
    expect(out.mismatches != [], "serve_mixed: a corrupted job result trips the check")


def check_no_source() -> None:
    """In a directory holding only BENCHMARK.json and perfbench/, the
    command exits non-zero and prints no result."""
    with tempfile.TemporaryDirectory(dir=common.WORK) as d:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pil_fuzz",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "no package source: exits non-zero without a result")


def main() -> int:
    os.makedirs(common.WORK, exist_ok=True)
    scratch = common.fresh_dir(common.WORK, f"selftest-{os.getpid()}")
    try:
        common.prepare_env(os.path.join(scratch, "native"))
        check_declaration()
        check_no_source()
        check_inputs_differ()
        check_corruption(scratch)
        for workload in ("pil_fuzz", "mil_sweep", "serve_mixed"):
            check_output(workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
