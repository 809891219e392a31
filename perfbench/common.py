"""Shared pieces of the benchmark: paths, environment, statistics,
provenance, the set-up probe and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from catalogue import END_TO_END, PER_LAYER, UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "fuzz", "corpus")
#: scratch and output space inside the checkout (ignored by git)
WORK = os.path.join(ROOT, ".perfbench_work")

#: environment switches that would move the code under test off its
#: defaults; the benchmark runs with none of them set
_ENV_OVERRIDES = (
    "REPRO_NATIVE",
    "REPRO_NATIVE_THRESHOLD",
    "REPRO_NATIVE_CC",
    "SIMSERVE_COALESCE",
    "SIMSERVE_COALESCE_MAX_BATCH",
    "SIMSERVE_COALESCE_WINDOW_S",
)

#: a set-up probe is a fresh interpreter; this many run per measurement
SETUP_PROBES = 5


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py")) and os.path.isdir(CORPUS)


def prepare_env(native_cache: str) -> None:
    """Pin the environment: defaults everywhere, a native compile cache
    of the benchmark's own that starts empty, and temporary files (the
    C compiler's too) beside it, inside the checkout."""
    for key in _ENV_OVERRIDES:
        os.environ.pop(key, None)
    os.makedirs(native_cache, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = native_cache
    tmp = os.path.join(os.path.dirname(native_cache), "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
#: the tail is the highest percentile with at least this many samples
#: beyond it
TAIL_BEYOND = 10


def p50(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the sample with exactly
    ``TAIL_BEYOND`` samples above it, and the percentile that is."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process only (not its children)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# set-up probe: fresh interpreters, median reported
# ---------------------------------------------------------------------------
def measure_setup(workload: str, seed: int, scratch: str) -> tuple[float, float, list]:
    """``(normalized, raw, normalized probes)``: the median wall time of
    ``SETUP_PROBES`` fresh interpreters that each import the package,
    build the workload's system and produce its first result (see each
    workload's ``setup_probe``), normalized to the nominal host speed
    and raw."""
    from hostspeed import SpeedProbe

    probe = SpeedProbe()
    spans = []
    for k in range(SETUP_PROBES):
        probe.sample()
        cache = fresh_dir(scratch, f"setup-native-{k}")
        env = dict(os.environ)
        env["REPRO_NATIVE_CACHE"] = cache
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--setup-probe", "--workload", workload, "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        spans.append((t0, time.perf_counter()))
        shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    probe.sample()
    # one factor from all the samples: a single sample next to a process
    # start or exit is a poor estimate on its own
    factor = probe.factor(spans[0][0] - 3600.0, spans[-1][1] + 3600.0)
    times = [(b - a) * factor for a, b in spans]
    return p50(times), p50([b - a for a, b in spans]), times


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over every file of the package source, so a run names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def provenance(workload: str, seed: int, trace: bool, fallback_delta: dict,
               doc_hashes: list) -> dict:
    import numpy
    from repro.native import compiler_fingerprint, find_cc

    cc = find_cc()
    reasons = sorted(r for r, n in fallback_delta.items() if n)
    baseline = _baseline_reasons(workload)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": compiler_fingerprint(cc) if cc else "absent",
        "kernel_fallback_delta": fallback_delta,
        "model_doc_hashes": sorted(set(doc_hashes)),
        "baseline_fallback_reasons": baseline,
        # a run whose native fallback reasons differ from the baseline's
        # ran on other substrates: its figures are not comparable
        "comparable": baseline is None or baseline == reasons,
    }


def _baseline_reasons(workload: str):
    path = os.path.join(HERE, "baseline.json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    entry = doc.get("workloads", {}).get(workload)
    return None if entry is None else sorted(entry.get("fallback_reasons", []))


# ---------------------------------------------------------------------------
# the outcome of one run
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    #: operations attempted / failed, correctness checks included
    attempted: int = 0
    failed: int = 0
    #: failed checks by name (empty = every check passed)
    mismatches: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    fallback_delta: dict = field(default_factory=dict)
    doc_hashes: list = field(default_factory=list)
    #: the raw (not normalized) value of each host-time end-to-end metric
    raw: dict = field(default_factory=dict)
    #: the traced run's span recorder (None for an untraced run)
    tracer: object = None

    def check(self, name: str, ok: bool) -> bool:
        """Count one correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(name)
        return ok


def counter_delta(before: dict, after: dict) -> dict:
    """The counters that moved between two snapshots."""
    return {k: after[k] - before.get(k, 0) for k in after
            if after[k] != before.get(k, 0)}


def emit(outcome: Outcome, trace: bool, prov: dict) -> None:
    """Human-readable lines, then the one-line JSON result (last line)."""
    names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    missing = [n for n in names if n not in outcome.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for note in outcome.notes:
        print(note)
    fail_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"fail_frac = {fail_frac:.4f} ({outcome.failed}/{outcome.attempted})"
          + (f" mismatches: {outcome.mismatches}" if outcome.mismatches else ""))
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name in names:
        print(f"{name} = {outcome.metrics[name]:.6g} {UNITS[name]}")
    for name in names:
        if name in outcome.raw:
            print(f"raw {name} = {outcome.raw[name]:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": not outcome.mismatches,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": UNITS[name]}
            for name in names
        },
    }))
