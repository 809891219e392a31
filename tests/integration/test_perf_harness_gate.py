"""``benchmarks/perf_harness.py --check`` is a gate: without a baseline to
compare against it fails at once, measures nothing and writes nothing."""

import importlib.util
import time
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[2] / "benchmarks" / "perf_harness.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("perf_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_without_a_baseline_fails_and_writes_nothing(tmp_path, capsys):
    harness = load_harness()
    missing = tmp_path / "none" / "BENCH_substrates.json"
    t0 = time.perf_counter()
    status = harness.main(["--check", "--out", str(missing)])
    assert status == 2
    assert time.perf_counter() - t0 < 1.0  # no bench ran
    assert not missing.exists() and not missing.parent.exists()
    assert "no baseline" in capsys.readouterr().err
