"""Single-flight compiles in the native artifact cache.

Within a process, one artifact is built by one ``cc`` invocation however
many simulators ask for it at once; the others wait for that build (or,
under ``native="reuse"``, go on without it).  A child forked while a
build is in flight starts with an empty in-flight table and fresh locks,
so it neither deadlocks on a lock nor waits for a build whose thread it
did not inherit.  A build still running when the interpreter exits is
abandoned: exit does not wait for it, and neither its ``cc`` nor its
temp file outlives the process.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.model import Simulator, SimulationOptions
from repro.native import cache, find_cc, generate_tu, native_cache_stats

from tests.model.test_kernels import mixed_rate_model
from tests.native.conftest import require_cc, run_threads


def _sim(native):
    return Simulator(
        mixed_rate_model().compile(1e-3),
        SimulationOptions(dt=1e-3, t_final=0.05, native=native),
    )


def _count_cc(monkeypatch, gate=None):
    """Record every ``cc`` run; with ``gate``, this process's runs wait
    for it first (a forked child's runs go straight through)."""
    calls = []
    real = cache._run_cc
    owner = os.getpid()

    def run_cc(argv, tmp_so):
        calls.append(argv)
        if gate is not None and os.getpid() == owner:
            gate.wait(60)
        return real(argv, tmp_so)

    monkeypatch.setattr(cache, "_run_cc", run_cc)
    return calls


class TestSingleFlight:
    def test_threads_binding_one_cold_model_run_cc_once(self, monkeypatch):
        require_cc()
        generate_tu(_sim(False))  # template registry warm before the race
        calls = _count_cc(monkeypatch)
        n = 4  # more threads than the reference host's cores
        sims = [_sim(True) for _ in range(n)]
        barrier = threading.Barrier(n)

        def bind(sim):
            barrier.wait(60)
            sim.initialize()

        before = native_cache_stats()
        run_threads([(bind, s) for s in sims])
        after = native_cache_stats()
        assert len(calls) == 1
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == n - 1
        assert all(s.native_active for s in sims), [
            s.native_fallback_reason for s in sims
        ]

    def test_reuse_never_waits_and_starts_one_build(self, monkeypatch):
        require_cc()
        gate = threading.Event()
        calls = _count_cc(monkeypatch, gate)
        source = generate_tu(_sim(False))
        try:
            assert cache.reuse_compiled(source) is None
            assert cache.reuse_compiled(source) is None
        finally:
            gate.set()
        assert cache.wait_pending(60)
        assert len(calls) == 1
        path = cache.reuse_compiled(source)
        assert path is not None and os.path.exists(path)

    def test_failed_background_build_is_reported_not_rerun(
            self, tmp_path, monkeypatch):
        require_cc()
        broken = tmp_path / "broken-cc"
        broken.write_text(
            "#!/bin/sh\n"
            f'[ "$1" = "--version" ] && exec {find_cc()} --version\n'
            "exit 1\n"
        )
        broken.chmod(0o755)
        monkeypatch.setenv("REPRO_NATIVE_CC", str(broken))
        calls = _count_cc(monkeypatch)
        first, *later = [_sim("reuse") for _ in range(3)]
        first.initialize()
        assert first.native_fallback_reason == "compile_pending"
        assert cache.wait_pending(60)
        for sim in later:
            sim.initialize()
            assert not sim.native_active
            assert sim.native_fallback_reason.startswith("compile_error")
        assert len(calls) == 1


class TestFingerprint:
    def test_override_probes_the_compiler_once(self, tmp_path, monkeypatch):
        """``$REPRO_NATIVE_CC`` may change between calls, so the override
        is resolved per bind — but its fingerprint is probed once per
        resolved path, not on every cache hit."""
        require_cc()
        log = tmp_path / "probes.log"
        wrapper = tmp_path / "cc-wrapper"
        wrapper.write_text(
            "#!/bin/sh\n"
            f'[ "$1" = "--version" ] && echo probe >> {log}\n'
            f'exec {find_cc()} "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("REPRO_NATIVE_CC", str(wrapper))
        n = 4
        for _ in range(n):
            sim = _sim(True)
            sim.initialize()
            assert sim.native_active, sim.native_fallback_reason
        assert log.read_text().splitlines() == ["probe"]


def _child_builds(source):
    path = cache.ensure_compiled(source)
    os._exit(0 if os.path.exists(path) else 3)


class TestFork:
    def test_child_forked_during_a_build_compiles_on_its_own(self, monkeypatch):
        require_cc()
        gate = threading.Event()
        calls = _count_cc(monkeypatch, gate)
        source = generate_tu(_sim(False))
        leader = threading.Thread(target=cache.ensure_compiled,
                                  args=(source,))
        leader.start()
        try:
            deadline = time.monotonic() + 30
            while not calls and time.monotonic() < deadline:
                time.sleep(0.005)
            assert calls, "the leader never started cc"
            ctx = multiprocessing.get_context("fork")
            # fork with the build in flight *and* its table lock held
            with cache._builds_lock:
                child = ctx.Process(target=_child_builds, args=(source,))
                child.start()
            child.join(60)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
        finally:
            gate.set()
            leader.join(60)
        assert not leader.is_alive()
        assert not hung, "forked child deadlocked or waited on the parent's build"
        assert child.exitcode == 0


SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: starts a background build, waits until its cc runs, then exits
_EXIT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.native import cache
with open(sys.argv[2]) as f:
    assert cache.reuse_compiled(f.read()) is None
deadline = time.monotonic() + 30
while not cache._procs and time.monotonic() < deadline:
    time.sleep(0.01)
assert cache._procs, "the background build never started cc"
"""


class TestExit:
    def test_exit_abandons_a_running_build(self, tmp_path):
        require_cc()
        pidfile = tmp_path / "cc.pid"
        slow = tmp_path / "slow-cc"
        slow.write_text(
            "#!/bin/sh\n"
            f'[ "$1" = "--version" ] && exec {find_cc()} --version\n'
            f"echo $$ > {pidfile}\n"
            "exec sleep 60\n"
        )
        slow.chmod(0o755)
        tu = tmp_path / "tu.c"
        tu.write_text(generate_tu(_sim(False)))
        cache_dir = tmp_path / "cache"
        env = dict(os.environ, REPRO_NATIVE_CC=str(slow),
                   REPRO_NATIVE_CACHE=str(cache_dir))
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, SRC, str(tu)],
                              env=env, capture_output=True, text=True,
                              timeout=50)
        assert proc.returncode == 0, proc.stderr
        assert time.monotonic() - t0 < 30, "exit waited for the build"
        with pytest.raises(ProcessLookupError):
            os.kill(int(pidfile.read_text()), 0)  # cc killed and reaped
        assert not list(cache_dir.glob("*.tmp"))
