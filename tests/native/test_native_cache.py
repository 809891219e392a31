"""Single-flight compiles in the native artifact cache.

Within a process, one artifact is built by one ``cc`` invocation however
many simulators ask for it at once; the others wait for that build (or,
under ``native="reuse"``, go on without it).  A child forked while a
build is in flight starts with an empty in-flight table and fresh locks,
so it neither deadlocks on a lock nor waits for a build whose thread it
did not inherit.  A build still running when the interpreter exits is
abandoned: exit does not wait for it, and neither its ``cc``, the
passes that ``cc`` started, nor its temp file outlives the process; a
build that reaches ``cc`` only after exit began does not start it.
Builds of different artifacts run at most one ``cc`` per usable CPU at
a time.  A cache directory that cannot be created or written is a
compile error: the run falls back to Python, bit for bit.
"""

import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.model import Simulator, SimulationOptions
from repro.native import cache, find_cc, generate_tu, native_cache_stats

from tests.model.test_kernels import assert_identical, mixed_rate_model
from tests.native.conftest import require_cc, run_threads
from tests.native.test_native_lanes import POINTS, ensemble, fallback_count
from tests.native.test_native_params import servo_factory


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


class TestConcurrentBuilds:
    def test_slots_are_the_usable_cpus(self):
        assert cache.cc_slots() == len(os.sched_getaffinity(0))

    def test_cold_builds_never_overlap_beyond_the_slots(
            self, tmp_path, monkeypatch):
        require_cc()
        slots = cache.cc_slots()
        if slots > 4:  # keep the run small on a many-core host
            slots = 4
            monkeypatch.setattr(cache, "_cc_gate", threading.BoundedSemaphore(4))
        log = tmp_path / "cc.log"
        wrapper = tmp_path / "cc-wrapper"
        wrapper.write_text(
            "#!/bin/sh\n"
            f'[ "$1" = "--version" ] && exec {find_cc()} --version\n'
            f"echo start >> {log}\n"
            "sleep 0.3\n"  # long enough that unbounded builds would overlap
            f'{find_cc()} "$@"\n'
            "rc=$?\n"
            f"echo end >> {log}\n"
            "exit $rc\n"
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("REPRO_NATIVE_CC", str(wrapper))
        base = generate_tu(_sim(False))
        sources = [f"{base}/* variant {k} */\n" for k in range(2 * slots)]
        for source in sources:
            assert cache.reuse_compiled(source) is None
        assert cache.wait_pending(120)
        running = peak = 0
        for event in log.read_text().split():
            running += 1 if event == "start" else -1
            peak = max(peak, running)
        assert log.read_text().split().count("end") == len(sources)
        assert 1 <= peak <= slots
        for source in sources:
            path = cache.reuse_compiled(source)
            assert path is not None and os.path.exists(path)


def _servo(native):
    return Simulator(servo_factory(100.0, 6.0)().compile(1e-4),
                     SimulationOptions(dt=1e-4, t_final=0.01, native=native))


class TestUnusableCacheDir:
    """An unusable cache directory takes the ``compile_error`` rung."""

    @pytest.fixture
    def blocked(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        path = str(blocker / "cache")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", path)
        return path

    @pytest.mark.parametrize("mode", [True, "auto", "reuse"])
    def test_simulator_falls_back(self, blocked, mode):
        require_cc()
        ref = _servo(False).run()
        before = fallback_count("compile_error")
        sim = _servo(mode)
        res = sim.run()
        assert not sim.native_active
        reason = sim.native_fallback_reason
        assert reason.startswith("compile_error"), reason
        assert blocked in reason and f"Errno {errno.ENOTDIR}" in reason
        assert fallback_count("compile_error") == before + 1
        assert_identical(ref, res)

    def test_batch_simulator_falls_back(self, blocked):
        require_cc()
        ref = ensemble(POINTS[:2], native_mode=False, t_final=0.01).run()
        before = fallback_count("compile_error")
        sim = ensemble(POINTS[:2], native_mode=True, t_final=0.01)
        res = sim.run()
        assert not sim.native_active and sim.substrate == "numpy"
        assert sim.native_fallback_reason.startswith("compile_error")
        assert blocked in sim.native_fallback_reason
        assert fallback_count("compile_error") == before + 1
        assert_identical(ref, res)

    def test_failed_write_into_the_cache_falls_back(self, monkeypatch):
        require_cc()

        def denied(path, text):
            raise PermissionError(errno.EACCES, "Permission denied", path)

        monkeypatch.setattr(cache, "_atomic_write", denied)
        ref = _servo(False).run()
        sim = _servo(True)
        res = sim.run()
        assert not sim.native_active
        reason = sim.native_fallback_reason
        assert reason.startswith("compile_error"), reason
        assert f"Errno {errno.EACCES}" in reason
        assert_identical(ref, res)


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
import os, sys, time
sys.path.insert(0, sys.argv[1])
from repro.native import cache
with open(sys.argv[2]) as f:
    assert cache.reuse_compiled(f.read()) is None
deadline = time.monotonic() + 30
while not os.path.exists(sys.argv[3]) and time.monotonic() < deadline:
    time.sleep(0.01)
assert cache._procs, "the background build never started cc"
"""

#: starts a background build held back until exit has begun, then exits
_LATE_PROBE = """
import atexit, sys, threading
sys.path.insert(0, sys.argv[1])
hold = threading.Event()

def release_the_build():  # registered first, so it runs after the cache's
    hold.set()
    for t in threading.enumerate():
        if t.name.startswith("repro-native-cc-"):
            t.join(30)

atexit.register(release_the_build)
from repro.native import cache
real = cache._atomic_write
cache._atomic_write = lambda path, text: (hold.wait(30), real(path, text))
with open(sys.argv[2]) as f:
    assert cache.reuse_compiled(f.read()) is None
"""


def _exit_during_build(tmp_path, run, probe=_EXIT_PROBE):
    """Run ``probe`` in a child interpreter whose ``cc`` reports the real
    compiler's version and otherwise runs the shell line ``run`` (which
    starts a long pass and sets ``PID``), records ``$PID`` in a pid file
    and waits.  Return the pid file and the child's cache directory."""
    pidfile = tmp_path / "cc.pid"
    fake = tmp_path / "fake-cc"
    fake.write_text(
        "#!/bin/sh\n"
        f'[ "$1" = "--version" ] && exec {find_cc()} --version\n'
        f"{run}\n"
        f"echo $PID > {pidfile}.tmp && mv {pidfile}.tmp {pidfile}\n"
        "wait\n"
    )
    fake.chmod(0o755)
    tu = tmp_path / "tu.c"
    tu.write_text(generate_tu(_sim(False)))
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, REPRO_NATIVE_CC=str(fake),
               REPRO_NATIVE_CACHE=str(cache_dir))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", probe, SRC, str(tu), str(pidfile)],
        env=env, capture_output=True, text=True, timeout=50)
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 30, "exit waited for the build"
    return pidfile, cache_dir


def _assert_gone(pid):
    """``pid`` exits within 5 s (a pass dies on its own signal, after
    exit reaped ``cc``); a survivor is killed, then reported."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    raise AssertionError(f"process {pid} outlived the interpreter")


class TestExit:
    def test_exit_abandons_a_running_build(self, tmp_path):
        require_cc()
        pidfile, cache_dir = _exit_during_build(tmp_path,
                                                "sleep 60 & PID=$$")
        with pytest.raises(ProcessLookupError):
            os.kill(int(pidfile.read_text()), 0)  # cc killed and reaped
        assert not list(cache_dir.glob("*.tmp"))

    def test_exit_kills_the_passes_cc_started(self, tmp_path):
        """Killing ``cc`` alone would orphan its ``cc1``."""
        require_cc()
        pidfile, cache_dir = _exit_during_build(tmp_path,
                                                "sleep 60 & PID=$!")
        _assert_gone(int(pidfile.read_text()))
        assert not list(cache_dir.glob("*.tmp"))

    def test_no_cc_starts_once_exit_began(self, tmp_path):
        require_cc()
        pidfile, cache_dir = _exit_during_build(tmp_path,
                                                "sleep 60 & PID=$$",
                                                _LATE_PROBE)
        if pidfile.exists():
            _assert_gone(int(pidfile.read_text()))
        assert not pidfile.exists(), "a build started cc after exit began"
        assert not list(cache_dir.glob("*.tmp"))
