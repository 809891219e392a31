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
compile error: the run falls back to Python, bit for bit.  A corrupt
artifact (a truncated or foreign ``.so``, a missing sidecar, a sidecar
of another TU) is a miss: a fresh process builds it again and runs
native, bit for bit with ``REPRO_NATIVE=off``.  Across processes, one
key is compiled once: a second process waits for the first one's build
lock and binds its artifact, or, under ``reuse``, leaves the key to it;
a holder that dies releases the key.
"""

import errno
import fcntl
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np
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


#: runs the servo in a fresh interpreter (``argv``: src dir, output
#: ``.npz``, native mode) and prints what bound and what the cache counted;
#: under ``"auto"`` the first (short) run may be ``compile_pending``, so it
#: waits for the build and runs again
_SERVO_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from repro.casestudy import ServoConfig, build_servo_model
from repro.model import Simulator, SimulationOptions
from repro.native import native_cache_stats, wait_pending

mode = {"True": True, "auto": "auto"}[sys.argv[3]]
reasons = []
for _ in range(2):
    sim = Simulator(build_servo_model(ServoConfig(setpoint=100.0)).model,
                    SimulationOptions(dt=1e-4, t_final=0.02, native=mode))
    res = sim.run()
    reasons.append(sim.native_fallback_reason)
    if sim.native_active or mode is True:
        break
    assert wait_pending(120)
np.savez(sys.argv[2], t=res.t, signals=np.asarray(sim.signals), x=sim.x,
         **{"log:" + n: res[n] for n in res.names})
stats = native_cache_stats()
print(json.dumps({"native": sim.native_active, "reasons": reasons,
                  "misses": stats["misses"], "hits": stats["hits"]}))
"""


def _probe(cache_dir, out, mode="True", native_env=None):
    env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache_dir))
    env.pop("REPRO_NATIVE", None)
    if native_env:
        env["REPRO_NATIVE"] = native_env
    proc = subprocess.run([sys.executable, "-c", _SERVO_PROBE, SRC, str(out),
                           mode], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    with np.load(out) as saved:
        arrays = {k: saved[k].tobytes() for k in saved.files}
    return json.loads(proc.stdout.splitlines()[-1]), arrays


@pytest.fixture(scope="module")
def healthy_servo(tmp_path_factory):
    """A cache holding the servo's artifact, and the bytes of a
    ``REPRO_NATIVE=off`` run."""
    if find_cc() is None:
        pytest.skip("no C compiler on PATH (cc/gcc/clang)")
    root = tmp_path_factory.mktemp("corrupt")
    built, _ = _probe(root / "cache", root / "built.npz")
    assert built["native"] and built["misses"] == 1, built
    _, ref = _probe(root / "off-cache", root / "off.npz", native_env="off")
    return root / "cache", ref


def _third(so, meta):
    so.write_bytes(so.read_bytes()[: so.stat().st_size // 3])


def _four_fifths(so, meta):
    so.write_bytes(so.read_bytes()[: so.stat().st_size * 4 // 5])


def _empty(so, meta):
    so.write_bytes(b"")


def _foreign(so, meta):
    so.write_bytes(bytes((7 * i) % 251 for i in range(so.stat().st_size)))


def _no_sidecar(so, meta):
    meta.unlink()


def _other_tu(so, meta):
    doc = json.loads(meta.read_text())
    doc["tu_sha"] = "0" * 64
    meta.write_text(json.dumps(doc))


CORRUPTIONS = {f.__name__.lstrip("_"): f for f in (
    _third, _four_fifths, _empty, _foreign, _no_sidecar, _other_tu)}


class TestCorruptArtifact:
    """Each corruption in a fresh process: exit 0, one rebuild, native,
    and bit-equal to ``REPRO_NATIVE=off``."""

    def _corrupt(self, healthy, tmp_path, name):
        cache_dir = tmp_path / "cache"
        shutil.copytree(healthy, cache_dir)
        (so,) = cache_dir.glob("*.so")
        meta = so.with_suffix(".json")
        # replaced as a whole, as a crashed or foreign writer leaves it
        broken = tmp_path / "broken.so"
        shutil.copy(so, broken)
        CORRUPTIONS[name](broken, meta)
        os.replace(broken, so)
        return cache_dir, so

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_rebuilds_and_runs_native(self, healthy_servo, tmp_path, name):
        healthy, ref = healthy_servo
        cache_dir, so = self._corrupt(healthy, tmp_path, name)
        got, arrays = _probe(cache_dir, tmp_path / "run.npz")
        assert got["native"] and got["reasons"] == [None], got
        assert got["misses"] == 1 and got["hits"] == 0, got
        assert arrays == ref
        meta = json.loads(so.with_suffix(".json").read_text())
        assert meta["so_size"] == so.stat().st_size

    def test_reuse_reports_pending_then_binds_the_rebuild(
            self, healthy_servo, tmp_path):
        healthy, ref = healthy_servo
        cache_dir, _so = self._corrupt(healthy, tmp_path, "third")
        got, arrays = _probe(cache_dir, tmp_path / "run.npz", mode="auto")
        assert got["reasons"] == ["compile_pending", None], got
        assert got["native"] and got["misses"] == 1, got
        assert arrays == ref

    def test_a_healthy_artifact_is_a_hit(self, healthy_servo, tmp_path):
        healthy, ref = healthy_servo
        cache_dir = tmp_path / "cache"
        shutil.copytree(healthy, cache_dir)
        got, arrays = _probe(cache_dir, tmp_path / "run.npz")
        assert got["native"] and got["misses"] == 0 and got["hits"] == 1, got
        assert arrays == ref


def _logging_cc(tmp_path, delay):
    """A ``cc`` that reports the real compiler's version, and otherwise
    appends its arguments to a log, sleeps ``delay`` seconds and runs the
    real compiler: ``(compiler, log)``."""
    log = tmp_path / "cc.log"
    fake = tmp_path / "logging-cc"
    fake.write_text(
        "#!/bin/sh\n"
        f'[ "$1" = "--version" ] && exec {find_cc()} --version\n'
        f'echo "$*" >> {log}\n'
        f"sleep {delay}\n"
        f'exec {find_cc()} "$@"\n'
    )
    fake.chmod(0o755)
    return fake, log


class TestCrossProcess:
    """One ``cc`` per key across processes: a build holds an ``flock`` on
    the key's lock file; a process finding it held waits and binds the
    other's artifact as a hit, or, under ``reuse``, reports it pending
    and starts no ``cc``."""

    def test_two_processes_binding_one_cold_key_compile_once(self, tmp_path):
        require_cc()
        fake, log = _logging_cc(tmp_path, delay=1.5)
        cache_dir = tmp_path / "cache"
        env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache_dir),
                   REPRO_NATIVE_CC=str(fake))
        env.pop("REPRO_NATIVE", None)
        procs = [subprocess.Popen(
            [sys.executable, "-c", _SERVO_PROBE, SRC,
             str(tmp_path / f"run{i}.npz"), "True"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for i in range(2)]
        outs = [p.communicate(timeout=300) for p in procs]
        assert all(p.returncode == 0 for p in procs), [e[-2000:] for _o, e in outs]
        got = [json.loads(o.splitlines()[-1]) for o, _e in outs]
        compiles = [ln for ln in log.read_text().splitlines() if " -o " in ln]
        assert len(compiles) == 1, compiles
        assert all(g["native"] and g["reasons"] == [None] for g in got), got
        assert sorted((g["misses"], g["hits"]) for g in got) == [(0, 1), (1, 0)]
        _, ref = _probe(tmp_path / "off-cache", tmp_path / "off.npz",
                        native_env="off")
        for i in range(2):
            with np.load(tmp_path / f"run{i}.npz") as saved:
                assert {k: saved[k].tobytes() for k in saved.files} == ref

    def test_reuse_leaves_a_locked_key_to_its_holder(self, monkeypatch):
        """A lock held elsewhere (a second open file description of the
        lock file, as another process holds it): pending, and no ``cc``
        until it is released."""
        require_cc()
        calls = _count_cc(monkeypatch)
        source = generate_tu(_sim(False))
        held = os.open(cache._Artifact(source).lock_path,
                       os.O_RDWR | os.O_CREAT)
        try:
            fcntl.flock(held, fcntl.LOCK_EX)
            for _ in range(2):
                assert cache.reuse_compiled(source) is None
                assert cache.wait_pending(60)
            assert calls == []
        finally:
            os.close(held)
        assert cache.reuse_compiled(source) is None
        assert cache.wait_pending(60)
        assert len(calls) == 1
        assert cache.reuse_compiled(source) is not None

    def test_a_dead_holder_releases_the_key(self, tmp_path):
        """The holder is killed mid-build: the lock dies with it, and a
        waiting process compiles the key itself."""
        require_cc()
        source = generate_tu(_sim(False))
        lock_path = cache._Artifact(source).lock_path
        with subprocess.Popen(
                [sys.executable, "-c",
                 "import fcntl, os, sys, time\n"
                 "fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)\n"
                 "fcntl.flock(fd, fcntl.LOCK_EX)\n"
                 "print('held', flush=True)\n"
                 "time.sleep(60)\n", lock_path],
                stdout=subprocess.PIPE, text=True) as holder:
            try:
                assert holder.stdout.readline().strip() == "held"
                threading.Timer(0.5, holder.kill).start()
                before = native_cache_stats()
                path = cache.ensure_compiled(source)
            finally:
                holder.kill()
        assert os.path.exists(path)
        assert native_cache_stats()["misses"] == before["misses"] + 1
