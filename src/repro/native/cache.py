"""Toolchain discovery and the on-disk compile cache.

Artifacts are keyed by ``sha256(TU sha | compiler fingerprint)``; the
fingerprint carries the compiler version, the host architecture, the
template version and :data:`CFLAGS`, so artifacts never cross a
toolchain, emitter or flags change.  The TU text is the whole of what
the artifact computes: block parameters travel in the context (``P``,
see :mod:`repro.native.emit`), so the TU sha already is the model's
structural identity, and every design point of one diagram shares one
artifact.  SimServe warm jobs, new design points and process-pool
children therefore ``dlopen`` an existing ``.so`` instead of
recompiling.  The lookup hashes each
distinct TU text once per process and creates each cache directory once
per path; every bind still checks that the ``.so`` exists (the first
one in a process checks its bytes too, see below).  The text
itself is regenerated in-process (cheap, deterministic) for every new
compiled model, and kept across runs by one that memoizes its lowering
(SimServe's cached models, see ``CompiledModel.lowering_memo``), so a
warm SimServe job renders and hashes nothing.

Layout under the cache dir (``$REPRO_NATIVE_CACHE`` or
``~/.cache/repro-native``): ``<key>.c``, ``<key>.so``, ``<key>.json``
(the sidecar: the ``.so``'s size and SHA-256, the TU sha, fingerprint
and template version it was built from, and its compile time) and
``<key>.lock`` (the build lock, below).  Writes
go through a temp file + ``os.replace``, the sidecar before the ``.so``,
so concurrent processes never observe a half-written artifact.  The
first bind of a path in a process checks the ``.so`` against its
sidecar before anything maps it (a path this process built counts as
checked): a truncated or foreign ``.so``, or one without a sidecar that
names its key, is a miss and is built again, since the loader would map
whatever bytes it finds (a truncated ``.so`` faults the process with
SIGBUS).  A cache directory that cannot be created or written raises
:class:`ToolchainError`, like a failed compile; a build re-creates a
directory removed since its first use.

Builds are single-flight per key within a process: the first caller
runs ``cc``, later callers wait for it (:func:`ensure_compiled`) or
return at once (:func:`reuse_compiled`, which starts the build on a
background thread).  Across processes a build holds an ``flock`` on
``<key>.lock``, which the OS drops if its holder dies: a process that
finds the lock held waits for it, checks the cache again and binds the
other process's artifact as a hit (:func:`ensure_compiled`), or leaves
the key to that process and reports it pending (:func:`reuse_compiled`),
so one ``cc`` serves every process binding a cold key.  At most one
``cc`` per CPU this process may use runs at a time; further builds queue
for a slot.  A forked child starts with an empty in-flight table and
free slots, and builds a key its parent was building without waiting
for the parent's lock, which it shares; a build still running when the
interpreter exits is abandoned (its ``cc`` is killed; the next process
starts it again).
"""

from __future__ import annotations

import atexit
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import tempfile
import threading
from time import perf_counter
from typing import Optional

from .emit import TEMPLATE_VERSION


class ToolchainError(Exception):
    """No usable C compiler, the compile itself failed, or the cache
    directory cannot be created, read or written."""


#: flags that pin IEEE-754 semantics: no fast-math value substitution,
#: no FMA contraction (contraction would change the association order
#: the Python reference performs).  ``-O1``, not ``-O2``: the step loop
#: is scalar, ``-O2``'s SLP vectorizer slows it, and ``cc`` runs faster.
#: Part of the fingerprint, so a flags change never serves an artifact
#: built under the old flags.
CFLAGS = ["-O1", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]

_lock = threading.Lock()
#: ``(path,)`` once discovery ran (path ``None``: no usable compiler)
_discovered: Optional[tuple] = None
#: resolved compiler path -> its fingerprint (``None``: no version)
_fingerprints: dict[str, Optional[str]] = {}


def find_cc() -> Optional[str]:
    """The C compiler to use, or ``None`` when the host has no
    toolchain.  ``$REPRO_NATIVE_CC`` overrides discovery."""
    global _discovered
    override = os.environ.get("REPRO_NATIVE_CC")
    if override:
        return shutil.which(override)  # the env var may change between calls
    with _lock:
        if _discovered is not None:
            return _discovered[0]
    path = None
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            break
    usable = path if path and compiler_fingerprint(path) else None
    with _lock:
        _discovered = (usable,)
    return usable


def _probe_fingerprint(cc: str) -> Optional[str]:
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        first = (out.stdout or out.stderr).splitlines()[0].strip()
    except Exception:
        return None
    return (f"{first}|{platform.machine()}|v{TEMPLATE_VERSION}"
            f"|{' '.join(CFLAGS)}")


def compiler_fingerprint(cc: Optional[str] = None) -> Optional[str]:
    """Version/arch/template/flags string folded into the cache key,
    probed once per resolved compiler path."""
    cc = cc or find_cc()
    if cc is None:
        return None
    with _lock:
        if cc in _fingerprints:
            return _fingerprints[cc]
    fp = _probe_fingerprint(cc)
    with _lock:
        _fingerprints[cc] = fp
    return fp


#: cache directories created (or found) in this process
_made_dirs: set[str] = set()


def cache_dir() -> str:
    """The cache directory, created on its first use in this process."""
    d = os.environ.get("REPRO_NATIVE_CACHE")
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "repro-native")
    if d not in _made_dirs:
        _make_dir(d)
        _made_dirs.add(d)
    return d


def _make_dir(d: str) -> None:
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise ToolchainError(f"native cache directory unusable: {exc}") from exc


#: TU text -> its sha256, so each distinct TU is hashed once per process
#: however often it binds (emptied when it reaches :data:`_TU_SHAS_MAX`).
#: No lock: threads racing on one text store the same digest.
_tu_shas: dict[str, str] = {}
_TU_SHAS_MAX = 256


def _tu_sha(source: str) -> str:
    sha = _tu_shas.get(source)
    if sha is None:
        sha = _tu_digest(source)
        if len(_tu_shas) >= _TU_SHAS_MAX:
            _tu_shas.clear()
        _tu_shas[source] = sha
    return sha


def _tu_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def artifact_key(tu_sha: str, fingerprint: str) -> str:
    text = f"{tu_sha}|{fingerprint}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:40]


# ---------------------------------------------------------------------------
# stats (process-global, mirrored into the obs registry)
# ---------------------------------------------------------------------------
_stats_lock = threading.Lock()
_stats = {"hits": 0, "misses": 0, "compile_s_total": 0.0, "errors": 0}


def _count(kind: str, compile_s: float = 0.0) -> None:
    from repro.obs.metrics import get_registry

    with _stats_lock:
        if kind in ("hits", "misses", "errors"):
            _stats[kind] += 1
        _stats["compile_s_total"] += compile_s
    reg = get_registry()
    if kind == "hits":
        reg.counter("native_cache_hits_total",
                    "native compile cache hits (dlopen only)").inc()
    elif kind == "misses":
        reg.counter("native_cache_misses_total",
                    "native compile cache misses (cc invoked)").inc()
    elif kind == "errors":
        reg.counter("native_compile_errors_total",
                    "native compile failures").inc()
    if compile_s:
        reg.counter("native_compile_seconds_total",
                    "wall time spent in the C compiler").inc(compile_s)


def native_cache_stats() -> dict:
    """Snapshot of hit/miss/compile-time counters plus cache contents."""
    with _stats_lock:
        snap = dict(_stats)
    try:
        d = cache_dir()
        sos = [f for f in os.listdir(d) if f.endswith(".so")]
        snap["artifacts"] = len(sos)
        snap["bytes"] = sum(
            os.path.getsize(os.path.join(d, f)) for f in sos
        )
    except (OSError, ToolchainError):
        snap["artifacts"] = 0
        snap["bytes"] = 0
    snap["toolchain"] = find_cc() or ""
    return snap


# ---------------------------------------------------------------------------
# compile: single-flight per artifact key
# ---------------------------------------------------------------------------
class _Build:
    """One in-progress compile; followers wait on ``done``."""

    __slots__ = ("done", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.error: Optional[str] = None


_builds_lock = threading.Lock()
#: artifact ``.so`` path -> the build running in this process
_inflight: dict[str, _Build] = {}
#: artifact ``.so`` path -> why its build failed (so ``reuse`` does not
#: retry a broken compile for every simulator)
_failed: dict[str, str] = {}
#: running ``cc`` processes -> their temp output, killed at exit
_procs: dict = {}
#: set at interpreter exit: from then on no build starts ``cc``
_exiting = False
#: artifact ``.so`` path -> the descriptor of its lock file, while this
#: process builds it
_locked: dict[str, int] = {}
#: in a forked child, the paths its parent was building at the fork: the
#: child builds them without the lock its parent holds (see
#: :func:`_reset_after_fork`)
_forked_during: set[str] = set()


def cc_slots() -> int:
    """The CPUs this process may use: how many ``cc`` may run at once,
    and how many groups an ensemble's native lanes step in
    (:class:`repro.native.executor.LaneGroups`)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # no affinity API on this platform
        return max(1, os.cpu_count() or 1)


#: one slot per concurrently running ``cc`` (see :func:`cc_slots`)
_cc_gate = threading.BoundedSemaphore(cc_slots())


def _reset_after_fork() -> None:
    """A forked child inherits the in-flight table but not the threads
    building its entries (nor the release of a lock or slot one of them
    held): start the child with fresh locks, free slots and nothing in
    flight.  It also inherits the descriptors of the key locks those
    builds hold, which share the parent's lock: the child closes its
    copies (the lock stays the parent's, and dies with it) and builds
    those keys on its own, as it would have without the lock."""
    global _lock, _stats_lock, _builds_lock, _inflight, _procs, _cc_gate
    global _locked
    _lock = threading.Lock()
    _stats_lock = threading.Lock()
    _builds_lock = threading.Lock()
    _inflight = {}
    _procs = {}
    _cc_gate = threading.BoundedSemaphore(cc_slots())
    for path, fd in _locked.items():
        _forked_during.add(path)
        try:
            os.close(fd)
        except OSError:
            pass  # closed by the parent's thread as the fork happened
    _locked = {}


os.register_at_fork(after_in_child=_reset_after_fork)


@atexit.register
def _abandon_builds() -> None:
    global _exiting
    with _builds_lock:
        _exiting = True
        procs = list(_procs.items())
    for proc, tmp_so in procs:
        try:
            # the whole group: ``cc`` (which removes its temp files on
            # SIGTERM) and the ``cc1``/``as`` passes it started
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass  # already gone, or stuck: nothing more to do at exit
        if os.path.exists(tmp_so):
            os.unlink(tmp_so)


class _Artifact:
    """Where the artifact for one TU lives and how to build it."""

    def __init__(self, source: str):
        cc = find_cc()
        if cc is None:
            raise ToolchainError("no C compiler on PATH (cc/gcc/clang)")
        fp = compiler_fingerprint(cc)
        if fp is None:
            raise ToolchainError(f"compiler '{cc}' did not report a version")
        self.cc = cc
        self.fingerprint = fp
        self.source = source
        self.tu_sha = _tu_sha(source)
        self.key = artifact_key(self.tu_sha, fp)
        self.dir = cache_dir()
        self.so_path = os.path.join(self.dir, f"{self.key}.so")
        self.meta_path = os.path.join(self.dir, f"{self.key}.json")
        self.lock_path = os.path.join(self.dir, f"{self.key}.lock")

    def identity(self, so_file: str) -> dict:
        """What the sidecar says of the artifact in ``so_file``."""
        with open(so_file, "rb") as f:
            data = f.read()
        return {"tu_sha": self.tu_sha, "fingerprint": self.fingerprint,
                "template": TEMPLATE_VERSION, "so_size": len(data),
                "so_sha256": hashlib.sha256(data).hexdigest()}


#: artifact ``.so`` paths this process checked against their sidecar, or
#: built itself
_checked: set[str] = set()


def _built(art: _Artifact) -> bool:
    """Whether the cache holds ``art``'s ``.so``: on the path's first
    bind in this process, whether the file is the one its sidecar
    describes; later, whether it still exists."""
    path = art.so_path
    if path in _checked:
        return os.path.exists(path)
    try:
        with open(art.meta_path) as f:
            meta = json.load(f)
        ok = (isinstance(meta, dict) and all(
            meta.get(k) == v for k, v in art.identity(path).items()))
    except (OSError, ValueError):  # no sidecar or no .so, or unreadable
        return False
    if ok:
        _checked.add(path)
    return ok


def _claim(art: _Artifact) -> tuple[Optional[_Build], bool]:
    """``(build, leader)``; ``(None, False)`` when the artifact is built."""
    with _builds_lock:
        build = _inflight.get(art.so_path)
        if build is not None:
            return build, False
        if _built(art):
            return None, False
        build = _inflight[art.so_path] = _Build()
        _failed.pop(art.so_path, None)
        return build, True


def _lock_key(art: _Artifact, wait: bool) -> Optional[int]:
    """Take the cross-process build lock of ``art``'s key: the descriptor
    holding an ``flock`` on ``<key>.lock``, or ``None`` when another
    process holds it and ``wait`` is false (with ``wait``, block until
    the holder releases it or dies)."""
    fd = os.open(art.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if wait
                    else fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        return None
    except BaseException:
        os.close(fd)
        raise
    _locked[art.so_path] = fd
    return fd


def _unlock_key(art: _Artifact, fd: int) -> None:
    """Release the lock :func:`_lock_key` took (an explicit unlock: a
    child forked meanwhile holds a copy of the descriptor)."""
    _locked.pop(art.so_path, None)
    try:
        fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def _run_cc(argv: list, tmp_so: str) -> tuple[int, str]:
    # a free slot first (waited for outside the build lock); then started
    # and registered under the lock that exit takes, so every ``cc``
    # either is killed at exit or never starts; in its own process
    # group, so that kill reaches the passes ``cc`` started
    with _cc_gate:
        with _builds_lock:
            if _exiting:
                raise ToolchainError("interpreter exiting; build abandoned")
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True,
                                    start_new_session=True)
            _procs[proc] = tmp_so
        try:
            try:
                out, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                out, err = proc.communicate()
        finally:
            with _builds_lock:
                _procs.pop(proc, None)
    return proc.returncode, err or out


def _build(art: _Artifact, build: _Build, wait: bool = True) -> None:
    """The leader's compile, under the key's cross-process lock; always
    releases the followers.  When another process holds the lock, the
    leader waits for it and binds that process's artifact as a hit, or,
    without ``wait``, leaves the key to it (nothing built, no error)."""
    lock = None
    try:
        _make_dir(art.dir)  # removed since this process first made it
        if art.so_path not in _forked_during:
            lock = _lock_key(art, wait)
            if lock is None:
                return  # another process builds it: a later bind finds it
            if _built(art):
                _count("hits")  # built by the process that held the lock
                return
        _count("misses")
        c_path = os.path.join(art.dir, f"{art.key}.c")
        _atomic_write(c_path, art.source)
        t0 = perf_counter()
        fd, tmp_so = tempfile.mkstemp(suffix=".so.tmp", dir=art.dir)
        os.close(fd)
        try:
            rc, out = _run_cc([art.cc, *CFLAGS, "-o", tmp_so, c_path, "-lm"],
                              tmp_so)
            if rc != 0:
                _count("errors")
                raise ToolchainError(f"cc failed ({rc}): {out.strip()[-2000:]}")
            compile_s = perf_counter() - t0
            meta = dict(art.identity(tmp_so), compile_s=compile_s)
            _atomic_write(art.meta_path,
                          json.dumps(meta, indent=2, sort_keys=True))
            os.replace(tmp_so, art.so_path)
            _checked.add(art.so_path)
        finally:
            if os.path.exists(tmp_so):
                os.unlink(tmp_so)
        _count("", compile_s=compile_s)
    except OSError as exc:  # cache-directory I/O (or starting cc) failed
        build.error = str(exc)
        raise ToolchainError(build.error) from exc
    except BaseException as exc:
        build.error = str(exc) or type(exc).__name__
        raise
    finally:
        if lock is not None:
            _unlock_key(art, lock)
        with _builds_lock:
            if build.error is not None:
                _failed[art.so_path] = build.error
            _inflight.pop(art.so_path, None)
        build.done.set()


def ensure_compiled(source: str) -> str:
    """Return the path of the compiled ``.so`` for ``source``, compiling
    at most once per (TU, toolchain) across processes and threads —
    concurrent callers for one key wait for the first one's ``cc``."""
    art = _Artifact(source)
    while True:
        build, leader = _claim(art)
        if build is None:
            _count("hits")
            return art.so_path
        if leader:
            _build(art, build)
            return art.so_path
        build.done.wait()
        if build.error is not None:
            raise ToolchainError(build.error)
        # claim again: the build is found built (a hit), or, when a
        # background leader left the key to another process, this caller
        # leads and waits for that process's lock


def reuse_compiled(source: str) -> Optional[str]:
    """The ``.so`` for ``source`` if it is already built, else ``None``
    — after making sure a background build of it is running.  Never
    waits for ``cc``.  Raises :class:`ToolchainError` when there is no
    toolchain, or when this process already failed to build the key."""
    art = _Artifact(source)
    if _built(art):
        _count("hits")
        return art.so_path
    with _builds_lock:
        error = _failed.get(art.so_path)
        if error is not None and art.so_path not in _inflight:
            raise ToolchainError(error)
    build, leader = _claim(art)
    if build is None:
        _count("hits")
        return art.so_path
    if leader:
        threading.Thread(
            target=_build_quietly, args=(art, build), daemon=True,
            name=f"repro-native-cc-{art.key[:8]}",
        ).start()
    return None


def _build_quietly(art: _Artifact, build: _Build) -> None:
    try:
        _build(art, build, wait=False)
    except ToolchainError:
        pass  # recorded in ``_failed``; the next bind reports it


def wait_pending(timeout: Optional[float] = None) -> bool:
    """Block until every build in flight in this process has finished
    (or ``timeout`` seconds passed); ``True`` when none is left."""
    deadline = None if timeout is None else perf_counter() + timeout
    while True:
        with _builds_lock:
            builds = list(_inflight.values())
        if not builds:
            return True
        left = None if deadline is None else deadline - perf_counter()
        if left is not None and left <= 0:
            return False
        builds[0].done.wait(left)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
