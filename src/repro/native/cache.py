"""Toolchain discovery and the on-disk compile cache.

Artifacts are keyed by ``sha256(TU sha | compiler fingerprint)``; the
fingerprint carries the compiler version, the host architecture and the
template version, so artifacts never cross a toolchain or emitter
change.  The TU text is the whole of what the artifact computes: block
parameters travel in the context (``P``, see :mod:`repro.native.emit`),
so the TU sha already is the model's structural identity, and every
design point of one diagram shares one artifact.  SimServe warm jobs,
new design points and process-pool children therefore ``dlopen`` an
existing ``.so`` instead of recompiling: the TU is still regenerated
in-process (cheap, deterministic) and only the compile step is skipped.

Layout under the cache dir (``$REPRO_NATIVE_CACHE`` or
``~/.cache/repro-native``): ``<key>.c``, ``<key>.so``, ``<key>.json``
(stats sidecar).  Writes go through a temp file + ``os.replace`` so
concurrent processes never observe a half-written artifact.

Builds are single-flight per key within a process: the first caller
runs ``cc``, later callers wait for it (:func:`ensure_compiled`) or
return at once (:func:`reuse_compiled`, which starts the build on a
background thread).  A forked child starts with an empty in-flight
table, and a build still running when the interpreter exits is
abandoned (its ``cc`` is killed; the next process starts it again).
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from time import perf_counter
from typing import Optional

from .emit import TEMPLATE_VERSION


class ToolchainError(Exception):
    """No usable C compiler, or the compile itself failed."""


#: flags that pin IEEE-754 semantics: no fast-math value substitution,
#: no FMA contraction (contraction would change the association order
#: the Python reference performs)
CFLAGS = ["-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]

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
    return f"{first}|{platform.machine()}|v{TEMPLATE_VERSION}"


def compiler_fingerprint(cc: Optional[str] = None) -> Optional[str]:
    """Version/arch/template string folded into the cache key, probed
    once per resolved compiler path."""
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


def cache_dir() -> str:
    d = os.environ.get("REPRO_NATIVE_CACHE")
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "repro-native")
    os.makedirs(d, exist_ok=True)
    return d


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
    except OSError:
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


def _reset_after_fork() -> None:
    """A forked child inherits the in-flight table but not the threads
    building its entries (nor the release of a lock one of them held):
    start the child with fresh locks and nothing in flight."""
    global _lock, _stats_lock, _builds_lock, _inflight, _procs
    _lock = threading.Lock()
    _stats_lock = threading.Lock()
    _builds_lock = threading.Lock()
    _inflight = {}
    _procs = {}


os.register_at_fork(after_in_child=_reset_after_fork)


@atexit.register
def _abandon_builds() -> None:
    with _builds_lock:
        procs = list(_procs.items())
    for proc, tmp_so in procs:
        try:
            proc.kill()
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
        self.tu_sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
        self.key = artifact_key(self.tu_sha, fp)
        self.dir = cache_dir()
        self.so_path = os.path.join(self.dir, f"{self.key}.so")


def _claim(art: _Artifact) -> tuple[Optional[_Build], bool]:
    """``(build, leader)``; ``(None, False)`` when the artifact exists."""
    with _builds_lock:
        build = _inflight.get(art.so_path)
        if build is not None:
            return build, False
        if os.path.exists(art.so_path):
            return None, False
        build = _inflight[art.so_path] = _Build()
        _failed.pop(art.so_path, None)
        return build, True


def _run_cc(argv: list, tmp_so: str) -> tuple[int, str]:
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    with _builds_lock:
        _procs[proc] = tmp_so
    try:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    finally:
        with _builds_lock:
            _procs.pop(proc, None)
    return proc.returncode, err or out


def _build(art: _Artifact, build: _Build) -> None:
    """The leader's compile; always releases the followers."""
    try:
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
            os.replace(tmp_so, art.so_path)
        finally:
            if os.path.exists(tmp_so):
                os.unlink(tmp_so)
        compile_s = perf_counter() - t0
        _count("", compile_s=compile_s)
        _atomic_write(os.path.join(art.dir, f"{art.key}.json"), json.dumps({
            "tu_sha": art.tu_sha,
            "fingerprint": art.fingerprint,
            "compile_s": compile_s,
            "template": TEMPLATE_VERSION,
        }, indent=2, sort_keys=True))
    except BaseException as exc:
        build.error = str(exc) or type(exc).__name__
        raise
    finally:
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
    build, leader = _claim(art)
    if build is None:
        _count("hits")
    elif leader:
        _build(art, build)
    else:
        build.done.wait()
        if build.error is not None:
            raise ToolchainError(build.error)
        _count("hits")
    return art.so_path


def reuse_compiled(source: str) -> Optional[str]:
    """The ``.so`` for ``source`` if it is already built, else ``None``
    — after making sure a background build of it is running.  Never
    waits for ``cc``.  Raises :class:`ToolchainError` when there is no
    toolchain, or when this process already failed to build the key."""
    art = _Artifact(source)
    if os.path.exists(art.so_path):
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
        _build(art, build)
    except (ToolchainError, OSError):
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
