"""Shared fixtures for the native-path suite.

Every test in this package compiles into a session-scoped temporary
cache directory (never the user's ``~/.cache/repro-native``), and the
whole package auto-skips with a clear notice when the host has no C
toolchain — except the tests that exercise the fallback ladder itself,
which mark themselves independent of the compiler.
"""

import sys
import threading

import pytest


@pytest.fixture(autouse=True)
def _tmp_native_cache(tmp_path_factory, monkeypatch):
    cache = tmp_path_factory.mktemp("native-cache")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    # the suite controls the mode explicitly through SimulationOptions
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.delenv("REPRO_NATIVE_THRESHOLD", raising=False)
    yield cache


def require_cc():
    from repro.native import find_cc

    if find_cc() is None:
        pytest.skip(
            "no C compiler on PATH (cc/gcc/clang) — native path untestable "
            "here; the Python fallback legs still run"
        )


def run_threads(calls, timeout=120.0, switch_interval=1e-5):
    """Run ``calls`` (``(fn, *args)`` tuples) on one thread each, with a
    short interpreter switch interval so the threads interleave densely;
    re-raise the first error and fail on a thread that does not finish."""
    errors = []

    def guarded(fn, *args):
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        threads = [threading.Thread(target=guarded, args=c) for c in calls]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "a worker thread hung"
    if errors:
        raise errors[0]
