"""Suite-wide fixtures.

PIL plants bind native artifacts (``SimulationOptions(native="reuse")``)
and MIL runs above the auto threshold compile them, so any test may
write into the native compile cache.  The session points that cache at
a temporary directory: the suite never reads or fills the user's
``~/.cache/repro-native``.  (``tests/native`` narrows it further to one
directory per test.)
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _session_native_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("native-cache-session")
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(cache)
    yield cache
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old
