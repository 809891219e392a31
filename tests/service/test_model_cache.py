"""Compiled-model cache: content hashing and lease semantics.

The content hash must be a pure function of diagram *content* — stable
across processes (no ``id()``/``hash()``/``repr`` leakage), insensitive
to block insertion order, sensitive to every parameter and to
function-call wiring order.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.blocks import TimerIntBlock
from repro.model import Model
from repro.model.block import Block
from repro.model.io import model_to_dict
from repro.model.library import Constant, FunctionCallSubsystem, Gain, Scope
from repro.service import ModelCache, model_content_hash

from .helpers import build_loop_model

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _chain(order: str) -> Model:
    m = Model("chain")
    blocks = {
        "src": Constant("src", value=2.5),
        "g": Gain("g", gain=3.0),
        "y": Scope("y"),
    }
    for name in order:
        m.add(blocks[{"s": "src", "g": "g", "y": "y"}[name]])
    m.connect("src", "g")
    m.connect("g", "y")
    return m


class TestContentHash:
    def test_stable_across_processes(self):
        """The pin the service cache depends on: a child interpreter with a
        different PYTHONHASHSEED must derive the identical digest."""
        parent = model_content_hash(build_loop_model(), dt=1e-3)
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "sys.path.insert(0, sys.argv[2]); "
            "from tests.service.helpers import build_loop_model; "
            "from repro.service import model_content_hash; "
            "print(model_content_hash(build_loop_model(), dt=1e-3))"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # perturb str hashing on purpose
        out = subprocess.run(
            [sys.executable, "-c", code, SRC,
             os.path.join(SRC, "..")],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == parent

    def test_servo_hash_stable_across_processes(self):
        from repro.casestudy import ServoConfig, build_servo_model

        sm = build_servo_model(ServoConfig(setpoint=100.0))
        parent = model_content_hash(sm.model, dt=1e-4)
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.casestudy import ServoConfig, build_servo_model; "
            "from repro.service import model_content_hash; "
            "sm = build_servo_model(ServoConfig(setpoint=100.0)); "
            "print(model_content_hash(sm.model, dt=1e-4))"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "999"
        out = subprocess.run(
            [sys.executable, "-c", code, SRC],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == parent

    def test_insensitive_to_block_insertion_order(self):
        assert model_content_hash(_chain("sgy")) == model_content_hash(_chain("ysg"))

    def test_sensitive_to_parameters(self):
        a = build_loop_model(gain=2.0)
        b = build_loop_model(gain=2.0000001)
        assert model_content_hash(a) != model_content_hash(b)

    def test_sensitive_to_dt_and_solver(self):
        m = build_loop_model()
        h = model_content_hash
        assert len({h(m), h(m, dt=1e-3), h(m, dt=1e-4), h(m, dt=1e-3, solver="euler")}) == 4

    def test_repeatable_within_process(self):
        m = build_loop_model()
        assert model_content_hash(m) == model_content_hash(m)

    def test_canonical_doc_sorts_data_but_keeps_event_order(self):
        def build(isr_order):
            m = Model("m")
            m.add(Gain("b", gain=1.0))
            m.add(Gain("a", gain=1.0))
            m.connect("b", "a")
            m.connect("a", "b")
            m.add(TimerIntBlock("t", period=1e-3))
            for isr in ("isr2", "isr1"):
                m.add(FunctionCallSubsystem(isr))
            for isr in isr_order:
                m.connect_event("t", isr)
            return m

        doc = model_to_dict(build(("isr2", "isr1")))
        assert [n["name"] for n in doc["blocks"]] == ["a", "b", "isr1", "isr2", "t"]
        assert doc["connections"] == [["a", 0, "b", 0], ["b", 0, "a", 0]]
        # function-call dispatch order is semantic: must NOT be sorted
        assert doc["events"] == [["t", 0, "isr2"], ["t", 0, "isr1"]]
        assert model_content_hash(build(("isr2", "isr1"))) != model_content_hash(
            build(("isr1", "isr2")))


class _Opaque(Block):
    """Unregistered block type — cannot be content-addressed."""

    n_in = 0
    n_out = 1

    def outputs(self, t, u, ctx):
        return [1.0]


class TestModelCache:
    def test_hit_miss_counters(self):
        cache = ModelCache(capacity=4)
        m = build_loop_model()
        with cache.lease(m, 1e-3) as (cm1, hit1):
            pass
        with cache.lease(m, 1e-3) as (cm2, hit2):
            pass
        assert (hit1, hit2) == (False, True)
        assert cm1 is cm2
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["hit_rate"] == 0.5

    def test_private_rebuild_not_aliased(self):
        """Cached blocks must not be the caller's block instances."""
        cache = ModelCache()
        m = build_loop_model()
        with cache.lease(m, 1e-3) as (cm, _):
            assert all(b is not m.blocks.get(q) for q, b in cm.nodes.items())

    def test_eviction_lru(self):
        cache = ModelCache(capacity=2)
        models = [build_loop_model(gain=g) for g in (1.0, 2.0, 3.0)]
        for m in models:
            with cache.lease(m, 1e-3):
                pass
        assert len(cache) == 2 and cache.stats()["evictions"] == 1
        with cache.lease(models[0], 1e-3) as (_, hit):  # evicted: rebuilt
            assert not hit

    def test_unserialisable_model_bypasses(self):
        cache = ModelCache()
        m = Model("opaque")
        m.add(_Opaque("x"))
        m.add(Scope("y"))
        m.connect("x", "y")
        with cache.lease(m, 1e-3) as (cm, hit):
            assert not hit and cm.n_signals > 0
        assert len(cache) == 0
        assert cache.stats()["bypasses"] == 1

    def test_a_conversion_model_is_cached(self):
        """A DataTypeConversion diagram has a document, so SimServe's
        second job on it is a cache hit, not a bypass."""
        from repro.service import MILRequest, SimServe

        from tests.model.test_kernels import LIBRARY, harness

        model = harness(LIBRARY["dtype_conversion"])()
        with SimServe(workers=1) as svc:
            records = [svc.submit(MILRequest(model=model, dt=1e-3, t_final=0.01))
                       .record(timeout=60.0) for _ in range(2)]
            stats = svc.cache.stats()
        assert [rec.cache_hit for rec in records] == [False, True]
        assert stats["bypasses"] == 0

    def test_lease_serializes_identical_models(self):
        """One compiled model must never run in two simulators at once."""
        cache = ModelCache()
        m = build_loop_model()
        active = 0
        overlap = []
        lock = threading.Lock()

        def use():
            nonlocal active
            with cache.lease(m, 1e-3):
                with lock:
                    active += 1
                    overlap.append(active)
                time.sleep(0.02)
                with lock:
                    active -= 1

        threads = [threading.Thread(target=use) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(overlap) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ModelCache(capacity=0)
