"""Compiled-model cache: the "load once, serve many" half of SimServe.

``CompiledModel.build`` — flattening, validation, topological sort,
allocation — dominates the end-to-end latency of short
simulation jobs, and the PEERT workflow resubmits the *same* diagram over
and over (every MIL validation pass, every cell of a fault campaign,
every repeat of a sweep point).  The cache keys compiled models by a
deterministic content hash of the diagram document plus the base step, so
a repeat submission skips compilation entirely.

Two properties make sharing safe:

* **Private diagrams.**  On a miss the cache does *not* compile the
  caller's model object — it round-trips the diagram through the model
  document (:func:`~repro.model.io.model_to_dict` /
  ``model_from_dict``, pinned exact by the io test suite) and compiles
  the rebuilt private copy.  Cached blocks are therefore never aliased
  with user-owned blocks or with another cache entry, so a caller
  mutating (or re-compiling at another dt) its model cannot corrupt a
  cached artifact.
* **Leased execution.**  Blocks keep per-run state in ``BlockContext``,
  but a few (function-call subsystems, charts) bind executor state to the
  block instance at ``start`` — one compiled model must not run in two
  simulators concurrently.  :meth:`ModelCache.lease` hands the compiled
  model out under a per-entry lock: identical concurrent jobs serialize,
  distinct models run fully parallel.

Models that cannot serialise (charts and custom S-functions hold Python
callables) are *bypassed*: compiled fresh per job, never shared.

The key is the content hash of the canonical document
(:func:`~repro.model.io.doc_content_hash`, with ``dt``; the lowering memo
keys by solver): :mod:`repro.model.io` alone writes the document and
hashes it.  :func:`model_content_hash` is re-exported here: stable across
processes (no ``id()`` / ``repr`` leakage), pinned by a subprocess
round-trip test.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.model.compiled import CompiledModel
from repro.model.diagnostics import ModelError
from repro.model.graph import Model
from repro.model.io import (  # noqa: F401  (the hash is re-exported here)
    doc_content_hash,
    model_content_hash,
    model_from_dict,
    model_to_dict,
)


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------
class _Entry:
    __slots__ = ("cm", "lock", "hits")

    def __init__(self):
        self.cm: Optional[CompiledModel] = None
        self.lock = threading.Lock()
        self.hits = 0


class ModelCache:
    """Bounded LRU of compiled models keyed by content hash + dt.

    Thread-safe.  ``capacity`` bounds the number of retained compiled
    models; eviction is least-recently-leased.  An evicted entry that is
    still leased stays alive with its leaseholder (the lease keeps a
    reference) — a new identical submission simply rebuilds.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    @contextmanager
    def lease(self, model: Model, dt: float) -> Iterator[Tuple[CompiledModel, bool]]:
        """Yield ``(compiled_model, was_hit)`` with exclusive run rights.

        The entry's lock is held for the duration of the ``with`` body, so
        the compiled model is never executed by two simulators at once.
        Unserialisable models bypass the cache (fresh private compile,
        no lock needed — the artifact is job-local).
        """
        try:
            doc = model_to_dict(model)
        except ModelError:
            with self._lock:
                self.bypasses += 1
            yield CompiledModel.build(model, dt), False
            return

        key = doc_content_hash(doc, dt)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry()
                self._entries[key] = entry
                while len(self._entries) > self.capacity:
                    evicted_key = next(iter(self._entries))
                    if evicted_key == key:  # never evict what we just added
                        break
                    self._entries.popitem(last=False)
                    self.evictions += 1
            self._entries.move_to_end(key)

        with entry.lock:
            if entry.cm is None:
                # private rebuild: cached blocks are never aliased with
                # the caller's (or any other entry's) block instances
                entry.cm = CompiledModel.build(model_from_dict(doc), dt)
                entry.cm.lowering_memo = {}  # sound: nobody else holds these blocks
                hit = False
                with self._lock:
                    self.misses += 1
            else:
                hit = True
                entry.hits += 1
                with self._lock:
                    self.hits += 1
            yield entry.cm, hit

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "bypasses": self.bypasses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / total) if total else 0.0,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
