"""Simulation result container.

Holds the time vector and every logged signal as NumPy arrays, so the
analysis package (:mod:`repro.analysis`) and the benchmarks can post-
process trajectories without touching the engine.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

import numpy as np


class RunLog:
    """What a run logs, for one simulator (``B = 1``) or an ensemble of
    ``B`` lanes, kept lane-major so that lane ``b``'s rows of a chunk
    are contiguous — exactly what the native ``nx_run`` writes:

    * ``t``: the major-step times, ``(capacity,)``;
    * ``scope``: scope samples, ``(B, capacity, len(scopes))``, column
      ``k`` named ``scopes[k]``;
    * ``trace``: with ``signals`` given (``log_all_signals``), every
      signal's row, ``(B, capacity, len(signals))``, else None.

    ``n`` rows are logged.  :meth:`reserve` pre-sizes the buffers when
    the step count is known (``run``); incremental callers (PIL/HIL drive
    ``advance`` step by step) grow them geometrically.  A growth
    re-allocates, so ``scope_at``/``trace_at`` — the buffers' base
    addresses, with ``scope_row``/``trace_row`` bytes per row of lane 0
    — are valid until the next growth.
    """

    def __init__(self, lanes: int, scopes: Sequence[str],
                 signals: Optional[Sequence[str]] = None):
        self.lanes = lanes
        self.scopes = list(scopes)
        self.signals = None if signals is None else list(signals)
        self.scope_row = 8 * len(self.scopes)
        self.trace_row = 8 * len(self.signals or ())
        self.n = 0
        self.t = self.scope = self.trace = self.trace_at = None
        self._resize(0)

    def _resize(self, capacity: int) -> None:
        """Re-allocate every buffer with room for ``capacity`` rows,
        keeping the ``n`` rows logged so far."""
        n = self.n
        t = np.empty(capacity)
        scope = np.empty((self.lanes, capacity, len(self.scopes)))
        if n:
            t[:n] = self.t[:n]
            scope[:, :n] = self.scope[:, :n]
        self.t, self.scope, self.scope_at = t, scope, scope.ctypes.data
        if self.signals is not None:
            trace = np.empty((self.lanes, capacity, len(self.signals)))
            if n:
                trace[:, :n] = self.trace[:, :n]
            self.trace, self.trace_at = trace, trace.ctypes.data
        self.capacity = capacity

    def reserve(self, capacity: int) -> None:
        """Ensure room for ``capacity`` rows in all."""
        if capacity > self.capacity:
            self._resize(capacity)

    def room(self, k: int) -> None:
        """Ensure room for ``k`` more rows, growing geometrically."""
        n = self.n
        if n + k > self.capacity:
            self._resize(max(64, 2 * n, n + k))

    def append(self, t: float, scope, signals=None) -> None:
        """Log one major step: its scope samples ``(B, n_scopes)`` (or
        ``(n_scopes,)``, every lane alike) and, when the log keeps a
        trace, its signal vector(s) shaped the same way."""
        n = self.n
        if n == self.capacity:
            self.room(1)
        self.t[n] = t
        self.scope[:, n] = scope
        if self.trace is not None:
            self.trace[:, n] = signals
        self.n = n + 1

    def columns(self) -> dict[str, np.ndarray]:
        """Every logged signal as a ``(B, n)`` view: the scopes by name,
        then each traced signal unless a scope took its name."""
        n = self.n
        out = {name: self.scope[:, :n, k] for k, name in enumerate(self.scopes)}
        if self.trace is not None:
            for k, name in enumerate(self.signals):
                out.setdefault(name, self.trace[:, :n, k])
        return out


class SimulationResult(Mapping[str, np.ndarray]):
    """Mapping from logged-signal name to a 1-D value array.

    ``result.t`` is the major-step time vector; every logged array has the
    same length.  The container is mapping-like: ``result["speed"]``,
    ``"speed" in result``, iteration over names.
    """

    def __init__(self, t: np.ndarray, signals: dict[str, np.ndarray]):
        self.t = np.asarray(t, dtype=np.float64)
        self._signals = {k: np.asarray(v, dtype=np.float64) for k, v in signals.items()}
        for name, arr in self._signals.items():
            if arr.shape != self.t.shape:
                raise ValueError(
                    f"logged signal '{name}' has {arr.shape[0]} samples, "
                    f"expected {self.t.shape[0]}"
                )

    # Mapping interface -------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._signals[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._signals)

    def __len__(self) -> int:
        return len(self._signals)

    # convenience --------------------------------------------------------
    @property
    def names(self) -> list[str]:
        """Logged signal names, sorted."""
        return sorted(self._signals)

    def final(self, name: str) -> float:
        """Last sample of a signal."""
        return float(self._signals[name][-1])

    def at(self, name: str, time: float) -> float:
        """Signal value at (the major step closest to) ``time``."""
        i = int(np.argmin(np.abs(self.t - time)))
        return float(self._signals[name][i])

    def slice(self, t0: float, t1: float) -> "SimulationResult":
        """Sub-result restricted to ``t0 <= t <= t1``."""
        mask = (self.t >= t0) & (self.t <= t1)
        return SimulationResult(self.t[mask], {k: v[mask] for k, v in self._signals.items()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimulationResult {len(self.t)} steps, signals={self.names}>"


class BatchSimulationResult(Mapping[str, np.ndarray]):
    """Result of an ensemble run: every signal is ``(n_steps, B)``.

    Column ``b`` of every array is the trajectory of scenario lane ``b``,
    bit-identical to a serial :class:`SimulationResult` of that scenario.
    :meth:`lane` / :meth:`split` recover exactly those per-scenario
    results for code written against the serial container.
    """

    def __init__(
        self,
        t: np.ndarray,
        signals: dict[str, np.ndarray],
        labels: list[str] | None = None,
    ):
        self.t = np.asarray(t, dtype=np.float64)
        self._signals = {
            k: np.asarray(v, dtype=np.float64) for k, v in signals.items()
        }
        n_lanes = None
        for name, arr in self._signals.items():
            if arr.ndim != 2 or arr.shape[0] != self.t.shape[0]:
                raise ValueError(
                    f"batched signal '{name}' has shape {arr.shape}, "
                    f"expected ({self.t.shape[0]}, B)"
                )
            if n_lanes is None:
                n_lanes = arr.shape[1]
            elif arr.shape[1] != n_lanes:
                raise ValueError(
                    f"batched signal '{name}' has {arr.shape[1]} lanes, "
                    f"expected {n_lanes}"
                )
        self.n_lanes = 0 if n_lanes is None else n_lanes
        if labels is None:
            labels = [f"lane{b}" for b in range(self.n_lanes)]
        if len(labels) != self.n_lanes:
            raise ValueError(
                f"{len(labels)} labels for {self.n_lanes} lanes"
            )
        self.labels = list(labels)

    # Mapping interface -------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._signals[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._signals)

    def __len__(self) -> int:
        return len(self._signals)

    # convenience --------------------------------------------------------
    @property
    def names(self) -> list[str]:
        """Logged signal names, sorted."""
        return sorted(self._signals)

    def lane(self, b: int) -> SimulationResult:
        """Scenario lane ``b`` as a plain serial-compatible result."""
        if not 0 <= b < self.n_lanes:
            raise IndexError(f"lane {b} out of range [0, {self.n_lanes})")
        return SimulationResult(
            self.t.copy(), {k: v[:, b].copy() for k, v in self._signals.items()}
        )

    def split(self) -> list[SimulationResult]:
        """All lanes as per-scenario results, in scenario order."""
        return [self.lane(b) for b in range(self.n_lanes)]

    def final(self, name: str) -> np.ndarray:
        """Last sample of a signal across all lanes, shape ``(B,)``."""
        return self._signals[name][-1].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BatchSimulationResult {len(self.t)} steps x "
            f"{self.n_lanes} lanes, signals={self.names}>"
        )
