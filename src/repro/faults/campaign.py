"""Fault-injection campaign runner.

A campaign sweeps one :class:`~repro.faults.FaultPlan` across an
intensity grid, runs the PIL rig raw and/or with the reliability layer,
and records one :class:`CampaignOutcome` per cell: control quality (IAE
against the reference, divergence verdict) next to the link-health
counters the run accumulated.  The rows are what E14 plots.

Cells are mutually independent — every cell builds a fresh rig and a
freshly scaled (and therefore freshly seeded) fault plan — so the sweep
parallelizes across processes: ``run(..., workers=4)`` fans cells out to
a :class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
outcomes in grid order.  Results are deterministic and independent of
worker count or completion order; the determinism test in
``tests/faults/test_campaign_parallel.py`` pins serial == parallel.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.analysis import iae, is_diverging
from repro.obs.trace import get_tracer

from .plan import FaultPlan


class CampaignInterrupted(Exception):
    """A sweep died part-way; the completed cells are preserved.

    ``outcomes`` is grid-ordered with ``None`` holes for cells that never
    finished; ``completed`` counts the filled ones.  Raised after the
    worker pool has been shut down in an orderly way (pending futures
    cancelled), so a crashing cell leaves neither stray processes nor a
    hung ``run`` call behind.
    """

    def __init__(self, grid, outcomes, cause):
        self.grid = list(grid)
        self.outcomes = list(outcomes)
        self.completed = sum(1 for o in self.outcomes if o is not None)
        super().__init__(
            f"campaign interrupted after {self.completed}/{len(self.grid)} "
            f"cells: {type(cause).__name__}: {cause}"
        )
        # black-box: an interrupted sweep is exactly the kind of event a
        # post-mortem wants context for (this is every raise site at once)
        from repro.obs.flight import get_flight_recorder

        flight = get_flight_recorder()
        if flight.enabled:
            flight.trigger("campaign_interrupt", args={
                "completed": self.completed,
                "cells": len(self.grid),
                "cause": f"{type(cause).__name__}: {cause}",
            })


@dataclass(frozen=True)
class CampaignOutcome:
    """One (intensity, link-mode) cell of a campaign."""

    intensity: float
    reliable: bool
    iae: float
    diverged: bool
    crc_errors: int
    retransmits: int
    timeouts: int
    send_failures: int
    duplicates: int
    recoveries: int
    watchdog_resets: int
    max_consecutive_loss: int
    safe_state_steps: int
    mean_latency: float
    max_latency: float
    steps: int

    def key_metrics(self) -> dict:
        """The comparison-ready subset (used by tests and benches)."""
        return {
            "intensity": self.intensity,
            "reliable": self.reliable,
            "iae": round(self.iae, 9),
            "diverged": self.diverged,
            "retransmits": self.retransmits,
            "recoveries": self.recoveries,
            "max_consecutive_loss": self.max_consecutive_loss,
        }


@dataclass
class FaultCampaign:
    """Sweep a fault plan over intensities, raw link vs reliable link.

    Parameters
    ----------
    make_pil:
        ``make_pil(reliable) -> PILSimulator`` builds a *fresh* rig (a
        deployed application cannot be reused across runs); ``reliable``
        selects the ARQ + loss-policy + watchdog configuration.
    plan:
        the base fault schedule; each sweep cell runs ``plan.scaled(i)``.
    t_final:
        simulated run length per cell (s).
    reference:
        the set-point the controlled signal is judged against.
    signal:
        name of the logged plant signal to score (default ``"speed"``).
    on_cell_done:
        optional progress hook, called in the *submitting* process as
        ``on_cell_done(index, total, outcome)`` after each cell finishes
        (grid order in a serial sweep, future-resolution order — which
        is also grid order — in a parallel one).  Not pickled to
        workers, so any callable works with ``workers > 1``.
    """

    make_pil: Callable[[bool], "object"]
    plan: FaultPlan
    t_final: float
    reference: float
    signal: str = "speed"
    on_cell_done: Optional[Callable[[int, int, CampaignOutcome], None]] = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["on_cell_done"] = None  # progress hooks stay in the parent
        return state

    def run_cell(self, intensity: float, reliable: bool) -> CampaignOutcome:
        tracer = get_tracer()
        with tracer.span("campaign.cell", cat="campaign", args={
            "intensity": intensity,
            "reliable": reliable,
            "faults": [f.kind for f in self.plan.faults],
            "seed": self.plan.seed,
        }) as cell_span:
            outcome = self._run_cell(intensity, reliable)
            if cell_span is not None:
                cell_span.args["iae"] = outcome.iae
                cell_span.args["diverged"] = outcome.diverged
        return outcome

    def _run_cell(self, intensity: float, reliable: bool) -> CampaignOutcome:
        pil = self.make_pil(reliable)
        self.plan.scaled(intensity).attach(pil)
        r = pil.run(self.t_final)
        y = r.result[self.signal]
        err = self.reference - y
        return CampaignOutcome(
            intensity=intensity,
            reliable=reliable,
            iae=iae(r.result.t, err),
            diverged=is_diverging(r.result.t, y, self.reference),
            crc_errors=r.crc_errors,
            retransmits=r.retransmits,
            timeouts=r.arq_timeouts,
            send_failures=r.send_failures,
            duplicates=r.duplicates,
            recoveries=r.recoveries,
            watchdog_resets=r.watchdog_resets,
            max_consecutive_loss=r.max_consecutive_loss,
            safe_state_steps=r.safe_state_steps,
            mean_latency=r.mean_data_latency,
            max_latency=r.max_data_latency,
            steps=r.steps,
        )

    @staticmethod
    def parallel_effective(
        workers: Optional[int], n_cells: int
    ) -> tuple[bool, Optional[str]]:
        """Whether a process pool can actually beat a serial sweep.

        Returns ``(effective, reason)`` — ``reason`` explains a ``False``
        verdict.  Pool setup + pickling costs real time, so on a single
        core (or with a grid smaller than the pool) the pool only adds
        overhead (the ``parallel_speedup < 1`` rows BENCH_substrates.json
        used to record).
        """
        if workers is None or workers <= 1:
            return False, "serial request"
        if n_cells <= 1:
            return False, f"grid({n_cells}) has nothing to parallelize"
        cpus = os.cpu_count() or 1
        if cpus <= 1:
            return False, f"cpu_count={cpus}"
        if n_cells < workers:
            return False, f"grid({n_cells}) smaller than workers({workers})"
        return True, None

    @staticmethod
    def auto_serial_reason_tag(reason: Optional[str]) -> str:
        """Sanitized counter tag for a :meth:`parallel_effective` reason.

        The free-text reason embeds grid/worker sizes; counters need a
        stable, low-cardinality name, so it collapses to one of
        ``single_cpu`` / ``undersized_grid`` / ``other``.
        """
        if not reason:
            return "other"
        if reason.startswith("cpu_count"):
            return "single_cpu"
        if "smaller than workers" in reason or "nothing to parallelize" in reason:
            return "undersized_grid"
        return "other"

    def run(
        self,
        intensities: Iterable[float],
        modes: Sequence[bool] = (False, True),
        workers: Optional[int] = None,
        batch: Optional[int] = None,
    ) -> list[CampaignOutcome]:
        """The full sweep, raw and reliable per intensity by default.

        ``workers`` > 1 distributes the cells over a process pool (the
        campaign object must then be picklable — in particular
        ``make_pil`` must be a module-level callable, not a lambda or
        closure).  Outcomes come back in grid order regardless of which
        worker finishes first, and each cell seeds its own fault plan,
        so the rows are identical to a serial sweep.  When the pool
        cannot win — single-core host, or a grid smaller than the pool
        (see :meth:`parallel_effective`) — the sweep automatically runs
        serial and records a ``campaign.auto_serial`` obs instant
        instead of silently paying pool overhead.

        ``batch`` packs that many *cells* into each pool task, amortizing
        one worker dispatch (and one trace shipment) across the chunk —
        the right setting when cells are short relative to pickling
        costs.  ``None`` or 1 keeps the one-cell-per-task behaviour.

        A crashing cell (or Ctrl-C) does not leak the pool: pending
        futures are cancelled, the executor is shut down, and the cells
        that did finish are surfaced on a :class:`CampaignInterrupted`
        (``KeyboardInterrupt`` propagates as itself, after the same
        orderly teardown).
        """
        grid = [(i, reliable) for i in intensities for reliable in modes]
        effective, reason = self.parallel_effective(workers, len(grid))
        tracer = get_tracer()
        with tracer.span("campaign.run", cat="campaign", args={
            "cells": len(grid), "workers": workers or 1, "t_final": self.t_final,
            "batch": batch or 1,
        }):
            if not effective and workers is not None and workers > 1:
                # the downgrade is counted unconditionally (a trace
                # instant only exists when someone was tracing; the obs
                # counter is what dashboards and the bench read)
                from repro.obs.metrics import get_registry

                reg = get_registry()
                reg.counter(
                    "campaign_auto_serial_total",
                    "parallel sweeps auto-downgraded to serial",
                ).inc(1)
                tag = self.auto_serial_reason_tag(reason)
                reg.counter(
                    f"campaign_auto_serial_{tag}_total",
                    "auto-serial downgrades by reason",
                ).inc(1)
                if tracer.enabled:
                    tracer.instant("campaign.auto_serial", cat="campaign", args={
                        "workers": workers, "cells": len(grid),
                        "reason": reason,
                    })
                workers = None
            return self._run_grid(grid, workers, tracer, batch)

    def _cell_done(self, tracer, index: int, total: int,
                   outcome: CampaignOutcome) -> None:
        if tracer.enabled:
            tracer.instant("campaign.cell_done", cat="campaign", args={
                "index": index, "total": total,
                "intensity": outcome.intensity, "reliable": outcome.reliable,
                "diverged": outcome.diverged,
            })
        if self.on_cell_done is not None:
            self.on_cell_done(index, total, outcome)

    def _run_grid(
        self, grid: list, workers: Optional[int], tracer,
        batch: Optional[int] = None,
    ) -> list[CampaignOutcome]:
        outcomes: list[Optional[CampaignOutcome]] = [None] * len(grid)
        if workers is None or workers <= 1 or len(grid) <= 1:
            try:
                for k, (i, reliable) in enumerate(grid):
                    outcomes[k] = self.run_cell(i, reliable)
                    self._cell_done(tracer, k, len(grid), outcomes[k])
            except Exception as exc:
                raise CampaignInterrupted(grid, outcomes, exc) from exc
            return outcomes  # type: ignore[return-value]
        # each pool task carries a chunk of `batch` cells (1 = the classic
        # one-cell-per-task shape); traced sweeps ship a capture tracer
        # into each worker and merge the returned events, untraced sweeps
        # keep the plain task so nothing rides along on the hot path
        size = max(1, batch or 1)
        chunks = [grid[k : k + size] for k in range(0, len(grid), size)]
        traced = tracer.enabled
        if traced:
            parent = tracer.current_span()
            task_args = [
                (_run_chunk_task_traced, self, chunk, parent,
                 tracer.capacity, tracer.step_stride)
                for chunk in chunks
            ]
        else:
            task_args = [(_run_chunk_task, self, chunk) for chunk in chunks]

        def unwrap(result) -> list[CampaignOutcome]:
            if traced:
                chunk_outcomes, events = result
                tracer.ingest(events)
                return chunk_outcomes
            return result

        def store(chunk_index: int, chunk_outcomes, notify: bool) -> None:
            base = chunk_index * size
            for j, outcome in enumerate(chunk_outcomes):
                outcomes[base + j] = outcome
                if notify:
                    self._cell_done(tracer, base + j, len(grid), outcome)

        pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
        try:
            futures = [pool.submit(*args) for args in task_args]
            for c, f in enumerate(futures):
                store(c, unwrap(f.result()), notify=True)
        except BaseException as exc:
            for f in futures:
                f.cancel()
            pool.shutdown(wait=True, cancel_futures=True)
            # harvest chunks that finished out of order before the crash
            for c, f in enumerate(futures):
                if (
                    outcomes[c * size] is None
                    and f.done()
                    and not f.cancelled()
                    and f.exception() is None
                ):
                    store(c, unwrap(f.result()), notify=False)
            if isinstance(exc, Exception):
                raise CampaignInterrupted(grid, outcomes, exc) from exc
            raise  # KeyboardInterrupt / SystemExit, pool already torn down
        pool.shutdown(wait=True)
        return outcomes  # type: ignore[return-value]


def _run_chunk_task(
    campaign: FaultCampaign, chunk: list
) -> list[CampaignOutcome]:
    """Pool task running a contiguous chunk of grid cells in order."""
    return [campaign.run_cell(i, reliable) for i, reliable in chunk]


def _run_chunk_task_traced(
    campaign: FaultCampaign,
    chunk: list,
    parent_id: Optional[str],
    capacity: int,
    step_stride: int,
):
    """Traced chunk task: runs the chunk under a fresh capture tracer
    whose spans attach to the submitting ``campaign.run`` span, and ships
    the events back for the parent to ingest (a forked child's global
    tracer buffer would otherwise be lost).  One capture tracer (and one
    event shipment) is amortized over the whole chunk."""
    from repro.obs.trace import Tracer, use_tracer

    local = Tracer(capacity=capacity, enabled=True, step_stride=step_stride)
    with use_tracer(local):
        with local.attach(parent_id):
            outcomes = [campaign.run_cell(i, reliable) for i, reliable in chunk]
    return outcomes, local.events()


def run_campaign(
    make_pil: Callable[[bool], "object"],
    plan: FaultPlan,
    intensities: Iterable[float],
    t_final: float,
    reference: float,
    signal: str = "speed",
    modes: Sequence[bool] = (False, True),
    workers: Optional[int] = None,
    batch: Optional[int] = None,
) -> list[CampaignOutcome]:
    """Functional wrapper around :class:`FaultCampaign`."""
    return FaultCampaign(
        make_pil=make_pil,
        plan=plan,
        t_final=t_final,
        reference=reference,
        signal=signal,
    ).run(intensities, modes, workers=workers, batch=batch)
