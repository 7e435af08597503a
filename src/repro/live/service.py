"""The live broadcast service — a runtime over the paper's batch planners.

:class:`LiveBroadcastService` replays a :class:`~repro.live.mutations.
MutationTrace` against a broadcast program, epoch by epoch, on the
deterministic :class:`~repro.sim.events.EventLoop`.  Three layers react
to each event:

1. **Admission** (:mod:`repro.live.admission`) judges catalog mutations
   against the Theorem-3.1 channel budget before they touch anything.
2. **Incremental rescheduling** patches the running program in place
   when the mutation leaves the bound slack — removals clear cells,
   inserts look for a vacant periodic slot pattern — and falls back to a
   full SUSC/PAMAD re-plan through :class:`~repro.engine.facade.
   BroadcastEngine` (the PR-2 recovery decision: SUSC at or above the
   bound, PAMAD below it) when no cheap repair exists.
3. **SLO control** (:mod:`repro.live.slo`) replays listener arrivals
   against the current program and forces a corrective re-plan when the
   rolling deadline-miss rate breaches the target.

Everything the service does lands in an append-only, JSON-friendly
event log; replaying the same trace with the same seed produces a
byte-identical log, which is the determinism contract the CI smoke job
diffs against.

Incremental insert, and why it is safe
--------------------------------------
For a page with expected time ``t`` joining a program with cycle ``L``:

* ``t >= L``: one appearance anywhere suffices — every cyclic gap is
  then exactly ``L <= t`` and the first appearance lands before ``t``.
* ``t < L`` and ``t | L`` (automatic when expected times stay on one
  divisibility ladder): appearances at columns ``o, o+t, o+2t, ...``
  for any offset ``o < t`` give gaps of exactly ``t`` and a first
  appearance before ``t``.  The repair scans offsets for one whose
  columns all have a free channel; gaps depend only on columns, never on
  which channel carries the page, so channels can differ per column.

Existing pages are untouched either way, so a valid program stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
import json
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.errors import SimulationError
from repro.core.pages import ProblemInstance
from repro.core.program import (
    FREE,
    AppearanceIndex,
    BroadcastProgram,
    batch_waits,
)
from repro.core.validate import validate_program
from repro.live.admission import AdmissionController, AdmissionDecision
from repro.live.catalog import LiveCatalog
from repro.live.mutations import MutationEvent, MutationTrace
from repro.live.replan import FastReplanner
from repro.live.slo import SloTracker
from repro.sim.events import EventLoop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.facade import BroadcastEngine

__all__ = ["LiveBroadcastService", "LiveReport"]

# Chunk bounds for the batched listener engine: a segment's first chunk
# after a re-plan is small (breaches tend to re-trigger shortly after the
# cooldown clears, and waits computed past a trigger are thrown away),
# then doubles so long healthy runs are processed in full-width passes.
_CHUNK_MIN = 2048
_CHUNK_MAX = 65536


@dataclass(frozen=True)
class LiveReport:
    """Outcome of one :meth:`LiveBroadcastService.run`.

    Attributes:
        horizon: Slots replayed.
        budget: The channel budget the run was held to.
        trace_fingerprint: Content digest of the replayed trace.
        program: The program on air when the horizon was reached.
        catalog: Final ``page_id -> expected_time`` mapping.
        final_required: Theorem-3.1 requirement of the final catalog.
        final_valid: Whether the final program is valid for the final
            catalog (always False in degraded/PAMAD mode).
        admission: Admission-controller summary block.
        slo: SLO-tracker summary block.
        counters: Runtime counters (repairs, replans, listeners, ...).
        decisions: Every admission verdict, in event order.
        event_log: The deterministic structured log, in event order.
    """

    horizon: int
    budget: int
    trace_fingerprint: str
    program: BroadcastProgram
    catalog: Mapping[int, int]
    final_required: int
    final_valid: bool
    admission: Mapping[str, object]
    slo: Mapping[str, object]
    counters: Mapping[str, int]
    decisions: tuple[AdmissionDecision, ...]
    event_log: tuple[Mapping[str, object], ...]

    def as_dict(self) -> dict:
        """Manifest-ready summary (excludes the program grid and log)."""
        return {
            "horizon": self.horizon,
            "budget": self.budget,
            "trace_fingerprint": self.trace_fingerprint,
            "final_pages": len(self.catalog),
            "final_required": self.final_required,
            "final_valid": self.final_valid,
            "final_cycle_length": self.program.cycle_length,
            "admission": dict(self.admission),
            "slo": dict(self.slo),
            "counters": {k: int(v) for k, v in sorted(self.counters.items())},
        }

    def event_log_json(self) -> str:
        """The event log as canonical JSON (the determinism artifact)."""
        return json.dumps(
            list(self.event_log), indent=2, sort_keys=True
        )


class LiveBroadcastService:
    """Replay a mutation trace against a continuously repaired program.

    Args:
        initial: The catalog on air at ``t=0`` — a
            :class:`~repro.core.pages.ProblemInstance` or a plain
            ``page_id -> expected_time`` mapping.
        trace: The seeded mutation/listener timeline to replay.
        budget: Channel budget ``N_real``; defaults to the Theorem-3.1
            requirement of the initial catalog (a taut budget, so any
            load-increasing mutation exercises admission control).
        engine: Scheduling facade used for full re-plans; a private
            engine is created when omitted, so repeated runs start from
            identical cache and telemetry state.
        admission: When False, every mutation is applied regardless of
            the bound (the EXT11 control arm).
        queue_limit: Admission queue capacity.
        slo_window: Rolling window width for the miss-rate SLO.
        target_miss_rate: Rolling miss-rate threshold that triggers a
            corrective re-plan.
        replan_cooldown: Minimum slots between SLO-triggered re-plans.
        self_check: Validate the program against the live catalog after
            every applied mutation while the budget covers the bound
            (the property-test hook; raises on violation).
        coalesce_window: When positive, catalog mutations buffer for this
            many slots and flush as one net batch: an insert+remove of
            the same page cancels, repeated retunes collapse to the
            last, remove+insert becomes a retune.  The flushed batch is
            admitted and applied exactly as if the net operations had
            arrived event by event at the window end.  ``0`` disables
            coalescing (the default, and the event-by-event contract).

    :meth:`run` replays each run of listeners between catalog changes as
    vectorised passes, equal to the event-by-event walk
    :func:`repro.oracles.live_sequential` (the SLO wait total bit for
    bit) up to the log: one ``listener_batch`` entry per run.
    """

    def __init__(
        self,
        initial: ProblemInstance | Mapping[int, int],
        trace: MutationTrace,
        *,
        budget: int | None = None,
        engine: "BroadcastEngine | None" = None,
        admission: bool = True,
        queue_limit: int = 16,
        slo_window: int = 64,
        target_miss_rate: float = 0.05,
        replan_cooldown: int = 8,
        self_check: bool = False,
        coalesce_window: int = 0,
    ) -> None:
        self.catalog = LiveCatalog(initial)
        self.trace = trace
        self.budget = (
            self.catalog.required_channels() if budget is None else budget
        )
        if self.budget < 1:
            raise SimulationError(
                f"budget must be >= 1, got {self.budget}"
            )
        if engine is None:
            # Imported lazily: repro.live must stay importable while the
            # engine package (which reaches repro.workload -> this
            # package) is itself still initialising.
            from repro.engine.facade import BroadcastEngine

            engine = BroadcastEngine()
        self.engine = engine
        self.admission = AdmissionController(
            self.budget, queue_limit=queue_limit, enabled=admission
        )
        self.slo = SloTracker(
            window=slo_window, target_miss_rate=target_miss_rate
        )
        if replan_cooldown < 0:
            raise SimulationError(
                f"replan_cooldown must be >= 0, got {replan_cooldown}"
            )
        self.replan_cooldown = replan_cooldown
        self.self_check = self_check
        if coalesce_window < 0:
            raise SimulationError(
                f"coalesce_window must be >= 0, got {coalesce_window}"
            )
        self.coalesce_window = coalesce_window

        self.program: BroadcastProgram | None = None
        self._replanner = FastReplanner()
        self.counters: dict[str, int] = {
            "mutations": 0,
            "incremental_repairs": 0,
            "full_replans": 0,
            "fastpath_replans": 0,
            "slo_replans": 0,
            "queue_drains": 0,
            "listeners": 0,
            "misses": 0,
            "batched_listeners": 0,
            "events_coalesced": 0,
            "replans_avoided": 0,
        }
        self._decisions: list[AdmissionDecision] = []
        self._log: list[dict] = []
        self._loop: EventLoop | None = None
        self._last_slo_replan = float("-inf")
        self._now_override: float | None = None
        self._pending: list[MutationEvent] = []
        self._window_end: float | None = None
        self._finished = False

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        # The override carries a mid-batch listener's arrival time while
        # the batched path handles a breach, so its records match an
        # event-by-event walk (where the loop clock sits on that event).
        if self._now_override is not None:
            return self._now_override
        return self._loop.now if self._loop is not None else 0.0

    def _record(
        self, entry_type: str, *, t: float | None = None, **details: object
    ) -> None:
        entry = {"t": self.now if t is None else t, "type": entry_type}
        entry.update(details)
        self._log.append(entry)

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        self.engine.telemetry.incr(f"live.{name}", amount)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _full_replan(self, reason: str) -> None:
        """Re-plan the catalog: SUSC at/above the bound, else PAMAD.

        In the PAMAD regime a patch of the running program is tried
        first (see :mod:`repro.live.replan`); it applies when at most
        one expected-time group moved since the last full plan and the
        recomputed frequencies and cycle prove the rest of the plan
        unchanged.  Ineligible mutations fall through to the engine.
        """
        required = self.catalog.required_channels()
        algorithm = "susc" if required <= self.budget else "pamad"
        if algorithm == "pamad":
            patched = self._replanner.try_patch(
                self.catalog.pages(), self.program
            )
            if patched is not None:
                self.program = patched
                self._count("fastpath_replans")
                self._record(
                    "replan",
                    reason=reason,
                    algorithm="pamad-patch",
                    channels=self.budget,
                    required=required,
                    cycle_length=patched.cycle_length,
                    pages=len(self.catalog),
                )
                return
        instance = self.catalog.to_instance()
        schedule = self.engine.schedule(
            instance, algorithm, channels=self.budget
        )
        # The engine's program cache returns the *identical* schedule
        # object on a hit, and the incremental repairs below mutate the
        # program in place (assign/clear) — so the service must work on
        # a copy or it would poison the cache for every later hit (its
        # own re-plans of the same catalog, and any other service
        # sharing the engine, e.g. warm federation shard engines).
        self.program = schedule.program.copy()
        if algorithm == "pamad":
            self._replanner.remember(
                catalog=self.catalog.pages(),
                times=instance.expected_times,
                frequencies=tuple(schedule.meta["frequencies"]),
                cycle=schedule.program.cycle_length,
                budget=self.budget,
            )
        else:
            self._replanner.invalidate()
        self._count("full_replans")
        self._record(
            "replan",
            reason=reason,
            algorithm=algorithm,
            channels=self.budget,
            required=required,
            cycle_length=schedule.program.cycle_length,
            pages=len(self.catalog),
        )

    def _try_place(self, page_id: int, expected_time: int) -> int:
        """Incremental insert: place ``page_id`` without moving any page.

        Returns the cells the page took, ``0`` when no placement fits.
        The first feasible offset comes from one pass over the packed
        grid: a column is open when any channel is free in it, and
        offset ``o`` is feasible when every column ``o + k*t`` is open —
        an ``all`` over the ``(cycle // t, t)`` reshape of the open
        columns.  Each column takes its lowest free channel, as the
        column-by-column scan (:func:`repro.oracles.try_place_reference`)
        does.
        """
        program = self.program
        if program is None:
            return 0
        cycle = program.cycle_length
        free = program.packed_grid() == FREE
        if expected_time >= cycle:
            # One appearance anywhere: the first free cell by airtime.
            airtime = free.T.ravel()
            cell = int(airtime.argmax())
            if not airtime[cell]:
                return 0
            slot, channel = divmod(cell, program.num_channels)
            program.assign_page(page_id, (channel,), (slot,))
            return 1
        if cycle % expected_time != 0:
            # Off-ladder deadline: no periodic column pattern exists.
            return 0
        feasible = (
            free.any(axis=0)
            .reshape(cycle // expected_time, expected_time)
            .all(axis=0)
        )
        offset = int(feasible.argmax())
        if not feasible[offset]:
            return 0
        slots = np.arange(offset, cycle, expected_time)
        program.assign_page(page_id, free[:, slots].argmax(axis=0), slots)
        return slots.shape[0]

    def _unplace(self, page_id: int) -> int:
        """Clear every appearance of ``page_id``; returns cells freed."""
        if self.program is None:
            return 0
        return self.program.clear_page(page_id)

    def _self_check(self, context: str) -> None:
        if not self.self_check or self.program is None:
            return
        if self.catalog.required_channels() > self.budget:
            return  # degraded mode: validity is not promised
        report = validate_program(self.program, self.catalog.to_instance())
        if not report.ok:
            raise SimulationError(
                f"live program invalid after {context} at t={self.now}: "
                f"{report.errors[:3]}"
            )

    # ------------------------------------------------------------------
    # Mutation application
    # ------------------------------------------------------------------

    def _apply_insert(self, page_id: int, expected_time: int) -> None:
        if self.catalog.required_channels() > self.budget:
            # Degraded (admission off): PAMAD must re-weigh every page.
            self._full_replan(f"insert-degraded:{page_id}")
            return
        placed = self._try_place(page_id, expected_time)
        if placed:
            self._count("incremental_repairs")
            self._record(
                "repair", action="insert", page_id=page_id,
                expected_time=expected_time, appearances=placed,
            )
        else:
            self._full_replan(f"insert-no-slack:{page_id}")

    def _apply_remove(self, page_id: int) -> None:
        freed = self._unplace(page_id)
        self._count("incremental_repairs")
        self._record(
            "repair", action="remove", page_id=page_id, cells_freed=freed
        )

    def _apply_retune(self, page_id: int, expected_time: int) -> None:
        program = self.program
        if self.catalog.required_channels() > self.budget:
            self._full_replan(f"retune-degraded:{page_id}")
            return
        if program is not None:
            index = AppearanceIndex.from_program(program)
            slots, gaps = index.row_slots(page_id)
            if slots.size:
                if (
                    int(gaps.max()) <= expected_time
                    and int(slots[0]) < expected_time
                ):
                    self._count("incremental_repairs")
                    self._record(
                        "repair", action="retune-keep", page_id=page_id,
                        expected_time=expected_time,
                    )
                    return
                self._unplace(page_id)
        placed = self._try_place(page_id, expected_time)
        if placed:
            self._count("incremental_repairs")
            self._record(
                "repair", action="retune-replace", page_id=page_id,
                expected_time=expected_time, appearances=placed,
            )
        else:
            self._full_replan(f"retune-no-slack:{page_id}")

    def _drain_queue(self) -> None:
        """Admit queued inserts that fit after a removal/relaxation."""
        admitted, decisions = self.admission.drain(self.catalog, self.now)
        for event, decision in zip(admitted, decisions):
            self._decisions.append(decision)
            self._record("admission", **decision.as_dict())
            self.catalog.insert(event.page_id, event.expected_time)
            self._count("queue_drains")
            self._apply_insert(event.page_id, event.expected_time)
            self._self_check(f"queue-drain:{event.page_id}")

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_mutation(self, event: MutationEvent) -> None:
        self._count("mutations")
        if self.coalesce_window > 0:
            self._buffer_mutation(event)
        else:
            self._admit_and_apply(event)

    def _admit_and_apply(self, event: MutationEvent) -> None:
        if event.kind == "page_insert":
            decision = self.admission.decide_insert(self.catalog, event)
        elif event.kind == "page_remove":
            decision = self.admission.decide_remove(self.catalog, event)
        else:
            decision = self.admission.decide_retune(self.catalog, event)
        self._decisions.append(decision)
        self._record("admission", **decision.as_dict())
        if decision.verdict != "admitted":
            return
        if event.kind == "page_insert":
            self.catalog.insert(event.page_id, event.expected_time)
            self._apply_insert(event.page_id, event.expected_time)
        elif event.kind == "page_remove":
            self.catalog.remove(event.page_id)
            self._apply_remove(event.page_id)
        else:
            self.catalog.retune(event.page_id, event.expected_time)
            self._apply_retune(event.page_id, event.expected_time)
        self._self_check(f"{event.kind}:{event.page_id}")
        if event.kind in ("page_remove", "page_retune"):
            self._drain_queue()

    # ------------------------------------------------------------------
    # Mutation coalescing
    # ------------------------------------------------------------------

    def _buffer_mutation(self, event: MutationEvent) -> None:
        """Hold a catalog mutation until the coalescing window closes."""
        if self._window_end is None:
            self._window_end = event.time + self.coalesce_window
            self._loop.schedule_at(self._window_end, self._flush_mutations)
        self._pending.append(event)
        self._count("events_coalesced")
        self._record(
            "coalesce",
            kind=event.kind,
            page_id=event.page_id,
            window_end=self._window_end,
        )

    def _net_operations(
        self, pending: list[MutationEvent], flush_time: float
    ) -> list[MutationEvent]:
        """Fold a buffered burst into its net catalog operations.

        Per page, the buffered sequence is replayed against the page's
        pre-window membership (ops that would be invalid mid-sequence —
        duplicate insert, remove of an absent page — are dropped, the
        same way event-by-event admission would reject them) and only
        the initial-state -> final-state difference is emitted:
        insert+remove cancels, retunes collapse to the last,
        remove+insert of the same page becomes one retune.  Net events
        are stamped at ``flush_time`` and ordered by ``(kind, page_id)``,
        matching the trace tie-order at a shared timestamp.
        """
        initial: dict[int, int | None] = {}
        final: dict[int, int | None] = {}
        order: list[int] = []
        for event in pending:
            page_id = event.page_id
            if page_id not in initial:
                before = (
                    self.catalog.expected_time(page_id)
                    if page_id in self.catalog
                    else None
                )
                initial[page_id] = before
                final[page_id] = before
                order.append(page_id)
            state = final[page_id]
            if event.kind == "page_insert":
                if state is None:
                    final[page_id] = event.expected_time
            elif event.kind == "page_remove":
                if state is not None:
                    final[page_id] = None
            else:  # page_retune
                if state is not None:
                    final[page_id] = event.expected_time
        net: list[MutationEvent] = []
        for page_id in order:
            before, after = initial[page_id], final[page_id]
            if before == after:
                continue
            if before is None:
                net.append(MutationEvent(
                    time=flush_time, kind="page_insert",
                    page_id=page_id, expected_time=after,
                ))
            elif after is None:
                net.append(MutationEvent(
                    time=flush_time, kind="page_remove", page_id=page_id,
                ))
            else:
                net.append(MutationEvent(
                    time=flush_time, kind="page_retune",
                    page_id=page_id, expected_time=after,
                ))
        net.sort(key=lambda e: (e.kind, e.page_id))
        return net

    def _flush_mutations(self) -> None:
        """Close the window: admit and apply the net operations."""
        pending, self._pending = self._pending, []
        window_end, self._window_end = self._window_end, None
        if not pending:
            return
        net = self._net_operations(pending, window_end)
        self._count("replans_avoided", len(pending) - len(net))
        self._record(
            "coalesce_flush",
            buffered=len(pending),
            net=len(net),
            avoided=len(pending) - len(net),
        )
        for event in net:
            self._admit_and_apply(event)

    def _planned_flush_times(self) -> list[float]:
        """The flush times coalescing will use, computed from the trace.

        Mirrors :meth:`_buffer_mutation`'s runtime behaviour (a window
        opens at the first buffered mutation; mutations up to and
        including the window end join it) so the batched listener path
        can split listener runs at program-change boundaries up front.
        """
        if self.coalesce_window <= 0:
            return []
        times: list[float] = []
        window_end: float | None = None
        for event in self.trace.mutations():
            if window_end is None or event.time > window_end:
                window_end = event.time + self.coalesce_window
                times.append(window_end)
        return times

    def _on_listener(self, event: MutationEvent) -> None:
        self._count("listeners")
        program = self.program
        if program is None or program.broadcast_count(event.page_id) == 0:
            wait: float | None = None
        else:
            wait = program.wait_time(
                event.page_id, event.time % program.cycle_length
            )
        observation = self.slo.observe(
            event.time, event.page_id, event.expected_time, wait
        )
        if observation.miss:
            self._count("misses")
        self._record(
            "listener",
            page_id=event.page_id,
            expected_time=event.expected_time,
            wait=wait,
            miss=observation.miss,
        )
        if (
            self.slo.breached()
            and self.now - self._last_slo_replan >= self.replan_cooldown
        ):
            self._last_slo_replan = self.now
            self._count("slo_replans")
            self._record(
                "slo_breach",
                rolling_miss_rate=round(self.slo.rolling_miss_rate, 6),
                target=self.slo.target_miss_rate,
            )
            self._full_replan("slo-breach")
            self.slo.reset_window()

    def _replay_listeners(self, all_times, all_expected, all_pages) -> None:
        """Replay a run of listener arrivals as vectorised passes.

        Sequentially equivalent to calling :meth:`_on_listener` per
        event: waits come from
        :func:`~repro.core.program.batch_waits`, which searches the
        program's appearance index or, once the index has answered
        enough queries, gathers from its dense wait table (both
        bit-identical to
        :meth:`~repro.core.program.BroadcastProgram.wait_time`), the SLO
        breach trigger is located by replaying the rolling window as a
        cumulative sum, and a mid-batch breach re-plans at the
        triggering listener's timestamp before the remainder of the
        batch is re-vectorised against the new program.

        Listeners between two re-plans form one *segment* (one
        ``listener_batch`` log entry).  Internally a segment is scanned
        in chunks that double from ``_CHUNK_MIN`` to ``_CHUNK_MAX``:
        waits computed past a breach trigger are priced against the
        wrong program and must be discarded, so the waste per re-plan is
        bounded by one chunk instead of the whole remaining run —
        re-plan-heavy traces stay linear while healthy traces quickly
        reach full-width vectorised passes.  Chunking is invisible in
        the output: the log, counters and SLO window are per segment,
        and the SLO wait total is folded left to right.

        Args:
            all_times: float64 arrival times, in trace order.
            all_expected: int64 promised deadlines per listener.
            all_pages: int64 requested page per listener.
        """
        total = int(all_times.shape[0])
        start = 0
        while start < total:
            program = self.program
            index = None
            if program is not None:
                index = AppearanceIndex.from_program(program)
                if not index.page_ids.size:
                    index = None
            seg_start = start
            seg_served = 0
            seg_misses = 0
            seg_wait = 0.0
            trigger: int | None = None
            chunk = _CHUNK_MIN
            while start < total and trigger is None:
                stop = min(start + chunk, total)
                chunk = min(chunk * 2, _CHUNK_MAX)
                m = stop - start
                times = all_times[start:stop]
                expected = all_expected[start:stop]
                if index is None:
                    waits = np.zeros(m, dtype=np.float64)
                    served = np.zeros(m, dtype=bool)
                    all_served = False
                    miss = np.ones(m, dtype=bool)
                else:
                    rows = index.rows_for(all_pages[start:stop])
                    served = rows >= 0
                    all_served = bool(served.all())
                    if all_served:
                        waits = batch_waits(index, rows, times)
                        miss = waits > expected
                    else:
                        waits = np.zeros(m, dtype=np.float64)
                        if served.any():
                            waits[served] = batch_waits(
                                index, rows[served], times[served]
                            )
                        miss = ~served | (waits > expected)
                chunk_misses = int(miss.sum())

                # Replay the rolling SLO window: seed with the tracker's
                # current deque, then find the first arrival whose post-
                # observation window both breaches and clears the cooldown
                # (the same predicate _on_listener evaluates per event).
                # Any window count is bounded by the misses available
                # (deque + chunk) and any eligible window is at least
                # half wide, so when the bound cannot clear the target
                # the replay is skipped outright (float division keeps
                # the bound comparison aligned with the trigger test).
                w = self.slo.window
                half = max(1, w // 2)
                target = self.slo.target_miss_rate
                p = len(self.slo._recent)
                local = None
                if (sum(self.slo._recent) + chunk_misses) / half > target:
                    prior = np.asarray(
                        list(self.slo._recent), dtype=np.int64
                    )
                    seq = np.concatenate(
                        [prior, miss.astype(np.int64)]
                    )
                    csum = np.concatenate([[0], np.cumsum(seq)])
                    # Window counts as slice differences: after the i-th
                    # listener the window spans min(w, p + i) entries,
                    # so the first k = max(0, min(m, w - p)) positions
                    # subtract the empty prefix and the rest subtract
                    # the cumulative sum w entries back.
                    k = max(0, min(m, w - p))
                    counts = csum[p + 1:p + m + 1].copy()
                    if k < m:
                        counts[k:] -= csum[p + k + 1 - w:p + m + 1 - w]
                    eligible = np.empty(m, dtype=bool)
                    if k:
                        win_head = p + 1 + np.arange(k, dtype=np.int64)
                        eligible[:k] = (win_head >= half) & (
                            (counts[:k] / win_head) > target
                        )
                    eligible[k:] = (counts[k:] / w) > target
                    hits = np.flatnonzero(eligible)
                    if hits.size:
                        cool = (
                            times[hits] - self._last_slo_replan
                        ) >= self.replan_cooldown
                        hits = hits[cool]
                    if hits.size:
                        local = int(hits[0])
                upto = m if local is None else local + 1

                self.slo.observe_batch(
                    expected[:upto],
                    waits[:upto],
                    served[:upto],
                    miss[:upto],
                )
                if all_served and upto == m:
                    seg_served += m
                    seg_misses += chunk_misses
                    seg_wait += float(waits.sum())
                else:
                    seg_served += int(served[:upto].sum())
                    seg_misses += int(miss[:upto].sum())
                    seg_wait += float(waits[:upto][served[:upto]].sum())
                start += upto
                if local is not None:
                    trigger = start - 1

            count = start - seg_start
            self._count("listeners", count)
            self._count("batched_listeners", count)
            if seg_misses:
                self._count("misses", seg_misses)
            # Stamped at its own first arrival: a segment after a
            # mid-run re-plan starts later than the run's callback.
            first_time = float(all_times[seg_start])
            self._record(
                "listener_batch",
                t=first_time,
                count=count,
                first_time=first_time,
                last_time=float(all_times[start - 1]),
                served=seg_served,
                misses=seg_misses,
                wait_total=round(seg_wait, 6),
            )
            if trigger is not None:
                self._now_override = float(all_times[trigger])
                try:
                    self._last_slo_replan = self.now
                    self._count("slo_replans")
                    self._record(
                        "slo_breach",
                        rolling_miss_rate=round(
                            self.slo.rolling_miss_rate, 6
                        ),
                        target=self.slo.target_miss_rate,
                    )
                    self._full_replan("slo-breach")
                    self.slo.reset_window()
                finally:
                    self._now_override = None

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> LiveReport:
        """Replay the whole trace; returns the structured report.

        The trace's memoised columnar arrays (see
        :meth:`~repro.live.mutations.MutationTrace.columns`) drive the
        schedule: listener runs between catalog mutations are located by
        a mask diff, split at coalescing flush boundaries with one
        ``searchsorted`` per run, and dispatched to the vectorised
        engine as array slices — no per-event Python work.  Catalog
        events come from :meth:`~repro.live.mutations.MutationTrace.
        mutations`, walked in step with the runs, so a columnar trace
        never builds its listener events.  A listener
        at exactly a flush time still precedes the flush (trace events
        are scheduled before the dynamically-scheduled flush callback,
        and the loop breaks ties FIFO), so runs are cut only after
        listeners strictly past a flush, matching the event-by-event
        walk (:func:`repro.oracles.live_sequential`).
        """
        if self._loop is not None:
            raise SimulationError(
                "LiveBroadcastService.run() can only be called once; "
                "build a new service to replay again"
            )
        self.start()

        all_times, is_listener, all_pages, all_expected = (
            self.trace.columns()
        )
        edges = np.flatnonzero(
            np.diff(np.concatenate(([False], is_listener, [False])))
        )
        runs = edges.reshape(-1, 2)  # [start, stop) listener runs
        flushes = np.asarray(self._planned_flush_times(), dtype=np.float64)
        mutations = iter(self.trace.mutations())
        cursor = 0
        for lo, hi in runs.tolist():
            for event in islice(mutations, lo - cursor):
                self._loop.schedule_at(
                    event.time, partial(self._on_mutation, event)
                )
            cuts = np.searchsorted(all_times[lo:hi], flushes, side="right")
            cuts = cuts[(cuts > 0) & (cuts < hi - lo)]
            # A repeated cut only adds an empty slice, which replays nothing.
            bounds = [lo, *(lo + cuts).tolist(), hi]
            for a, b in zip(bounds, bounds[1:]):
                self._loop.schedule_at(
                    float(all_times[a]),
                    partial(
                        self._replay_listeners,
                        all_times[a:b],
                        all_expected[a:b],
                        all_pages[a:b],
                    ),
                )
            cursor = hi
        for event in mutations:
            self._loop.schedule_at(
                event.time, partial(self._on_mutation, event)
            )
        return self.finish()

    def _build_report(self) -> LiveReport:
        """Flush the coalescing tail and summarise the session."""
        if self._pending:
            # The horizon closed before the last coalescing window did;
            # flush the tail so buffered mutations are not lost.
            self._now_override = float(self._window_end)
            try:
                self._flush_mutations()
            finally:
                self._now_override = None
        assert self.program is not None
        final_required = self.catalog.required_channels()
        final_valid = False
        if final_required <= self.budget:
            final_valid = validate_program(
                self.program, self.catalog.to_instance()
            ).ok
        return LiveReport(
            horizon=self.trace.horizon,
            budget=self.budget,
            trace_fingerprint=self.trace.fingerprint(),
            program=self.program,
            catalog=self.catalog.pages(),
            final_required=final_required,
            final_valid=final_valid,
            admission=self.admission.as_dict(),
            slo=self.slo.as_dict(),
            counters=dict(self.counters),
            decisions=tuple(self._decisions),
            event_log=tuple(self._log),
        )

    # ------------------------------------------------------------------
    # Online stepping (the control-plane driver surface)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin an online session: plan the initial catalog at ``t=0``.

        The online surface (:meth:`start` / :meth:`offer` /
        :meth:`finish`) accepts events one at a time as they arrive over
        the control plane instead of replaying a pre-built trace.  Its
        report equals :func:`repro.oracles.live_sequential`'s for the
        same event sequence, event log included, and :meth:`run`'s up to
        the log's listener entries: each listener is judged on its own
        (events arrive singly, so there is nothing to batch).
        """
        if self._loop is not None:
            raise SimulationError(
                "service already started; build a new service to restart"
            )
        self._loop = EventLoop()
        self._full_replan("initial")
        self._self_check("initial")

    def offer(self, event: MutationEvent) -> None:
        """Feed one event into a started session and process it.

        Events must arrive in non-decreasing time order (the loop
        refuses to run backwards).  Advancing the clock to the event's
        time first fires any coalescing-window flush due strictly before
        it; a flush due at exactly that time fires on the next later
        offer or in :meth:`finish`, because trace replay runs every
        event at a time before the flush that falls due then.
        """
        if self._loop is None:
            raise SimulationError(
                "service not started; call start() before offer()"
            )
        if self._finished:
            raise SimulationError("service already finished")
        self._loop.advance(event.time)
        if event.kind == "listener":
            self._on_listener(event)
        else:
            self._on_mutation(event)

    def finish(self) -> LiveReport:
        """End an online session: drain to the horizon and report."""
        if self._loop is None:
            raise SimulationError(
                "service not started; call start() before finish()"
            )
        if self._finished:
            raise SimulationError("service already finished")
        self._finished = True
        self._loop.run(until=float(self.trace.horizon))
        return self._build_report()
