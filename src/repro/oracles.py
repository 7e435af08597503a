"""Reference implementations that the fast paths are tested against.

Nothing in the serving path imports this module: it holds the slow,
obviously-correct versions of computations the serving code performs
in a faster way, so tests can compare the two.  The one other caller
is the ABL4 ablation (:mod:`repro.analysis.experiments`), which times
the two literal GetAvailableSlot probes against each other — the
paper's §3.2 comparison.

* :func:`susc_reference` — SUSC's literal fill (Algorithms 1 and 2),
  probing the grid cell by cell with either the naive or the
  cursor-optimised GetAvailableSlot.  The array kernel behind
  :func:`~repro.core.susc.schedule_susc` must build the same program
  and first slots.
* :func:`place_by_frequency_reference` and
  :func:`place_sequential_reference` — Algorithm 4's even-spread
  placement and the ABL3 sequential strawman as cell-by-cell scans;
  :func:`~repro.core.pamad.place_by_frequency` and
  :func:`~repro.core.pamad.place_sequential` must produce the same
  grids and ``window_misses``.
* :func:`opt_frequencies_exhaustive` — OPT's exhaustive walk over every
  staged ``r`` vector; the branch-and-bound
  :func:`~repro.baselines.opt.opt_frequencies` must return the same
  assignment.
* :func:`route_sequential` — the federation's per-event router.  Every
  event, listener arrivals included, walks the catalog control loop one
  Python iteration at a time; the columnar
  :meth:`~repro.federation.service.FederatedBroadcastService.route`
  must produce the same :class:`~repro.federation.service.RoutedTrace`.
* :func:`federate_sequential` — a full federation run whose routing
  phase is :func:`route_sequential`; its report must equal
  :meth:`~repro.federation.service.FederatedBroadcastService.run`'s
  byte for byte.
* :func:`live_sequential` — a live-service trace replay that walks the
  trace event by event on the loop, one listener at a time; its
  :class:`~repro.live.service.LiveReport` must equal
  :meth:`~repro.live.service.LiveBroadcastService.run`'s, the SLO wait
  total bit for bit, up to the event log's listener entries (one per
  listener here, one ``listener_batch`` per run of listeners there).
* :func:`try_place_reference` — the live service's incremental insert
  as a column-by-column scan of every offset; the one-pass array
  search of ``LiveBroadcastService._try_place`` must take the same
  cells.
* :func:`replay_requests_sequential` — the Figure-5 measurement as a
  per-request loop: a :meth:`~repro.core.program.BroadcastProgram.
  wait_time` bisect and three Welford folds per request.  The
  vectorised :func:`~repro.sim.clients.replay_requests` and
  :func:`~repro.sim.clients.measure_program` must return an equal
  :class:`~repro.sim.clients.MeasurementResult`, float for float.
"""

from __future__ import annotations

from functools import partial
import math
from typing import Sequence

import numpy as np

from repro.core.bounds import minimum_channels
from repro.core.delay import paper_group_delay
from repro.core.errors import (
    InsufficientChannelsError,
    SchedulingError,
    SearchSpaceError,
    SimulationError,
)
from repro.core.frequencies import (
    FrequencyAssignment,
    frequencies_from_r,
    r_upper_bound,
)
from repro.core.intmath import ceil_div
from repro.core.pages import Page, ProblemInstance
from repro.core.pamad import PlacementResult
from repro.core.program import BroadcastProgram, SlotRef
from repro.core.susc import SuscSchedule
from repro.federation.service import (
    FederatedBroadcastService,
    FederationReport,
    RoutedTrace,
    _RouterState,
)
from repro.live.service import LiveBroadcastService, LiveReport
from repro.sim.clients import MeasurementResult
from repro.sim.metrics import StreamingStats

__all__ = [
    "federate_sequential",
    "live_sequential",
    "opt_frequencies_exhaustive",
    "place_by_frequency_reference",
    "place_sequential_reference",
    "replay_requests_sequential",
    "route_sequential",
    "susc_reference",
    "try_place_reference",
]


# ----------------------------------------------------------------------
# SUSC (Section 3.2)
# ----------------------------------------------------------------------


def _get_available_slot(
    program: BroadcastProgram, page: Page
) -> SlotRef:
    """GetAvailableSlot (Algorithm 2): first free slot within the window.

    Scans channels in order; within each channel scans slots
    ``0 .. t_i - 1``.  Theorem 3.2 says this always succeeds when the
    channel count meets the Theorem 3.1 bound, so failure is reported as a
    hard error rather than a soft "not found".
    """
    for channel in range(program.num_channels):
        slot = program.free_slot_in_channel_window(
            channel, page.expected_time
        )
        if slot is not None:
            return SlotRef(slot=slot, channel=channel)
    raise SchedulingError(
        f"GetAvailableSlot found no free slot for {page} in the first "
        f"{page.expected_time} slots of any of {program.num_channels} "
        "channels — Theorem 3.2 violated (channel count below the bound, "
        "or a placement bug)"
    )


def _get_available_slot_cursored(
    program: BroadcastProgram, page: Page, cursors: list[int]
) -> SlotRef:
    """Cursor-accelerated GetAvailableSlot (the paper's §3.2 optimisation).

    The paper notes the slot search "need not be always starting from the
    first slot of every channel".  Because SUSC fills each channel's
    prefix monotonically (pages are placed at the first free slot and
    their periodic copies only land at or after it), the first free slot
    of a channel never moves backwards — so a per-channel cursor finds it
    in amortised O(1) instead of rescanning the prefix for every page.
    Returns exactly what the naive scan would.
    """
    for channel in range(program.num_channels):
        # Advance the cursor over cells filled since the last visit.
        while (
            cursors[channel] < program.cycle_length
            and not program.is_free(channel, cursors[channel])
        ):
            cursors[channel] += 1
        if cursors[channel] < page.expected_time:
            return SlotRef(slot=cursors[channel], channel=channel)
    raise SchedulingError(
        f"GetAvailableSlot found no free slot for {page} in the first "
        f"{page.expected_time} slots of any of {program.num_channels} "
        "channels — Theorem 3.2 violated (channel count below the bound, "
        "or a placement bug)"
    )


def susc_reference(
    instance: ProblemInstance,
    num_channels: int | None = None,
    optimized: bool = False,
) -> SuscSchedule:
    """SUSC's literal fill, one GetAvailableSlot probe per page.

    ``optimized`` swaps the naive probe for the paper's §3.2 cursor
    probe; both find the same slots, so only the search cost differs.
    The program is not re-validated.

    Raises:
        InsufficientChannelsError: If ``num_channels`` is below the bound.
        SchedulingError: If a placement invariant fails.
    """
    required = minimum_channels(instance)
    if num_channels is None:
        num_channels = required
    if num_channels < required:
        raise InsufficientChannelsError(
            provided=num_channels, required=required
        )

    cycle = instance.max_expected_time
    program = BroadcastProgram(
        num_channels=num_channels, cycle_length=cycle
    )
    first_slots: dict[int, SlotRef] = {}
    cursors = [0] * num_channels

    for page in instance.pages_sorted_for_susc():
        if optimized:
            start = _get_available_slot_cursored(program, page, cursors)
        else:
            start = _get_available_slot(program, page)
        first_slots[page.page_id] = start
        repetitions = ceil_div(cycle, page.expected_time)  # ceil(t_h / t_i)
        for k in range(repetitions):
            slot = start.slot + k * page.expected_time
            if slot >= cycle:
                break
            if not program.is_free(start.channel, slot):
                raise SchedulingError(
                    f"Theorem 3.3 violated: periodic slot "
                    f"(ch={start.channel}, slot={slot}) for {page} is "
                    "already occupied"
                )
            program.assign(start.channel, slot, page.page_id)

    return SuscSchedule(
        program=program,
        instance=instance,
        num_channels=num_channels,
        first_slots=first_slots,
    )


# ----------------------------------------------------------------------
# Placement (Algorithm 4 and the ABL3 strawman)
# ----------------------------------------------------------------------


def place_by_frequency_reference(
    instance: ProblemInstance,
    frequencies: Sequence[int],
    num_channels: int,
) -> PlacementResult:
    """Algorithm 4 as a cell-by-cell scan of every copy's window."""
    if len(frequencies) != instance.h:
        raise SearchSpaceError(
            f"got {len(frequencies)} frequencies for h={instance.h} groups"
        )
    if any(s < 1 for s in frequencies):
        raise SearchSpaceError(
            f"frequencies must be >= 1, got {list(frequencies)}"
        )
    total_slots = sum(
        s * group.size for s, group in zip(frequencies, instance.groups)
    )
    cycle = ceil_div(total_slots, num_channels)
    program = BroadcastProgram(
        num_channels=num_channels, cycle_length=cycle
    )

    # Paper: "sort all data pages in descending order according to their
    # broadcast frequency" — most-frequent pages claim their evenly spaced
    # columns first.
    order = sorted(
        range(instance.h), key=lambda i: frequencies[i], reverse=True
    )
    window_misses = 0
    fallback = _CyclicFallbackCursor(program)
    for group_position in order:
        group = instance.groups[group_position]
        s_i = frequencies[group_position]
        for page in group.pages:
            for k in range(s_i):
                window_start = ceil_div(cycle * k, s_i)
                window_end = ceil_div(cycle * (k + 1), s_i)  # exclusive
                placed = False
                for column in range(window_start, min(window_end, cycle)):
                    channel = program.free_channel_in_column(column)
                    if channel is not None:
                        program.assign(channel, column, page.page_id)
                        placed = True
                        break
                if not placed:
                    window_misses += 1
                    placed = fallback.place(page.page_id, window_start)
                if not placed:
                    raise SchedulingError(
                        f"no free slot anywhere in the cycle for page "
                        f"{page.page_id} copy {k + 1}/{s_i}; cycle length "
                        f"{cycle} cannot hold {total_slots} slots"
                    )
    return PlacementResult(program=program, window_misses=window_misses)


def place_sequential_reference(
    instance: ProblemInstance,
    frequencies: Sequence[int],
    num_channels: int,
) -> PlacementResult:
    """The ABL3 strawman as a frontier-cursor scan, column by column."""
    if len(frequencies) != instance.h:
        raise SearchSpaceError(
            f"got {len(frequencies)} frequencies for h={instance.h} groups"
        )
    if any(s < 1 for s in frequencies):
        raise SearchSpaceError(
            f"frequencies must be >= 1, got {list(frequencies)}"
        )
    total_slots = sum(
        s * group.size for s, group in zip(frequencies, instance.groups)
    )
    cycle = ceil_div(total_slots, num_channels)
    program = BroadcastProgram(
        num_channels=num_channels, cycle_length=cycle
    )
    cursor = 0  # column of the last successful placement; never decreases
    fallback = _CyclicFallbackCursor(program)
    order = sorted(
        range(instance.h), key=lambda i: frequencies[i], reverse=True
    )
    for group_position in order:
        group = instance.groups[group_position]
        s_i = frequencies[group_position]
        for page in group.pages:
            for _ in range(s_i):
                placed = False
                for column in range(cursor, cycle):
                    channel = program.free_channel_in_column(column)
                    if channel is not None:
                        program.assign(channel, column, page.page_id)
                        cursor = column
                        placed = True
                        break
                if not placed:
                    # Earlier columns may still have holes (cursor only
                    # tracks the frontier); rescan from the start once.
                    cursor = 0
                    placed = fallback.place(page.page_id, 0)
                if not placed:
                    raise SchedulingError(
                        f"grid full before placing page {page.page_id}"
                    )
    return PlacementResult(program=program, window_misses=0)


class _CyclicFallbackCursor:
    """Amortised-linear cyclic fallback placement for one program build.

    The naive fallback rescanned every column from the requested offset,
    making repeated fallbacks O(cycle^2).  Columns only ever fill up
    during a placement run, so full columns can be remembered: a
    pointer-jumping array (path-compressed) links each known-full column
    to the next candidate, and every probe either places a page or
    permanently marks one more column full.  Each column is marked at
    most once per run, so all fallbacks together cost one scan of the
    grid — and the column chosen is exactly the one the naive cyclic
    scan would have found (the first non-full column cyclically from
    the start offset).
    """

    def __init__(self, program: BroadcastProgram) -> None:
        self._program = program
        self._next_free = list(range(program.cycle_length + 1))

    def _find(self, column: int) -> int:
        """First non-full column at or after ``column`` (cycle = none)."""
        program = self._program
        next_free = self._next_free
        cycle = program.cycle_length
        root = column
        while True:
            while next_free[root] != root:
                root = next_free[root]
            if root >= cycle:
                break
            if program.free_channel_in_column(root) is not None:
                break
            # Learned this column is full (placements outside the
            # fallback filled it); link it forward for good.
            next_free[root] = root + 1
        while next_free[column] != root:
            column, next_free[column] = next_free[column], root
        return root

    def place(self, page_id: int, start_column: int) -> bool:
        """Place in the first free cell scanning cyclically from a column."""
        program = self._program
        cycle = program.cycle_length
        column = self._find(start_column)
        if column >= cycle:
            column = self._find(0)
            if column >= start_column:
                return False
        channel = program.free_channel_in_column(column)
        program.assign(channel, column, page_id)
        return True


# ----------------------------------------------------------------------
# OPT (Section 5)
# ----------------------------------------------------------------------


def opt_frequencies_exhaustive(
    instance: ProblemInstance,
    num_channels: int,
    max_r: int | None = None,
) -> FrequencyAssignment:
    """OPT's exhaustive depth-first walk over every staged ``r`` vector.

    Every leaf is evaluated with the scalar Equation-(2) objective and
    accepted only when ``delay < best - 1e-12``, so ties keep the
    lexicographically smallest ``r`` vector.
    """
    if num_channels <= 0:
        raise SearchSpaceError(
            f"num_channels must be positive, got {num_channels}"
        )
    sizes = instance.group_sizes
    times = instance.expected_times
    h = instance.h

    best_r: tuple[int, ...] = ()
    best_delay = math.inf

    def descend(r_values: list[int], stage: int) -> None:
        nonlocal best_r, best_delay
        if stage > h:
            frequencies = frequencies_from_r(r_values, h)
            delay = paper_group_delay(
                frequencies, sizes, times, num_channels
            )
            if delay < best_delay - 1e-12:
                best_delay = delay
                best_r = tuple(r_values)
            return
        bound = r_upper_bound(r_values, stage, sizes, times, num_channels)
        if max_r is not None:
            bound = min(bound, max_r)
        for candidate in range(1, bound + 1):
            r_values.append(candidate)
            descend(r_values, stage + 1)
            r_values.pop()

    descend([], 2)
    return FrequencyAssignment(
        frequencies=frequencies_from_r(list(best_r), h),
        r_values=best_r,
        num_channels=num_channels,
        stage_delays=(),
        predicted_delay=best_delay,
    )


# ----------------------------------------------------------------------
# Federation routing
# ----------------------------------------------------------------------


def route_sequential(service: FederatedBroadcastService) -> RoutedTrace:
    """The reference pass: every event walks the control loop."""
    state = _RouterState(service)
    controller = state.controller
    routing = state.routing
    listener_shard = np.full(len(service.trace.events), -1, dtype=np.int64)
    for index, event in enumerate(service.trace.events):
        if event.kind == "listener":
            shard = controller.locate(event.page_id)
            if shard is None:
                shard = service._effective_owner(
                    int(event.expected_time or 1)
                )
                routing["orphan_listeners"] += 1
            listener_shard[index] = shard
            routing["listeners_routed"] += 1
        else:
            state.handle_catalog(event)
    state.finish()
    return RoutedTrace(
        controller=controller,
        decisions=state.decisions,
        rebalances=state.rebalances,
        routing=routing,
        catalog_events=state.catalog_events,
        listener_shard=listener_shard,
    )


def federate_sequential(
    service: FederatedBroadcastService, **run_kwargs
) -> FederationReport:
    """Run ``service`` with the reference router (once per service).

    ``run_kwargs`` are :meth:`FederatedBroadcastService.run`'s fan-out
    arguments (``workers``, ``mode``, ``policy``, ``telemetry``,
    ``pool``).
    """
    return service._replay(route_sequential(service), **run_kwargs)


# ----------------------------------------------------------------------
# Live service
# ----------------------------------------------------------------------


def live_sequential(service: LiveBroadcastService) -> LiveReport:
    """Replay ``service``'s trace event by event (once per service).

    Every trace event is scheduled on the loop up front, so an event at
    a coalescing flush's due time runs before that flush.
    """
    service.start()
    for event in service.trace.events:
        handler = (
            service._on_listener
            if event.kind == "listener"
            else service._on_mutation
        )
        service._loop.schedule_at(event.time, partial(handler, event))
    return service.finish()


def try_place_reference(
    program: BroadcastProgram, page_id: int, expected_time: int
) -> bool:
    """The live incremental insert as a column-by-column scan.

    Places ``page_id`` without moving any page: one appearance in the
    first free cell by airtime when ``expected_time >= cycle``, else the
    first offset ``o < t`` whose columns ``o, o + t, ...`` each have a
    free channel, taking the lowest one per column; an off-ladder
    deadline (``t`` not dividing the cycle) places nothing.  The array
    search in ``LiveBroadcastService._try_place`` must take the same
    cells.
    """
    cycle = program.cycle_length
    if expected_time >= cycle:
        for ref in program.free_cells():
            program.assign(ref.channel, ref.slot, page_id)
            return True
        return False
    if cycle % expected_time != 0:
        # Off-ladder deadline: no periodic column pattern exists.
        return False
    period = expected_time
    for offset in range(period):
        columns = range(offset, cycle, period)
        channels = []
        for slot in columns:
            channel = program.free_channel_in_column(slot)
            if channel is None:
                break
            channels.append((channel, slot))
        else:
            for channel, slot in channels:
                program.assign(channel, slot, page_id)
            return True
    return False


# ----------------------------------------------------------------------
# Client measurement (Section 5)
# ----------------------------------------------------------------------


def replay_requests_sequential(
    program: BroadcastProgram,
    instance: ProblemInstance,
    requests,
) -> MeasurementResult:
    """The per-request measurement loop: one bisect and fold per request."""
    delay_stats = StreamingStats()
    wait_stats = StreamingStats()
    group_stats: dict[int, StreamingStats] = {}
    misses = 0

    for request in requests:
        page = instance.page(request.page_id)
        if program.broadcast_count(page.page_id) == 0:
            raise SimulationError(
                f"request for page {page.page_id} but the program never "
                "broadcasts it"
            )
        wait = program.wait_time(page.page_id, request.arrival)
        delay = max(0.0, wait - page.expected_time)
        if delay > 0:
            misses += 1
        delay_stats.add(delay)
        wait_stats.add(wait)
        group_stats.setdefault(
            page.group_index, StreamingStats()
        ).add(delay)

    if delay_stats.count == 0:
        raise SimulationError("empty request stream")
    return MeasurementResult(
        average_delay=delay_stats.mean,
        average_wait=wait_stats.mean,
        miss_ratio=misses / delay_stats.count,
        num_requests=delay_stats.count,
        delay_stats=delay_stats,
        group_delay={
            index: stats.mean for index, stats in sorted(group_stats.items())
        },
    )
