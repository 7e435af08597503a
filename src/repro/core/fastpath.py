"""Fast placement kernels — byte-identical to the reference scans.

The reference implementations of Algorithm 4 and Algorithm 1/2
(:mod:`repro.oracles`) probe the program grid cell by cell through
:class:`~repro.core.program.BroadcastProgram` accessors.
That is the right shape for reading the paper, but every probe pays
bounds checks and method dispatch, and the column/window scans are
quadratic in practice.  The kernels here compute *exactly the same
placements* on numpy occupancy arrays — no per-slot Python loop anywhere
on the placement path — and materialise the finished grid in one pass
via :meth:`BroadcastProgram.from_array`.

Why the outputs are provably identical:

* **Prefix-occupancy invariant.**  Algorithm-4 placement only ever fills
  a column through "first free channel in this column" and never clears
  a cell, so the occupied channels of any column are exactly
  ``0..fill-1``.  The free cells of the grid, enumerated column-major,
  are therefore fully described by the per-column ``fill`` counts — and
  a prefix-sum over ``num_channels - fill`` ranks every free cell.
* **Static-window batch argument (Algorithm 4).**  The reference places
  pages of one group round-robin over that group's windows (page outer,
  window inner).  Windows tile the cycle disjointly, so — as long as no
  window overflows — every placement stays inside its own window and
  window ``k``'s free-cell supply is consumed in column-major rank
  order, page by page.  Checking up front that every window holds at
  least ``|group|`` free cells therefore licenses placing the whole
  group with one fancy-indexed write: page ``j`` of window ``k`` lands
  on the window's ``j``-th ranked free cell, exactly where the
  reference scan puts it.  A group with an overflowing window falls
  back to a per-placement pointer-jumping loop that replays the
  reference's cyclic-fallback order (and its ``window_misses`` count).
* **Static-window batch argument (SUSC).**  A page's periodic copies
  land at ``start + k * t_i`` with ``start < t_i``, so copies never
  re-enter the ``[0, t_i)`` window of the channel that hosts them.
  While one expected-time run of pages is being placed, each channel's
  free-slot set inside the window is therefore static, and the
  reference's page-by-page channel scan degenerates to: fill channel
  0's free window slots in ascending order, then channel 1's, and so
  on.  One ``flatnonzero`` per (run, channel) plus a masked periodic
  write reproduces that exactly; a per-channel first-free cursor (the
  monotone cursor of the paper's optimised GetAvailableSlot) decides
  window eligibility without rescanning.

Property tests (:mod:`tests.test_fastpath`) pin the equality: for every
instance the fast kernels produce grid-identical programs, identical
``window_misses`` counts and identical error behaviour.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import SchedulingError, SearchSpaceError
from repro.core.intmath import ceil_div
from repro.core.pages import ProblemInstance
from repro.core.program import BroadcastProgram, SlotRef

__all__ = [
    "place_by_frequency_fast",
    "place_sequential_fast",
    "susc_fill_fast",
]


def _check_frequencies(
    instance: ProblemInstance, frequencies: Sequence[int]
) -> None:
    """The reference placement functions' validation, messages included."""
    if len(frequencies) != instance.h:
        raise SearchSpaceError(
            f"got {len(frequencies)} frequencies for h={instance.h} groups"
        )
    if any(s < 1 for s in frequencies):
        raise SearchSpaceError(
            f"frequencies must be >= 1, got {list(frequencies)}"
        )


def _make_find(next_free: list[int]):
    """First non-full column at or after ``c`` with path compression."""

    def find(column: int) -> int:
        root = column
        while next_free[root] != root:
            root = next_free[root]
        while next_free[column] != root:
            column, next_free[column] = next_free[column], root
        return root

    return find


def _place_group_fallback(
    grid: np.ndarray,
    fill: np.ndarray,
    pages,
    s_i: int,
    cycle: int,
    num_channels: int,
    total_slots: int,
) -> int:
    """Reference-order placement for one group with an overflowing window.

    Once any window of a group can overflow, placements leak into other
    windows and the batch argument no longer holds — so this group runs
    the per-placement pointer-jumping loop (amortised O(1) per
    placement, no per-slot scan), reproducing the reference's cyclic
    fallback order and its ``window_misses`` count exactly.
    """
    next_free = list(range(cycle + 1))
    for column in np.flatnonzero(fill == num_channels).tolist():
        next_free[column] = column + 1
    find = _make_find(next_free)
    misses = 0
    for page in pages:
        page_id = page.page_id
        for k in range(s_i):
            window_start = ceil_div(cycle * k, s_i)
            window_end = ceil_div(cycle * (k + 1), s_i)  # exclusive
            column = find(window_start)
            if column >= min(window_end, cycle):
                # Window full: the reference falls back to a cyclic
                # scan from window_start — first free in
                # [window_start, cycle), else first free in
                # [0, window_start).
                misses += 1
                if column >= cycle:
                    column = find(0)
                    if column >= window_start:
                        raise SchedulingError(
                            f"no free slot anywhere in the cycle for "
                            f"page {page_id} copy {k + 1}/{s_i}; "
                            f"cycle length {cycle} cannot hold "
                            f"{total_slots} slots"
                        )
            channel = int(fill[column])
            grid[channel, column] = page_id
            fill[column] = channel + 1
            if channel + 1 == num_channels:
                next_free[column] = column + 1
    return misses


def place_by_frequency_fast(
    instance: ProblemInstance,
    frequencies: Sequence[int],
    num_channels: int,
) -> tuple[BroadcastProgram, int]:
    """Algorithm-4 placement as array kernels; grid-identical to the reference.

    Returns ``(program, window_misses)`` — the same pair the reference
    :func:`repro.oracles.place_by_frequency_reference` wraps in its
    ``PlacementResult``.
    """
    _check_frequencies(instance, frequencies)
    total_slots = sum(
        s * group.size for s, group in zip(frequencies, instance.groups)
    )
    cycle = ceil_div(total_slots, num_channels)
    grid = np.full((num_channels, cycle), -1, dtype=np.int64)
    fill = np.zeros(cycle, dtype=np.int64)

    order = sorted(
        range(instance.h), key=lambda i: frequencies[i], reverse=True
    )
    window_misses = 0
    for group_position in order:
        group = instance.groups[group_position]
        s_i = frequencies[group_position]
        m = group.size
        if m == 0:
            continue
        bounds = -(-cycle * np.arange(s_i + 1, dtype=np.int64) // s_i)
        starts = bounds[:-1]
        ends = np.minimum(bounds[1:], cycle)
        free_per_col = num_channels - fill
        cumfree = np.concatenate(([0], np.cumsum(free_per_col)))
        counts = cumfree[ends] - cumfree[starts]
        if int(counts.min()) < m:
            window_misses += _place_group_fallback(
                grid, fill, group.pages, s_i, cycle, num_channels,
                total_slots,
            )
            continue
        # No window can overflow: rank every free cell column-major and
        # hand window k's ranks [cumfree[start_k], cumfree[start_k] + m)
        # to the group's pages in order.
        page_ids = np.fromiter(
            (page.page_id for page in group.pages),
            dtype=np.int64,
            count=m,
        )
        col_of_rank = np.repeat(np.arange(cycle), free_per_col)
        ranks = (
            cumfree[starts][:, None]
            + np.arange(m, dtype=np.int64)[None, :]
        ).ravel()
        cols = col_of_rank[ranks]
        chans = fill[cols] + (ranks - cumfree[cols])
        grid[chans, cols] = np.broadcast_to(page_ids, (s_i, m)).ravel()
        fill += np.bincount(cols, minlength=cycle)
    return BroadcastProgram.from_array(grid), window_misses


def place_sequential_fast(
    instance: ProblemInstance,
    frequencies: Sequence[int],
    num_channels: int,
) -> tuple[BroadcastProgram, int]:
    """Sequential (ABL3 strawman) placement as one reshape.

    Grid-identical to :func:`repro.oracles.place_sequential_reference`:
    from an empty grid the reference's frontier cursor consumes cells in
    strict column-major order and can never exhaust the frontier early
    (the Equation-8 cycle holds every copy), so the whole placement is
    the flattened repeat sequence laid column-major over the grid.
    """
    _check_frequencies(instance, frequencies)
    total_slots = sum(
        s * group.size for s, group in zip(frequencies, instance.groups)
    )
    cycle = ceil_div(total_slots, num_channels)
    order = sorted(
        range(instance.h), key=lambda i: frequencies[i], reverse=True
    )
    parts = []
    for group_position in order:
        group = instance.groups[group_position]
        ids = np.fromiter(
            (page.page_id for page in group.pages),
            dtype=np.int64,
            count=group.size,
        )
        parts.append(np.repeat(ids, frequencies[group_position]))
    values = np.concatenate(parts)
    flat = np.full(cycle * num_channels, -1, dtype=np.int64)
    flat[: values.size] = values
    grid = flat.reshape(cycle, num_channels).T
    return BroadcastProgram.from_array(grid), 0


def susc_fill_fast(
    instance: ProblemInstance, num_channels: int
) -> tuple[BroadcastProgram, dict[int, SlotRef]]:
    """Algorithm 1/2 fill as array kernels; grid-identical to the reference.

    Returns ``(program, first_slots)``; the caller
    (:func:`repro.core.susc.schedule_susc`) owns bound checking and
    validation.
    """
    cycle = instance.max_expected_time
    grid = np.full((num_channels, cycle), -1, dtype=np.int64)
    # First truly-free slot per channel (== the reference cursor);
    # ``cursor < window`` is exactly GetAvailableSlot's acceptance test.
    cursors = np.zeros(num_channels, dtype=np.int64)
    first_slots: dict[int, SlotRef] = {}

    groups = instance.groups
    index = 0
    while index < len(groups):
        window = groups[index].expected_time
        run = list(groups[index].pages)
        index += 1
        while (
            index < len(groups)
            and groups[index].expected_time == window
        ):
            run.extend(groups[index].pages)
            index += 1

        reps = ceil_div(cycle, window)
        offsets = np.arange(reps, dtype=np.int64) * window
        position = 0
        for channel in np.flatnonzero(cursors < window).tolist():
            if position >= len(run):
                break
            row = grid[channel]
            free_window = np.flatnonzero(row[:window] == -1)
            take = min(free_window.size, len(run) - position)
            chunk = run[position: position + take]
            starts = free_window[:take]
            slots = starts[:, None] + offsets[None, :]
            mask = slots < cycle
            flat_slots = slots[mask]  # row-major: page order, then copy
            occupied = row[flat_slots] != -1
            if occupied.any():
                first_bad = int(np.argmax(occupied))
                per_page = np.cumsum(mask.sum(axis=1))
                page = chunk[
                    int(np.searchsorted(per_page, first_bad, side="right"))
                ]
                raise SchedulingError(
                    f"Theorem 3.3 violated: periodic slot "
                    f"(ch={channel}, slot={int(flat_slots[first_bad])}) "
                    f"for {page} is already occupied"
                )
            row[flat_slots] = np.repeat(
                np.fromiter(
                    (page.page_id for page in chunk),
                    dtype=np.int64,
                    count=take,
                ),
                mask.sum(axis=1),
            )
            starts_list = starts.tolist()
            for offset, page in enumerate(chunk):
                first_slots[page.page_id] = SlotRef(
                    slot=starts_list[offset], channel=channel
                )
            remaining_free = np.flatnonzero(row == -1)
            cursors[channel] = (
                remaining_free[0] if remaining_free.size else cycle
            )
            position += take
        if position < len(run):
            page = run[position]
            raise SchedulingError(
                f"GetAvailableSlot found no free slot for {page} in the "
                f"first {window} slots of any of {num_channels} "
                "channels — Theorem 3.2 violated (channel count below "
                "the bound, or a placement bug)"
            )
    return BroadcastProgram.from_array(grid), first_slots
