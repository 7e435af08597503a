"""Fast placement kernels — grid-identical to the reference scans.

The reference implementations of Algorithm 4 and Algorithm 1/2
(:mod:`repro.oracles`) probe the program grid cell by cell through
:class:`~repro.core.program.BroadcastProgram` accessors.
That is the right shape for reading the paper, but every probe pays
bounds checks and method dispatch.  The kernels here compute *exactly
the same placements* on numpy arrays and materialise the finished grid
in one pass via :meth:`BroadcastProgram.from_array`.

* **One Algorithm-4 group placement.**  :func:`place_group` places one
  group's copies on an int64 grid that may have holes; fresh PAMAD,
  m-PB and OPT plans call it once per group
  (:func:`place_by_frequency_fast`), and the live re-plan patch
  (:mod:`repro.live.replan`) calls it on the grid with one rung
  cleared.  The grid is column-major, so its free cells in (column,
  channel) order — the scan order of "first free column, lowest free
  channel" — are one ``flatnonzero`` over a flat view.
* **Static-window batch argument (Algorithm 4).**  The reference places
  pages of one group round-robin over that group's windows (page outer,
  window inner).  Windows tile the cycle disjointly, so — as long as no
  window overflows — every placement stays inside its own window, no
  page reaches a column twice, and window ``k``'s free cells are
  consumed in (column, channel) order, page by page.  Checking up front
  that every window holds at least ``|group|`` free cells therefore
  licenses placing the whole group with one flat write: page ``j`` of
  window ``k`` lands on the window's ``j``-th free cell, exactly where
  the reference scan puts it, holes or not.  A group with an
  overflowing window is placed copy by copy: a per-column Python cursor
  into the free-cell list picks the channel, and a path-compressed
  jump list skips full columns, so each copy costs amortised O(1) plus
  the columns it must skip because they already air its page.
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
``window_misses`` (and, for :func:`place_group`, ``shared``) counts and
identical error behaviour.
"""

from __future__ import annotations

from typing import Container, Sequence

import numpy as np

from repro.core.errors import SchedulingError, SearchSpaceError
from repro.core.intmath import ceil_div
from repro.core.pages import ProblemInstance
from repro.core.program import FREE, BroadcastProgram, SlotRef

__all__ = [
    "place_by_frequency_fast",
    "place_group",
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


def place_group(
    grid: np.ndarray, page_ids: Sequence[int], copies: int
) -> tuple[int, int]:
    """Algorithm 4 for one group: ``copies`` evenly spread copies per page.

    Writes every copy of ``page_ids`` into the free cells (:data:`FREE`)
    of ``grid`` in place.  The grid is a ``(num_channels, cycle)`` int64
    array in column-major (Fortran) order, so that its cells in
    (column, channel) order are one flat view; it may have holes
    anywhere, but must not air ``page_ids`` yet.  Pages are placed in the given order, each page's copy
    ``k`` in window ``k``, ``[ceil(cycle k / copies), ceil(cycle (k + 1)
    / copies))``: the first column of the window with a free cell that
    does not already air the page, at its lowest free channel.  A window
    without one sends the copy to the first such column cyclically from
    the window start (counted in ``window_misses``).  Only when every
    free column already airs the page does the copy share one of them,
    the first cyclically from the window start (counted in ``shared``).

    Returns ``(window_misses, shared)``.  The cell-by-cell oracle is
    :func:`repro.oracles.place_group_reference`.

    Raises:
        ValueError: If ``grid`` is not column-major.
        SchedulingError: If the grid has fewer free cells than the
            group has copies.
    """
    if not grid.flags.f_contiguous:
        raise ValueError("place_group needs a column-major (order='F') grid")
    num_channels, cycle = grid.shape
    # A view, the grid being column-major: cell (channel, column) sits
    # at column * num_channels + channel.
    flat = grid.T.reshape(-1)
    free = np.flatnonzero(flat == FREE)
    bounds = -(-cycle * np.arange(copies + 1, dtype=np.int64) // copies)
    edges = np.searchsorted(free, bounds * num_channels)
    ids = np.asarray(page_ids, dtype=np.int64)
    if int(np.diff(edges).min()) >= ids.size:
        # No window can overflow, so copies never leave their window and
        # no page reaches a column twice: page j of window k takes the
        # window's j-th free cell.
        take = edges[:-1, None] + np.arange(ids.size, dtype=np.int64)
        flat[free[take.ravel()]] = np.tile(ids, copies)
        return 0, 0

    # Some window overflows and copies leak across windows: place copy
    # by copy.  Column c's free cells are free[cursor[c]:stop[c]], taken
    # lowest channel first; ``jump`` links full columns onward
    # (path-compressed), so "first non-full column at or after c" is
    # amortised O(1).
    column_edges = np.searchsorted(
        free, np.arange(cycle + 1, dtype=np.int64) * num_channels
    )
    cursor = column_edges[:-1].tolist()
    stop = column_edges[1:].tolist()
    links = np.arange(cycle + 1, dtype=np.int64)
    links[:-1] += column_edges[1:] == column_edges[:-1]
    jump = links.tolist()
    starts = bounds[:-1].tolist()
    ends = bounds[1:].tolist()

    def find(column: int) -> int:
        root = column
        while jump[root] != root:
            root = jump[root]
        while jump[column] != root:
            column, jump[column] = jump[column], root
        return root

    def cyclic(start: int, skip: Container[int]) -> int:
        """First non-full column outside ``skip``, cyclically from
        ``start``; ``cycle`` when there is none."""
        for origin in (start, 0):
            column = find(origin)
            while column in skip:
                column = find(column + 1)
            if column < cycle:
                return column
        return cycle

    taken: list[int] = []
    misses = shared = 0
    for page_id in ids.tolist():
        held: set[int] = set()
        for k, (start, end) in enumerate(zip(starts, ends)):
            # The cyclic scan reaches the window's own columns first.
            column = cyclic(start, held)
            if not start <= column < end:
                misses += 1
            if column == cycle:
                # Every free column airs the page: share the first one
                # cyclically from the window start.
                shared += 1
                column = cyclic(start, ())
                if column == cycle:
                    raise SchedulingError(
                        f"no free cell left in the {cycle}-column grid "
                        f"for page {page_id} copy {k + 1}/{copies}"
                    )
            held.add(column)
            index = cursor[column]
            taken.append(index)
            index += 1
            cursor[column] = index
            if index == stop[column]:
                jump[column] = column + 1
    flat[free[taken]] = np.repeat(ids, copies)
    return misses, shared


def place_by_frequency_fast(
    instance: ProblemInstance,
    frequencies: Sequence[int],
    num_channels: int,
) -> tuple[BroadcastProgram, int]:
    """Algorithm-4 placement; grid-identical to the reference.

    Places the groups in descending frequency order, one
    :func:`place_group` call each, and returns ``(program,
    window_misses)`` — the pair the reference
    :func:`repro.oracles.place_by_frequency_reference` wraps in its
    ``PlacementResult``.  Copies that had to share a column stay: every
    page airs exactly ``S_i`` times.
    """
    _check_frequencies(instance, frequencies)
    total_slots = sum(
        s * group.size for s, group in zip(frequencies, instance.groups)
    )
    cycle = ceil_div(total_slots, num_channels)
    grid = np.full((num_channels, cycle), FREE, dtype=np.int64, order="F")
    order = sorted(
        range(instance.h), key=lambda i: frequencies[i], reverse=True
    )
    window_misses = 0
    for group_position in order:
        group = instance.groups[group_position]
        misses, _ = place_group(
            grid,
            [page.page_id for page in group.pages],
            frequencies[group_position],
        )
        window_misses += misses
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
