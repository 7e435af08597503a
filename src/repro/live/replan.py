"""Patch-based re-plan fast path for the live service (degraded regime).

A degraded-mode mutation (an insert or retune arriving while the
Theorem-3.1 requirement exceeds the channel budget) forces a full PAMAD
re-plan of the whole catalog, yet the typical mutation moves a single
page within one expected-time group.  When the rest of the plan provably
cannot change, re-deriving every other group's placement is pure waste:
only the changed group's copies need to move.

:class:`FastReplanner` keeps a snapshot of the last full PAMAD plan and
patches the on-air grid instead of re-planning when *all* of the
following hold against the current catalog:

* the expected-time rungs (and therefore the group structure) are the
  ones the snapshot was planned for;
* at most one rung's page set changed since the snapshot;
* the frequency vector recomputed for the current group sizes
  (Algorithm 3, via :func:`~repro.core.frequencies.pamad_frequencies_for`
  on raw sizes — no instance construction) differs from the snapshot's
  in at most that same rung;
* the Equation-8 cycle for the new ``sum S_i P_i`` equals the on-air
  cycle, so the grid shape — and with it every *unchanged* group's
  Algorithm-4 windows — is preserved.

The patch then (1) clears every cell of the changed rung's pages and
(2) re-places the rung's current page set, ``S_i`` copies each, through
the Algorithm-4 window scan.  Two implementations share that contract:

* the **packed fast path** edits a copy of the program's int64 grid
  mirror (:meth:`~repro.core.program.BroadcastProgram.packed_grid`)
  with three numpy passes — clear by ``isin`` mask, enumerate free
  cells in (column, channel) order, deal the first ``|rung|`` free
  cells of every window to the rung's pages — which is what keeps a
  taut-budget re-plan under 100µs;
* the **reference patcher** walks cells one by one with per-column
  occupancy bitmasks (clearing punches holes mid-column, so the
  prefix-occupancy shortcut of :mod:`repro.core.fastpath` does not
  apply; a bitmask keeps the probe O(1) per column regardless).  It
  remains the oracle the fast path is property-tested against, and
  handles the rare window-overflow regime where placements spill into
  the cyclic fallback and steal cells across windows.

The patched program is a legitimate Algorithm-4 placement for the
current catalog — exact per-page counts, Equation-8 cycle, no page
twice in one column — and the whole procedure is deterministic, so
live replay stays byte-identical run to run.  The cycle check (``sum
S_i P_i <= N * cycle``) guarantees free cells for every copy, but not
in distinct columns: when the cyclic fallback finds only columns that
already air the page, the patch returns ``None`` and the caller
re-plans in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.frequencies import pamad_frequencies_for
from repro.core.intmath import ceil_div
from repro.core.program import BroadcastProgram

__all__ = ["ReplanState", "FastReplanner"]


@dataclass(frozen=True)
class ReplanState:
    """Snapshot of the last full PAMAD plan the patch path can extend.

    Attributes:
        times: Ascending expected-time rungs at plan time.
        frequencies: The plan's ``(S_1..S_h)``, aligned with ``times``.
        cycle: The plan's Equation-8 major-cycle length.
        budget: ``N_real`` the plan was built for.
        catalog: The ``page_id -> expected_time`` mapping at plan time.
    """

    times: tuple[int, ...]
    frequencies: tuple[int, ...]
    cycle: int
    budget: int
    catalog: Mapping[int, int]


class FastReplanner:
    """One-group patch planner over the last full PAMAD plan."""

    def __init__(self) -> None:
        self._state: ReplanState | None = None
        # expected_time -> frozenset of page ids, aligned with
        # ``self.state.catalog``.  Built lazily on the first patch after
        # a full re-plan, then maintained incrementally (only the
        # patched rung's set is replaced), so no patch ever pays a
        # whole-catalog grouping pass twice.
        self._rungs: dict[int, frozenset[int]] | None = None

    @property
    def state(self) -> ReplanState | None:
        """The last remembered full-plan snapshot (``None`` = no fast path)."""
        return self._state

    @state.setter
    def state(self, value: ReplanState | None) -> None:
        # Any external assignment (benchmark rewinds, tests) must also
        # drop the rung cache — it describes the snapshot's catalog.
        self._state = value
        self._rungs = None

    def remember(
        self,
        *,
        catalog: Mapping[int, int],
        times: tuple[int, ...],
        frequencies: tuple[int, ...],
        cycle: int,
        budget: int,
    ) -> None:
        """Record a freshly committed full PAMAD plan."""
        self.state = ReplanState(
            times=tuple(times),
            frequencies=tuple(frequencies),
            cycle=cycle,
            budget=budget,
            catalog=dict(catalog),
        )
        self._rungs = None

    def invalidate(self) -> None:
        """Drop the snapshot (the regime changed, e.g. back to SUSC)."""
        self.state = None
        self._rungs = None

    def _rung_sets(self) -> dict[int, frozenset[int]]:
        """Per-rung page sets of the snapshot catalog, built on demand."""
        rungs = self._rungs
        if rungs is None:
            grouped: dict[int, set[int]] = {}
            for page_id, expected in self.state.catalog.items():
                grouped.setdefault(expected, set()).add(page_id)
            rungs = {
                expected: frozenset(pages)
                for expected, pages in grouped.items()
            }
            self._rungs = rungs
        return rungs

    def try_patch(
        self,
        catalog: Mapping[int, int],
        program: BroadcastProgram | None,
    ) -> BroadcastProgram | None:
        """Patch ``program`` for ``catalog``, or ``None`` if ineligible."""
        state = self.state
        if state is None or program is None:
            return None
        if (
            program.cycle_length != state.cycle
            or program.num_channels != state.budget
        ):
            return None
        # One diff pass per catalog instead of materialising every
        # rung's page set: count rung sizes and collect the rungs any
        # page entered or left, bailing the moment a second rung is
        # touched.  This is the latency-critical eligibility check — a
        # typical mutation changes one page, and grouping both catalogs
        # into per-rung sets cost more than the patch itself.
        old_catalog = state.catalog
        counts = dict.fromkeys(state.times, 0)
        changed_times: set[int] = set()
        added: list[int] = []
        removed: list[int] = []
        for page_id, time in catalog.items():
            count = counts.get(time)
            if count is None:
                return None  # a rung the snapshot was not planned for
            counts[time] = count + 1
            old_time = old_catalog.get(page_id)
            if old_time != time:
                changed_times.add(time)
                added.append(page_id)
                if old_time is not None:
                    changed_times.add(old_time)
                if len(changed_times) > 1:
                    return None
        # Pages can only have left the catalog if the arithmetic says
        # so; skip the whole-snapshot membership scan otherwise (the
        # common mutation is a pure insert).
        if len(old_catalog) > len(catalog) - len(added):
            for page_id, time in old_catalog.items():
                if page_id not in catalog:
                    changed_times.add(time)
                    removed.append(page_id)
                    if len(changed_times) > 1:
                        return None
        sizes = tuple(counts[time] for time in state.times)
        if 0 in sizes:
            return None  # a rung emptied: the group structure changed

        assignment = pamad_frequencies_for(
            sizes, state.times, state.budget
        )
        frequencies = assignment.frequencies
        for index, (new, old) in enumerate(
            zip(frequencies, state.frequencies)
        ):
            if new != old:
                changed_times.add(state.times[index])
                if len(changed_times) > 1:
                    return None
        cycle = ceil_div(
            sum(s * p for s, p in zip(frequencies, sizes)), state.budget
        )
        if cycle != state.cycle:
            return None

        if not changed_times:
            # Nothing moved since the plan (e.g. an SLO-triggered re-plan
            # on an unchanged catalog): the on-air program IS the plan.
            return program

        rung_time = changed_times.pop()
        index = state.times.index(rung_time)
        rungs = self._rung_sets()
        old_rung = rungs.get(rung_time, frozenset())
        # Reaching here means the diff touched exactly one rung, so the
        # added/removed pages collected above are all this rung's.
        new_rung = (old_rung - set(removed)) | set(added)
        patched = self._patch(
            program,
            clear_pages=old_rung | new_rung,
            place_pages=new_rung,
            copies=frequencies[index],
            num_channels=state.budget,
        )
        if patched is None:
            return None
        self.state = ReplanState(
            times=state.times,
            frequencies=frequencies,
            cycle=cycle,
            budget=state.budget,
            catalog=dict(catalog),
        )
        self._rungs = {**rungs, rung_time: frozenset(new_rung)}
        return patched

    @staticmethod
    def _patch(
        program: BroadcastProgram,
        clear_pages: set[int],
        place_pages: set[int],
        copies: int,
        num_channels: int,
    ) -> BroadcastProgram | None:
        """Clear one rung and re-place it Algorithm-4 style.

        Dispatches to the packed-array fast path; when a window is too
        tight for it (the cyclic-fallback regime), falls back to the
        reference cell-by-cell patcher, which handles overflow exactly.
        """
        patched = FastReplanner._patch_packed(
            program, clear_pages, place_pages, copies
        )
        if patched is not NotImplemented:
            return patched
        return FastReplanner._patch_reference(
            program, clear_pages, place_pages, copies, num_channels
        )

    @staticmethod
    def _patch_packed(
        program: BroadcastProgram,
        clear_pages: set[int],
        place_pages: set[int],
        copies: int,
    ):
        """One-rung patch on the packed int64 grid — the <100µs path.

        Works entirely on :meth:`~BroadcastProgram.packed_grid`: clear
        the rung with one ``np.isin`` mask, list the free cells in
        (column, channel) order with one ``nonzero``, and hand the first
        ``len(place_pages)`` free cells of every Algorithm-4 window to
        the rung's pages in id order.  That consumption order *is* the
        reference scan: the first free column in a window and the lowest
        free channel within it are exactly the next free cell in
        (column, channel) order, and each page takes one cell per window.

        Returns ``NotImplemented`` when any window holds fewer free
        cells than the rung needs — then some placement would spill into
        the cyclic fallback, whose cross-window stealing the reference
        patcher reproduces exactly.
        """
        grid = program.packed_grid().copy()
        cycle = grid.shape[1]
        if clear_pages:
            # Membership via a boolean lookup table indexed by id+1
            # (so the -1 free marker lands at 0): two vectorised
            # gathers, several times faster than np.isin on these tiny
            # grids.  Page ids are small dense ints; fall back to isin
            # if they ever are not.
            targets = np.fromiter(
                clear_pages, dtype=np.int64, count=len(clear_pages)
            )
            top = int(grid.max())
            if top <= 4 * grid.size + 1024:
                table = np.zeros(top + 2, dtype=bool)
                table[targets[targets <= top] + 1] = True
                grid[table[grid + 1]] = -1
            else:
                grid[np.isin(grid, targets)] = -1
        pages = sorted(place_pages)
        placing = len(pages)
        if placing == 0:
            return BroadcastProgram.from_array(grid)
        # Free cells in (column, channel) order — the scan order of the
        # reference's "first free column, lowest free channel" probe.
        free_cols, free_chans = np.nonzero(grid.T == -1)
        if copies == 1:
            # Single window spanning the whole cycle: the rung simply
            # takes the first |rung| free cells.
            if free_cols.size < placing:
                return NotImplemented
            grid[free_chans[:placing], free_cols[:placing]] = pages
            return BroadcastProgram.from_array(grid)
        bounds = np.fromiter(
            (ceil_div(cycle * k, copies) for k in range(copies + 1)),
            dtype=np.int64,
            count=copies + 1,
        )
        windows = np.searchsorted(bounds, free_cols, side="right") - 1
        counts = np.bincount(windows, minlength=copies)
        if counts.min() < placing:
            return NotImplemented
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        take = (
            starts[:, None] + np.arange(placing)[None, :]
        ).ravel()
        grid[free_chans[take], free_cols[take]] = np.tile(
            np.asarray(pages, dtype=np.int64), copies
        )
        return BroadcastProgram.from_array(grid)

    @staticmethod
    def _patch_reference(
        program: BroadcastProgram,
        clear_pages: set[int],
        place_pages: set[int],
        copies: int,
        num_channels: int,
    ) -> BroadcastProgram | None:
        """Cell-by-cell patch — the oracle the packed path must match."""
        clone = program.copy()
        for page_id in clear_pages:
            clone.clear_page(page_id)
        cycle = clone.cycle_length
        full = (1 << num_channels) - 1
        masks = [0] * cycle  # bit c set <=> channel c occupied in column
        for channel, row in enumerate(clone.grid_rows()):
            bit = 1 << channel
            for slot, occupant in enumerate(row):
                if occupant is not None:
                    masks[slot] |= bit
        for page_id in sorted(place_pages):
            # Columns already airing this page: a second copy in one
            # column serves no listener.  Windows are disjoint, but a
            # fallback copy lands in a later window, so both scans skip
            # these columns.
            held: set[int] = set()
            for k in range(copies):
                window_start = ceil_div(cycle * k, copies)
                window_end = min(ceil_div(cycle * (k + 1), copies), cycle)
                column = -1
                for col in range(window_start, window_end):
                    if masks[col] != full and col not in held:
                        column = col
                        break
                else:
                    # Window packed solid: same cyclic fallback as the
                    # reference placement, starting at the window start.
                    for offset in range(cycle):
                        col = (window_start + offset) % cycle
                        if masks[col] != full and col not in held:
                            column = col
                            break
                if column < 0:
                    return None
                held.add(column)
                free = ~masks[column] & full
                channel = (free & -free).bit_length() - 1
                clone.assign(channel, column, page_id)
                masks[column] |= 1 << channel
        return clone
