"""Property tests pinning every fast path to its reference twin.

Each optimised implementation must be observationally identical to the
literal reference it replaces (:mod:`repro.oracles`) — same grids, same
metadata, same search result — for every generated input.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import opt
from repro.baselines.opt import brute_force_frequencies, opt_frequencies
from repro.core.bounds import minimum_channels
from repro.core.delay import paper_group_delay, paper_group_delay_batch
from repro.core.errors import SchedulingError
from repro.core.fastpath import place_group
from repro.core.frequencies import (
    pamad_frequencies,
    pamad_frequencies_for,
)
from repro.core.intmath import ceil_div
from repro.core.pages import instance_from_counts
from repro.core.pamad import (
    place_by_frequency,
    place_sequential,
    schedule_pamad,
)
from repro.core.program import FREE, BroadcastProgram
from repro.core.susc import schedule_susc
from repro.engine.executor import default_channel_points
from repro.live import replan
from repro.live.catalog import LiveCatalog
from repro.live.replan import FastReplanner
from repro.oracles import (
    opt_frequencies_exhaustive,
    place_by_frequency_reference,
    place_group_reference,
    place_sequential_reference,
    susc_reference,
)
from repro.workload.generator import paper_instance


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def instances(draw, max_groups=4, max_size=12, max_base=4, max_ratio=3):
    """Structurally valid instances on geometric expected-time ladders."""
    h = draw(st.integers(1, max_groups))
    base = draw(st.integers(1, max_base))
    ratio = draw(st.integers(2, max_ratio)) if h > 1 else 1
    sizes = draw(
        st.lists(st.integers(1, max_size), min_size=h, max_size=h)
    )
    times = [base * ratio**i for i in range(h)]
    return instance_from_counts(sizes, times)


@st.composite
def degraded_instances(draw):
    """An instance plus a budget strictly below the SUSC requirement."""
    instance = draw(instances())
    channels = draw(st.integers(1, minimum_channels(instance)))
    return instance, channels


# ----------------------------------------------------------------------
# Placement and SUSC kernels: byte-identical output
# ----------------------------------------------------------------------


class TestPlacementEquality:
    @given(case=degraded_instances())
    @settings(max_examples=60, deadline=None)
    def test_place_by_frequency_fast_matches_reference(self, case):
        instance, channels = case
        frequencies = pamad_frequencies(instance, channels).frequencies
        slow = place_by_frequency_reference(
            instance, frequencies, channels
        )
        fast = place_by_frequency(instance, frequencies, channels)
        assert fast.program.grid_rows() == slow.program.grid_rows()
        assert fast.window_misses == slow.window_misses

    @given(case=degraded_instances())
    @settings(max_examples=60, deadline=None)
    def test_place_sequential_fast_matches_reference(self, case):
        instance, channels = case
        frequencies = pamad_frequencies(instance, channels).frequencies
        slow = place_sequential_reference(
            instance, frequencies, channels
        )
        fast = place_sequential(instance, frequencies, channels)
        assert fast.program.grid_rows() == slow.program.grid_rows()
        assert fast.window_misses == slow.window_misses

    @given(instance=instances())
    @settings(max_examples=40, deadline=None)
    def test_susc_fast_matches_both_reference_probes(self, instance):
        fast = schedule_susc(instance, validate=False)
        for optimized in (False, True):
            slow = susc_reference(instance, optimized=optimized)
            assert (
                fast.program.grid_rows() == slow.program.grid_rows()
            ), f"fast kernel diverged from optimized={optimized} probe"
            assert fast.first_slots == slow.first_slots


# ----------------------------------------------------------------------
# Pruned searches: identical argmin, not just close
# ----------------------------------------------------------------------


class TestSearchEquality:
    @given(
        instance=instances(max_groups=5, max_size=6),
        data=st.data(),
        max_r=st.none() | st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_opt_pruning_is_exact(self, instance, data, max_r):
        channels = data.draw(
            st.integers(1, minimum_channels(instance) + 2), label="channels"
        )
        exhaustive = opt_frequencies_exhaustive(instance, channels, max_r)
        pruned = opt_frequencies(instance, channels, max_r)
        assert pruned.r_values == exhaustive.r_values
        assert pruned.frequencies == exhaustive.frequencies
        assert pruned.predicted_delay == exhaustive.predicted_delay

    @pytest.mark.parametrize(
        "distribution", ("uniform", "normal", "s-skewed", "l-skewed")
    )
    def test_opt_equals_exhaustive_at_figure5_points(self, distribution):
        """Every channel point the Figure-5 sweeps plot (six per paper
        instance), compared field by field with ``==``."""
        instance = paper_instance(distribution)
        n_min = minimum_channels(instance)
        for channels in default_channel_points(n_min, 6):
            exhaustive = opt_frequencies_exhaustive(instance, channels)
            pruned = opt_frequencies(instance, channels)
            case = (distribution, channels)
            assert pruned.r_values == exhaustive.r_values, case
            assert pruned.frequencies == exhaustive.frequencies, case
            assert pruned.predicted_delay == exhaustive.predicted_delay, case

    def test_opt_blocks_fit_the_row_budget(self, monkeypatch):
        """At 4x N_min the unpruned staged space holds ~10^5 leaves; the
        search still hands the objective no block above the budget."""
        blocks = []

        def recording_batch(rows, *args):
            blocks.append(len(rows))
            return paper_group_delay_batch(rows, *args)

        monkeypatch.setattr(opt, "paper_group_delay_batch", recording_batch)
        instance = paper_instance("l-skewed")
        channels = 4 * minimum_channels(instance)
        found = opt.opt_frequencies(instance, channels)
        assert found == opt_frequencies_exhaustive(instance, channels)
        assert len(blocks) > 1 and max(blocks) <= opt.BLOCK_ROWS

    @given(instances(max_groups=3, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_brute_force_pruning_is_exact(self, instance):
        channels = minimum_channels(instance)
        # Any objective but Equation (2) itself has no tail bound, so a
        # wrapper around it takes the exhaustive loop: every vector.
        calls = []

        def objective(*args):
            calls.append(args[0])
            return paper_group_delay(*args)

        exhaustive = brute_force_frequencies(
            instance, channels, cap=4, objective=objective
        )
        assert len(calls) == 4 ** (instance.h - 1)
        pruned = brute_force_frequencies(instance, channels, cap=4)
        assert pruned.frequencies == exhaustive.frequencies
        assert pruned.predicted_delay == pytest.approx(
            exhaustive.predicted_delay
        )


# ----------------------------------------------------------------------
# Integer ceiling division: exact where float ceil is not
# ----------------------------------------------------------------------


class TestCeilDiv:
    @given(st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_rational_ceiling(self, a, b):
        assert ceil_div(a, b) == math.ceil(Fraction(a, b))

    def test_exact_beyond_float_precision(self):
        # 2**53 + 1 is not representable as a float, so a / b rounds
        # down a whole unit and math.ceil(a / b) is off by one.
        # ceil_div must stay exact at any magnitude.
        a, b = 2**53 + 1, 2
        assert ceil_div(a, b) == 2**52 + 1
        assert math.ceil(a / b) == 2**52  # the float trap being avoided

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            ceil_div(1, 0)


# ----------------------------------------------------------------------
# The appearance index on BroadcastProgram
# ----------------------------------------------------------------------


def _small_program() -> BroadcastProgram:
    # Taut budget on a steep ladder: group 1 pages air 4x per cycle, so
    # there is a page with multiple appearances to clear one copy of.
    instance = instance_from_counts((3, 4), (2, 16))
    return schedule_pamad(instance, 2).program


class TestAppearanceCaches:
    def test_cached_slots_and_gaps_match_cold_recompute(self):
        program = _small_program()
        warm_slots = {
            page_id: program.appearance_slots(page_id)
            for page_id in program.page_ids()
        }
        warm_gaps = {
            page_id: program.cyclic_gaps(page_id)
            for page_id in program.page_ids()
        }
        program._index = None  # drop the index; the next query rebuilds it
        for page_id in program.page_ids():
            assert program.appearance_slots(page_id) == warm_slots[page_id]
            assert program.cyclic_gaps(page_id) == warm_gaps[page_id]

    def test_mutation_invalidates_cached_tables(self):
        program = _small_program()
        counts = program.page_counts()
        page_id = max(counts, key=counts.get)  # keeps >=1 copy on air
        assert counts[page_id] > 1
        before = program.appearance_slots(page_id)
        program.cyclic_gaps(page_id)  # build the index and its views
        ref = program.appearances(page_id)[0]
        program.clear(ref.channel, ref.slot)
        # The answers must match a ground-truth recompute from the raw
        # references, not the stale pre-mutation index.
        truth = sorted({r.slot for r in program.appearances(page_id)})
        assert truth != before
        assert program.appearance_slots(page_id) == truth
        assert sum(program.cyclic_gaps(page_id)) == program.cycle_length

    def test_returned_lists_do_not_alias_the_cache(self):
        program = _small_program()
        page_id = next(iter(program.page_ids()))
        slots = program.appearance_slots(page_id)
        slots.append(10**9)
        gaps = program.cyclic_gaps(page_id)
        gaps.append(10**9)
        assert 10**9 not in program.appearance_slots(page_id)
        assert 10**9 not in program.cyclic_gaps(page_id)


# ----------------------------------------------------------------------
# Structural copy / from_grid
# ----------------------------------------------------------------------


class TestProgramCopy:
    def test_copy_is_equal_and_independent(self):
        program = _small_program()
        clone = program.copy()
        assert clone.grid_rows() == program.grid_rows()
        # Mutating the clone must not leak back into the original.
        ref = clone.appearances(next(iter(clone.page_ids())))[0]
        clone.clear(ref.channel, ref.slot)
        assert program.grid_rows() != clone.grid_rows()
        assert program._grid[ref.channel][ref.slot] is not None

    def test_from_grid_round_trips(self):
        program = _small_program()
        rebuilt = BroadcastProgram.from_grid(program.grid_rows())
        assert rebuilt.grid_rows() == program.grid_rows()
        for page_id in program.page_ids():
            assert rebuilt.appearances(page_id) == program.appearances(
                page_id
            )


class TestPackedGridMirror:
    @staticmethod
    def _as_packed_rows(program):
        return [
            [-1 if cell is None else cell for cell in row]
            for row in program.grid_rows()
        ]

    def test_mirror_matches_grid(self):
        program = _small_program()
        assert program.packed_grid().tolist() == self._as_packed_rows(
            program
        )

    def test_mirror_tracks_mutations(self):
        program = _small_program()
        packed = program.packed_grid()  # materialise before mutating
        page_id = max(program.page_counts())
        ref = program.appearances(page_id)[0]
        program.clear(ref.channel, ref.slot)
        assert packed[ref.channel, ref.slot] == -1
        program.assign(ref.channel, ref.slot, page_id)
        assert packed[ref.channel, ref.slot] == page_id
        assert packed.tolist() == self._as_packed_rows(program)

    def test_copy_does_not_alias_the_mirror(self):
        program = _small_program()
        program.packed_grid()
        clone = program.copy()
        page_id = max(clone.page_counts())
        ref = clone.appearances(page_id)[0]
        clone.clear(ref.channel, ref.slot)
        assert program.packed_grid()[ref.channel, ref.slot] == page_id
        assert clone.packed_grid()[ref.channel, ref.slot] == -1


# ----------------------------------------------------------------------
# Live re-plan patch path
# ----------------------------------------------------------------------


def _catalog(sizes, times) -> LiveCatalog:
    pages: dict[int, int] = {}
    page_id = 1
    for size, expected in zip(sizes, times):
        for _ in range(size):
            pages[page_id] = expected
            page_id += 1
    return LiveCatalog(pages)


def _remember(replanner, catalog, budget, schedule) -> None:
    replanner.remember(
        catalog=catalog.pages(),
        times=catalog.to_instance().expected_times,
        frequencies=schedule.assignment.frequencies,
        cycle=schedule.program.cycle_length,
        budget=budget,
    )


class TestFastReplanner:
    SIZES = (3, 4, 6, 10)
    TIMES = (4, 8, 16, 32)
    BUDGET = 4

    def _planned(self):
        catalog = _catalog(self.SIZES, self.TIMES)
        schedule = schedule_pamad(catalog.to_instance(), self.BUDGET)
        replanner = FastReplanner()
        _remember(replanner, catalog, self.BUDGET, schedule)
        return catalog, schedule, replanner

    def test_patch_is_a_valid_plan_for_the_new_catalog(self):
        catalog, schedule, replanner = self._planned()
        mutated = LiveCatalog(catalog.pages())
        new_page = max(catalog.pages()) + 1
        mutated.insert(new_page, self.TIMES[-1])
        patched = replanner.try_patch(mutated.pages(), schedule.program)
        assert patched is not None
        # Exactly the mutated catalog's pages, at the Algorithm-3
        # frequencies for the new group sizes, on the Equation-8 cycle.
        instance = mutated.to_instance()
        frequencies = pamad_frequencies(instance, self.BUDGET).frequencies
        assert patched.cycle_length == schedule.program.cycle_length
        counts = patched.page_counts()
        assert set(counts) == set(mutated.pages())
        for page_id, expected in mutated.pages().items():
            group = instance.expected_times.index(expected)
            assert counts[page_id] == frequencies[group]

    def test_patch_is_deterministic(self):
        grids = []
        for _ in range(2):
            catalog, schedule, replanner = self._planned()
            mutated = LiveCatalog(catalog.pages())
            mutated.insert(max(catalog.pages()) + 1, self.TIMES[-1])
            patched = replanner.try_patch(
                mutated.pages(), schedule.program
            )
            grids.append(patched.grid_rows())
        assert grids[0] == grids[1]

    def test_unchanged_catalog_returns_program_as_is(self):
        catalog, schedule, replanner = self._planned()
        patched = replanner.try_patch(catalog.pages(), schedule.program)
        assert patched is schedule.program

    def test_two_rung_change_is_ineligible(self):
        catalog, schedule, replanner = self._planned()
        mutated = LiveCatalog(catalog.pages())
        base = max(catalog.pages())
        mutated.insert(base + 1, self.TIMES[-1])
        mutated.insert(base + 2, self.TIMES[-2])
        assert (
            replanner.try_patch(mutated.pages(), schedule.program) is None
        )

    def test_new_rung_is_ineligible(self):
        catalog, schedule, replanner = self._planned()
        mutated = LiveCatalog(catalog.pages())
        mutated.insert(max(catalog.pages()) + 1, 64)
        assert (
            replanner.try_patch(mutated.pages(), schedule.program) is None
        )

    def test_cycle_growth_is_ineligible(self):
        # Enough inserts into one rung eventually bump the Equation-8
        # cycle; the patcher must hand back to the full re-plan then.
        catalog, schedule, replanner = self._planned()
        state = replanner.state
        mutated = LiveCatalog(catalog.pages())
        base = max(catalog.pages())
        sizes = list(self.SIZES)
        grew = False
        for extra in range(1, 40):
            mutated.insert(base + extra, self.TIMES[-1])
            sizes[-1] += 1
            frequencies = pamad_frequencies_for(
                tuple(sizes), self.TIMES, self.BUDGET
            ).frequencies
            cycle = ceil_div(
                sum(s * p for s, p in zip(frequencies, sizes)),
                self.BUDGET,
            )
            if cycle != state.cycle:
                grew = True
                break
        assert grew, "cycle never grew; test configuration is too slack"
        replanner.state = state
        # len(changed) is still 1 (one rung), but the cycle differs.
        assert (
            replanner.try_patch(mutated.pages(), schedule.program) is None
        )

    @pytest.mark.parametrize(
        "sizes, budget", [((3, 4, 6, 10), 4), ((6, 10, 14, 20), 6)]
    )
    def test_slowest_rung_toggle_stays_patch_eligible(self, sizes, budget):
        # One page toggling in and out of the slowest rung is the
        # degraded-mode mutation the patch path exists for: every
        # toggle must patch, each patch serving exactly its catalog.
        catalog = _catalog(sizes, self.TIMES)
        schedule = schedule_pamad(catalog.to_instance(), budget)
        replanner = FastReplanner()
        _remember(replanner, catalog, budget, schedule)
        mutated = LiveCatalog(catalog.pages())
        mutated.insert(max(catalog.pages()) + 1, self.TIMES[-1])
        program = schedule.program
        for toggle in range(8):
            target = catalog if toggle % 2 else mutated
            program = replanner.try_patch(target.pages(), program)
            assert program is not None, f"toggle {toggle} not patched"
            assert set(program.page_counts()) == set(target.pages())

    def test_no_snapshot_is_ineligible(self):
        catalog, schedule, _ = self._planned()
        fresh = FastReplanner()
        assert (
            fresh.try_patch(catalog.pages(), schedule.program) is None
        )
        fresh.invalidate()
        assert fresh.state is None


def _doubled_copies(grid, page_ids) -> int:
    """Copies of ``page_ids`` aired in a column that already airs them."""
    return sum(
        int(np.count_nonzero(grid == page_id))
        - int(np.count_nonzero((grid == page_id).any(axis=0)))
        for page_id in page_ids
    )


class TestPackedPatchEquality:
    """One Algorithm-4 kernel serves fresh plans and live patches."""

    @given(
        instance=instances(max_groups=4, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_place_group_matches_oracle(self, instance, data):
        """Fresh grids group by group, then one rung cleared, mutated and
        re-placed: the kernel and the cell-by-cell scan agree on the
        grid, ``window_misses`` and ``shared`` (or both raise), overflow
        draws included, and a page doubles up in a column exactly as
        often as ``shared`` says."""
        channels = data.draw(
            st.integers(1, minimum_channels(instance)), label="channels"
        )
        frequencies = pamad_frequencies(instance, channels).frequencies
        total = sum(
            s * group.size for s, group in zip(frequencies, instance.groups)
        )
        cycle = ceil_div(total, channels)
        grid = np.full((channels, cycle), FREE, dtype=np.int64, order="F")
        program = BroadcastProgram(num_channels=channels, cycle_length=cycle)
        order = sorted(
            range(instance.h), key=lambda i: frequencies[i], reverse=True
        )
        for position in order:
            ids = [page.page_id for page in instance.groups[position].pages]
            fast = place_group(grid, ids, frequencies[position])
            slow = place_group_reference(
                program, ids, frequencies[position]
            )
            assert fast == slow
            assert grid.tolist() == TestPackedGridMirror._as_packed_rows(
                program
            )
            assert _doubled_copies(grid, ids) == fast[1]

        # Patch: clear one rung, drop some of its pages, add new ones,
        # and re-place it at a drawn frequency.
        position = data.draw(st.integers(0, instance.h - 1), label="rung")
        rung = [page.page_id for page in instance.groups[position].pages]
        kept = data.draw(
            st.lists(st.sampled_from(rung), unique=True), label="kept"
        )
        top = max(page.page_id for page in instance.pages())
        extra = data.draw(st.integers(0 if kept else 1, 3), label="extra")
        new_rung = sorted(kept) + [top + 1 + i for i in range(extra)]
        copies = data.draw(
            st.integers(1, 2 * frequencies[position] + 1), label="copies"
        )
        grid[np.isin(grid, rung)] = FREE
        for page_id in rung:
            program.clear_page(page_id)
        try:
            fast = place_group(grid, new_rung, copies)
        except SchedulingError as error:
            with pytest.raises(SchedulingError) as caught:
                place_group_reference(program, new_rung, copies)
            assert str(caught.value) == str(error)
            assert np.count_nonzero(grid == FREE) < len(new_rung) * copies
            return
        assert fast == place_group_reference(program, new_rung, copies)
        assert grid.tolist() == TestPackedGridMirror._as_packed_rows(program)
        assert _doubled_copies(grid, new_rung) == fast[1]
        for page_id in new_rung:
            assert np.count_nonzero(grid == page_id) == copies

    @staticmethod
    def _planned_patch(sizes, times, budget, monkeypatch):
        """A replanner remembering PAMAD's plan, and a spy recording the
        ``(window_misses, shared)`` of each placement a patch ran."""
        instance = instance_from_counts(sizes, times)
        schedule = schedule_pamad(instance, budget)
        catalog = {p.page_id: p.expected_time for p in instance.pages()}
        replanner = FastReplanner()
        replanner.remember(
            catalog=catalog,
            times=instance.expected_times,
            frequencies=tuple(schedule.meta["frequencies"]),
            cycle=schedule.program.cycle_length,
            budget=budget,
        )
        outcomes = []

        def spy(*args):
            result = place_group(*args)
            outcomes.append(result)
            return result

        monkeypatch.setattr(replan, "place_group", spy)
        return schedule.program, catalog, replanner, outcomes

    def test_try_patch_serves_a_solid_window_through_cyclic_fallback(
        self, monkeypatch
    ):
        """The overflow path, end to end through ``try_patch``.

        Three channels, rungs t=2/4/8/16 with 1/4/3/7 pages: PAMAD gives
        S=(6, 6, 2, 1) on a 15-slot cycle.  Dropping page 6 raises the
        t=8 rung (now pages 7 and 8) to three copies while the cycle
        stays 15.  Page 7 takes column 9, which packs the second window
        (columns 5..9) solid for page 8: the batch write is out, and the
        cyclic fallback scans on to column 12 (one window miss).  The
        third window (10..14) then skips column 12, which already airs
        page 8, for column 14.
        """
        program, catalog, replanner, outcomes = self._planned_patch(
            (1, 4, 3, 7), (2, 4, 8, 16), 3, monkeypatch
        )
        assert program.grid_rows() == [
            [1, 4, 7, 1, 4, 1, 4, 12, 1, 4, 1, 4, 8, 1, 4],
            [2, 5, 8, 2, 5, 2, 5, 13, 2, 5, 2, 5, 15, 2, 5],
            [3, 6, 9, 3, 10, 3, 11, 14, 3, 6, 3, 7, None, 3, None],
        ]
        del catalog[6]
        patched = replanner.try_patch(catalog, program)

        assert outcomes == [(1, 0)]
        assert patched is not None
        assert patched.cycle_length == program.cycle_length
        assert patched.num_channels == 3
        assert replanner.state.frequencies == (6, 6, 3, 1)
        copies = 3
        old_rows, new_rows = program.grid_rows(), patched.grid_rows()
        cells = [
            (old_rows[c][s], new_rows[c][s])
            for c in range(3)
            for s in range(program.cycle_length)
        ]
        rung, cleared = {7, 8}, {6, 7, 8}
        # Every rung page appears exactly `copies` times ...
        for page_id in rung:
            assert sum(new == page_id for _, new in cells) == copies
        # ... the cleared page is gone ...
        assert all(new not in cleared - rung for _, new in cells)
        # ... no cell holds two pages: each rung copy took its own cell,
        # one that was free or held the rung before the patch ...
        taken = [old for old, new in cells if new in rung]
        assert len(taken) == len(rung) * copies
        assert all(old is None or old in cleared for old in taken)
        # ... no column airs a page twice ...
        for column in zip(*new_rows):
            aired = [page for page in column if page is not None]
            assert len(aired) == len(set(aired)), column
        # ... and every cell outside the rung is unchanged.
        for old, new in cells:
            if old not in cleared and new not in rung:
                assert old == new
        assert new_rows == [
            [1, 4, 8, 1, 4, 1, 4, 12, 1, 4, 1, 4, 8, 1, 4],
            [2, 5, None, 2, 5, 2, 5, 13, 2, 5, 2, 5, 15, 2, 5],
            [3, 7, 9, 3, 10, 3, 11, 14, 3, 7, 3, 7, None, 3, 8],
        ]

    def test_try_patch_declines_when_copies_would_share_a_column(
        self, monkeypatch
    ):
        """Two channels, rungs t=2/4/8 with 2/6/3 pages: PAMAD gives
        S=(2, 2, 1) on a 10-slot cycle.  Dropping page 1 raises page 2
        alone to four copies, but once pages 1 and 2 are cleared the
        free cells sit in three columns (0, 5 and 9).  A fourth copy
        could only double up in one of them, so the patch declines and
        the service re-plans in full."""
        program, catalog, replanner, outcomes = self._planned_patch(
            (2, 6, 3), (2, 4, 8), 2, monkeypatch
        )
        assert program.grid_rows() == [
            [1, 3, 5, 7, 9, 1, 3, 5, 7, 11],
            [2, 4, 6, 8, 10, 2, 4, 6, 8, None],
        ]
        del catalog[1]
        assert replanner.try_patch(catalog, program) is None
        assert outcomes == [(3, 1)]
        assert replanner.state.catalog != catalog  # nothing committed

    def test_empty_rung_patch_just_clears(self):
        instance = instance_from_counts((2, 3), (4, 8))
        program = schedule_pamad(instance, 2).program
        rung = {
            page.page_id
            for page in instance.pages()
            if page.expected_time == 8
        }
        grid = program.packed_grid().copy(order="F")
        grid[np.isin(grid, list(rung))] = FREE
        assert place_group(grid, [], 1) == (0, 0)
        patched = BroadcastProgram.from_array(grid)
        assert set(patched.page_counts()) == (
            set(program.page_counts()) - rung
        )


    def test_place_group_needs_a_column_major_grid(self):
        # A row-major grid's transposed flat view would be a copy, and
        # the placement would be lost.
        grid = np.full((2, 4), FREE, dtype=np.int64)
        with pytest.raises(ValueError, match="column-major"):
            place_group(grid, [1], 2)
        assert (grid == FREE).all()


class TestColumnSharing:
    """Even spreading assumes distinct columns; a copy shares a column
    with its page only when no other free column is left."""

    def test_no_page_twice_in_one_column_when_avoidable(self):
        """Before the skip rule, page 8 aired on channels 1 and 2 of
        column 2 here, and one copy served nobody."""
        schedule = schedule_pamad(instance_from_counts((5, 3, 1), (2, 4, 8)), 3)
        assert schedule.program.grid_rows() == [
            [1, 4, 7, 1, 4, 1, 4, 1, 4],
            [2, 5, 8, 2, 5, 2, 5, 2, 5],
            [3, 6, 9, 3, 8, 3, 6, 3, 7],
        ]
        for column in zip(*schedule.program.grid_rows()):
            aired = [page for page in column if page is not None]
            assert len(aired) == len(set(aired)), column

    def test_last_resort_share_is_kept_and_its_patch_declines(
        self, monkeypatch
    ):
        """Three channels, rungs t=2/4/8 with 6/1/1 pages: S=(4, 2, 1)
        fills all 27 cells of the 9-slot cycle.  The t=2 rung leaves
        only column 2 free, so page 7 airs twice there: fresh placement
        keeps the shared copy (every page airs S_i times), while a patch
        that re-places the t=4 rung meets the same wall and declines."""
        instance = instance_from_counts((6, 1, 1), (2, 4, 8))
        schedule = schedule_pamad(instance, 3)
        assert schedule.program.grid_rows() == [
            [1, 4, 7, 1, 4, 1, 4, 1, 4],
            [2, 5, 7, 2, 5, 2, 5, 2, 5],
            [3, 6, 8, 3, 6, 3, 6, 3, 6],
        ]
        assert schedule.window_misses == 1
        assert schedule.program.page_counts()[7] == 2
        program, catalog, replanner, outcomes = (
            TestPackedPatchEquality._planned_patch(
                (6, 1, 1), (2, 4, 8), 3, monkeypatch
            )
        )
        del catalog[7]
        catalog[9] = 4  # the same rung sizes, so the same plan shape
        assert replanner.try_patch(catalog, program) is None
        assert outcomes == [(1, 1)]
