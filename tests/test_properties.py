"""Property-based tests (hypothesis) on the core invariants.

These encode the DESIGN.md section-6 invariants: the theorems and
structural guarantees that must hold for *every* valid input, not just the
paper's examples.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines.mpb import schedule_mpb
from repro.core.bounds import channel_load, minimum_channels
from repro.core.delay import (
    page_average_delay,
    paper_group_delay,
    program_average_delay,
)
from repro.core.frequencies import frequencies_from_r, pamad_frequencies
from repro.core.pages import ProblemInstance, instance_from_counts
from repro.core.pamad import place_by_frequency, schedule_pamad
from repro.core.rearrange import ladder_value, rearrange
from repro.core.susc import schedule_susc
from repro.core.validate import assert_valid_program, validate_program
from repro.oracles import susc_reference


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def instances(draw, max_groups=4, max_size=15, max_base=4, max_ratio=3):
    """Structurally valid problem instances on uniform ladders."""
    h = draw(st.integers(1, max_groups))
    base = draw(st.integers(1, max_base))
    ratio = draw(st.integers(2, max_ratio)) if h > 1 else 1
    sizes = draw(
        st.lists(st.integers(1, max_size), min_size=h, max_size=h)
    )
    times = [base * ratio**i for i in range(h)]
    return instance_from_counts(sizes, times)


@st.composite
def instances_with_channels(draw):
    """An instance plus a channel count in 1..minimum."""
    instance = draw(instances())
    channels = draw(st.integers(1, minimum_channels(instance)))
    return instance, channels


# ----------------------------------------------------------------------
# Rearrangement invariants
# ----------------------------------------------------------------------


class TestRearrangeProperties:
    @given(
        time=st.integers(1, 10_000),
        base=st.integers(1, 50),
        ratio=st.integers(1, 5),
    )
    def test_ladder_value_is_maximal_rung_below(self, time, base, ratio):
        assume(time >= base)
        value = ladder_value(time, base, ratio)
        assert value <= time
        # value is a rung
        quotient = value / base
        k = round(math.log(quotient, ratio)) if ratio > 1 else 0
        assert base * ratio**k == value
        # and the next rung is too large
        if ratio > 1:
            assert value * ratio > time

    @given(
        times=st.lists(st.integers(1, 500), min_size=1, max_size=30),
        ratio=st.integers(2, 4),
    )
    def test_rearrange_never_violates_requirements(self, times, ratio):
        result = rearrange(times, ratio=ratio)
        assert result.satisfies_requirements()
        assert result.waste >= 0
        assert result.load_increase >= -1e-12


# ----------------------------------------------------------------------
# Theorem 3.1 / SUSC invariants
# ----------------------------------------------------------------------


class TestSuscProperties:
    @given(instance=instances())
    @settings(max_examples=60, deadline=None)
    def test_susc_valid_at_exact_bound(self, instance):
        """Theorems 3.1 + 3.2: SUSC succeeds with the minimum channels and
        its program passes both validity conditions."""
        schedule = schedule_susc(instance)
        assert schedule.num_channels == minimum_channels(instance)
        report = validate_program(schedule.program, instance)
        assert report.ok, report.summary()

    @given(instance=instances())
    @settings(max_examples=60, deadline=None)
    def test_bound_is_ceiling_of_load(self, instance):
        load = channel_load(instance)
        bound = minimum_channels(instance)
        assert bound - 1 < load <= bound + 1e-9

    @given(instance=instances())
    @settings(max_examples=40, deadline=None)
    def test_theorem_33_periodicity(self, instance):
        schedule = schedule_susc(instance)
        for page in instance.pages():
            refs = schedule.program.appearances(page.page_id)
            assert len({ref.channel for ref in refs}) == 1
            slots = [ref.slot for ref in refs]
            for k, slot in enumerate(slots):
                assert slot == slots[0] + k * page.expected_time

    @given(instance=instances())
    @settings(max_examples=40, deadline=None)
    def test_valid_program_has_zero_delay(self, instance):
        schedule = schedule_susc(instance)
        assert program_average_delay(schedule.program, instance) == 0.0

    @given(instance=instances())
    @settings(max_examples=60, deadline=None)
    def test_cursor_optimisation_is_equivalent(self, instance):
        """The paper's 3.2 search optimisation must not change the
        program, only the search cost.  Both sides are the literal
        reference probes (the array kernel behind ``schedule_susc`` has
        its own equality suite in test_fastpath)."""
        naive = susc_reference(instance)
        optimized = susc_reference(instance, optimized=True)
        assert_valid_program(naive.program, instance)
        assert naive.program == optimized.program
        assert naive.first_slots == optimized.first_slots


# ----------------------------------------------------------------------
# Frequency and placement invariants
# ----------------------------------------------------------------------


class TestFrequencyProperties:
    @given(pair=instances_with_channels())
    @settings(max_examples=60, deadline=None)
    def test_pamad_frequencies_well_formed(self, pair):
        instance, channels = pair
        assignment = pamad_frequencies(instance, channels)
        frequencies = assignment.frequencies
        assert len(frequencies) == instance.h
        assert all(s >= 1 for s in frequencies)
        assert frequencies[-1] == 1
        # suffix-product structure
        assert frequencies == frequencies_from_r(
            list(assignment.r_values), instance.h
        )

    @given(
        r_values=st.lists(st.integers(1, 5), min_size=0, max_size=5),
    )
    def test_frequencies_from_r_products(self, r_values):
        h = len(r_values) + 1
        frequencies = frequencies_from_r(r_values, h)
        assert frequencies[-1] == 1
        for i in range(h - 1):
            assert frequencies[i] == frequencies[i + 1] * r_values[i]

    @given(pair=instances_with_channels())
    @settings(max_examples=50, deadline=None)
    def test_placement_counts_and_cycle(self, pair):
        """Algorithm 4: every page exactly S_i times, cycle per Eq. 8."""
        instance, channels = pair
        assignment = pamad_frequencies(instance, channels)
        result = place_by_frequency(
            instance, assignment.frequencies, channels
        )
        slots = sum(
            s * p
            for s, p in zip(assignment.frequencies, instance.group_sizes)
        )
        assert result.program.cycle_length == math.ceil(slots / channels)
        counts = result.program.page_counts()
        for page in instance.pages():
            assert counts[page.page_id] == assignment.frequencies[
                page.group_index - 1
            ]

    @given(pair=instances_with_channels())
    @settings(max_examples=30, deadline=None)
    def test_pamad_never_starves_a_page(self, pair):
        instance, channels = pair
        schedule = schedule_pamad(instance, channels)
        assert schedule.program.page_ids() == {
            page.page_id for page in instance.pages()
        }

    @given(pair=instances_with_channels())
    @settings(max_examples=30, deadline=None)
    def test_mpb_matches_valid_frequencies(self, pair):
        instance, channels = pair
        schedule = schedule_mpb(instance, channels)
        t_h = instance.max_expected_time
        expected = tuple(
            math.ceil(t_h / t) for t in instance.expected_times
        )
        assert schedule.assignment.frequencies == expected


# ----------------------------------------------------------------------
# Delay-model invariants
# ----------------------------------------------------------------------


class TestDelayProperties:
    @given(pair=instances_with_channels())
    @settings(max_examples=50, deadline=None)
    def test_measured_delay_non_negative(self, pair):
        instance, channels = pair
        schedule = schedule_pamad(instance, channels)
        assert schedule.average_delay >= 0.0
        for page in instance.pages():
            assert (
                page_average_delay(
                    schedule.program, page.page_id, page.expected_time
                )
                >= 0.0
            )

    @given(
        frequencies=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=5),
        channels=st.integers(1, 10),
    )
    def test_paper_objective_non_negative(self, frequencies, sizes, channels):
        h = min(len(frequencies), len(sizes))
        frequencies, sizes = frequencies[:h], sizes[:h]
        times = [2 * 2**i for i in range(h)]
        value = paper_group_delay(frequencies, sizes, times, channels)
        assert value >= 0.0

    @given(pair=instances_with_channels())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_equals_scalar(self, pair):
        """The AvgD array kernel is a pure re-implementation of the
        per-page scalar loop; they must agree bit for bit."""
        from repro.oracles import program_average_delay_reference

        instance, channels = pair
        schedule = schedule_pamad(instance, channels)
        assert program_average_delay(
            schedule.program, instance
        ) == program_average_delay_reference(schedule.program, instance)

    @given(pair=instances_with_channels())
    @settings(max_examples=30, deadline=None)
    def test_zero_delay_iff_valid(self, pair):
        """A program has zero AvgD exactly when it is valid (gap-wise)."""
        instance, channels = pair
        schedule = schedule_pamad(instance, channels)
        report = validate_program(schedule.program, instance)
        delay = program_average_delay(schedule.program, instance)
        gap_ok = all(
            max(schedule.program.cyclic_gaps(page.page_id))
            <= page.expected_time
            for page in instance.pages()
        )
        assert (delay == 0.0) == gap_ok
        if report.ok:
            assert delay == 0.0


# ----------------------------------------------------------------------
# Serialisation round-trips
# ----------------------------------------------------------------------


class TestSerialisationProperties:
    @given(pair=instances_with_channels())
    @settings(max_examples=30, deadline=None)
    def test_program_json_roundtrip(self, pair):
        from repro.core.program import BroadcastProgram

        instance, channels = pair
        original = schedule_pamad(instance, channels).program
        clone = BroadcastProgram.from_json(original.to_json())
        assert clone == original
        for page in instance.pages():
            assert clone.appearance_slots(
                page.page_id
            ) == original.appearance_slots(page.page_id)

    @given(
        instance=instances(),
        count=st.integers(1, 50),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_trace_roundtrip(self, instance, count, seed, tmp_path_factory):
        from repro.workload.trace import RequestTrace, record_trace

        trace = record_trace(instance, count, seed=seed)
        path = tmp_path_factory.mktemp("traces") / "t.jsonl"
        trace.dump(path)
        loaded = RequestTrace.load(path)
        program = schedule_pamad(instance, 1).program
        assert list(loaded.requests_for(program)) == list(
            trace.requests_for(program)
        )


@st.composite
def built_programs(draw):
    """A program built by one of the construction paths, index maybe warm.

    ``assign``, ``from_grid`` and ``from_array`` fill the same random
    grid; ``copy`` clones an assigned program, ``clear`` frees some of
    its cells afterwards and ``ops`` applies a random run of
    ``assign``/``clear`` calls, querying the index between some of them,
    so every path that can leave the appearance index, the packed
    mirror or :attr:`version` in a distinct state is represented.  Cells
    may hold negative page ids other than the free marker (the indexing
    layer's ``INDEX_SLOT`` is one).
    """
    import numpy as np

    from repro.core.program import FREE, BroadcastProgram

    channels = draw(st.integers(1, 4))
    cycle = draw(st.integers(1, 12))
    page_ids = st.integers(-3, 20).filter(lambda pid: pid != FREE)
    grid = [
        draw(
            st.lists(
                st.none() | page_ids,
                min_size=cycle,
                max_size=cycle,
            )
        )
        for _ in range(channels)
    ]
    path = draw(
        st.sampled_from(
            ("assign", "from_grid", "from_array", "copy", "clear", "ops")
        )
    )
    if path == "from_grid":
        program = BroadcastProgram.from_grid(grid)
    elif path == "from_array":
        program = BroadcastProgram.from_array(
            np.array(
                [
                    [FREE if cell is None else cell for cell in row]
                    for row in grid
                ]
            )
        )
    elif path == "ops":
        program = BroadcastProgram(channels, cycle)
        cells = st.tuples(
            st.integers(0, channels - 1), st.integers(0, cycle - 1)
        )
        for channel, slot in draw(st.lists(cells, max_size=30)):
            if draw(st.booleans()):
                program.page_ids()  # build the index mid-run
            if program.is_free(channel, slot):
                program.assign(channel, slot, draw(page_ids))
            else:
                program.clear(channel, slot)
    else:
        program = BroadcastProgram(channels, cycle)
        for channel, row in enumerate(grid):
            for slot, page_id in enumerate(row):
                if page_id is not None:
                    program.assign(channel, slot, page_id)
        if path == "copy":
            program = program.copy()
        elif path == "clear":
            for channel, row in enumerate(grid):
                for slot in range(cycle):
                    if draw(st.booleans()):
                        program.clear(channel, slot)
    if draw(st.booleans()):
        # Warm every derived table before pickling.
        program.packed_grid()
        for page_id in program.page_ids():
            program.cyclic_gaps(page_id)
    return program


def _program_view(program):
    """Every table a program derives from its grid, for comparison."""
    return (
        program.num_channels,
        program.cycle_length,
        program.grid_rows(),
        program.packed_grid().tolist(),
        program.page_counts(),
        {
            page_id: (
                program.appearances(page_id),
                program.appearance_slots(page_id),
                program.cyclic_gaps(page_id),
            )
            for page_id in program.page_ids()
        },
    )


class TestPickleProperties:
    @given(program=built_programs())
    @settings(max_examples=80, deadline=None)
    def test_pickle_roundtrip_preserves_every_table(self, program):
        import pickle

        version = program.version
        rows = program.grid_rows()
        loaded = pickle.loads(pickle.dumps(program))
        # Pickling leaves the source untouched.
        assert program.version == version
        assert program.grid_rows() == rows
        assert loaded == program
        assert loaded.version == version
        assert _program_view(loaded) == _program_view(program)

    @given(program=built_programs(), page_id=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_loaded_program_stays_mutable(self, program, page_id):
        import pickle

        from repro.core.program import BroadcastProgram

        before = (program.version, _program_view(program))
        loaded = pickle.loads(pickle.dumps(program))
        cells = [
            (channel, slot)
            for channel in range(loaded.num_channels)
            for slot in range(loaded.cycle_length)
        ]
        free = [cell for cell in cells if loaded.is_free(*cell)]
        taken = [cell for cell in cells if not loaded.is_free(*cell)]
        if free:
            loaded.assign(*free[0], page_id)
        if taken:
            assert loaded.clear(*taken[-1]) is not None
        assert loaded.version == program.version + bool(free) + bool(taken)
        # The mutated clone's tables agree with a fresh build of its grid,
        # and the source never sees the clone's edits.
        rebuilt = BroadcastProgram.from_grid(loaded.grid_rows())
        assert _program_view(loaded) == _program_view(rebuilt)
        assert (program.version, _program_view(program)) == before


@st.composite
def grids(draw):
    """A random list grid: 1-4 channels, 1-12 slots, some cells free."""
    from repro.core.program import FREE

    channels = draw(st.integers(1, 4))
    cycle = draw(st.integers(1, 12))
    page_ids = st.integers(-3, 20).filter(lambda pid: pid != FREE)
    return [
        draw(st.lists(st.none() | page_ids, min_size=cycle, max_size=cycle))
        for _ in range(channels)
    ]


def _lazy_programs(grid):
    """Makers of the grid's program with only its packed grid built."""
    import pickle

    import numpy as np

    from repro.core.program import FREE, BroadcastProgram

    packed = np.array(
        [[FREE if cell is None else cell for cell in row] for row in grid]
    )
    built = BroadcastProgram.from_grid(grid)
    return {
        "from_array": lambda: BroadcastProgram.from_array(packed),
        "unpickled": lambda: pickle.loads(pickle.dumps(built)),
    }


def _equalities(program):
    """``==`` against a lazy twin and against an empty program."""
    import pickle

    from repro.core.program import BroadcastProgram

    return (
        program == pickle.loads(pickle.dumps(program)),
        program == BroadcastProgram(
            program.num_channels, program.cycle_length
        ),
    )


#: Every method that reads the list grid, as a comparable answer.
_LIST_READERS = {
    "get": lambda p: [
        p.get(channel, slot)
        for channel in range(p.num_channels)
        for slot in range(p.cycle_length)
    ],
    "is_free": lambda p: [
        p.is_free(channel, slot)
        for channel in range(p.num_channels)
        for slot in range(p.cycle_length)
    ],
    "free_slot_in_channel_window": lambda p: [
        p.free_slot_in_channel_window(channel, window)
        for channel in range(p.num_channels)
        for window in range(p.cycle_length + 2)
    ],
    "free_channel_in_column": lambda p: [
        p.free_channel_in_column(slot) for slot in range(p.cycle_length)
    ],
    "free_cells": lambda p: list(p.free_cells()),
    "occupancy": lambda p: p.occupancy(),
    "grid_rows": lambda p: p.grid_rows(),
    "to_dict": lambda p: p.to_dict(),
    "to_json": lambda p: p.to_json(),
    "render": lambda p: p.render(),
    "repr": repr,
    "eq": _equalities,
    "copy": lambda p: (p.copy().version, _program_view(p.copy())),
    "view": _program_view,
}


class TestLazyListGrid:
    """Programs built from a packed grid derive their list grid on demand.

    ``from_array`` and unpickling build only the packed grid; every
    list-reading method must answer as a ``from_grid`` build does, and
    every edit must keep the two grids in step whether or not the list
    exists yet.
    """

    @given(grid=grids())
    @settings(max_examples=60, deadline=None)
    def test_every_list_reader_matches_a_list_build(self, grid):
        from repro.core.program import BroadcastProgram

        expected = BroadcastProgram.from_grid(grid)
        for make in _lazy_programs(grid).values():
            for name, read in _LIST_READERS.items():
                program = make()
                assert program._grid is None, name
                assert read(program) == read(expected), name

    @given(grid=grids(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_edits_keep_both_grids_in_step(self, grid, data):
        from repro.core.program import FREE, BroadcastProgram

        maker = data.draw(st.sampled_from(sorted(_lazy_programs(grid))))
        program = _lazy_programs(grid)[maker]()
        expected = BroadcastProgram.from_grid(grid)
        channels, cycle = expected.num_channels, expected.cycle_length
        cells = st.tuples(
            st.integers(0, channels - 1), st.integers(0, cycle - 1)
        )
        page_ids = st.integers(0, 6)
        steps = data.draw(st.integers(0, 12))
        build_at = data.draw(st.integers(0, steps))
        for step in range(steps):
            if step == build_at:
                program.grid_rows()  # the list exists from here on
            if data.draw(st.booleans()):
                program.page_ids()  # a built index gets patched
            op = data.draw(
                st.sampled_from(
                    ("assign", "clear", "assign_page", "clear_page")
                )
            )
            if op == "assign":
                channel, slot = data.draw(cells)
                if expected.is_free(channel, slot):
                    page_id = data.draw(page_ids)
                    expected.assign(channel, slot, page_id)
                    program.assign(channel, slot, page_id)
            elif op == "clear":
                channel, slot = data.draw(cells)
                assert program.clear(channel, slot) == expected.clear(
                    channel, slot
                )
            elif op == "assign_page":
                page_id = data.draw(page_ids)
                chosen = sorted(
                    cell
                    for cell in set(data.draw(st.lists(cells, max_size=4)))
                    if expected.is_free(*cell)
                )
                for cell in chosen:
                    expected.assign(*cell, page_id)
                program.assign_page(
                    page_id,
                    [channel for channel, _ in chosen],
                    [slot for _, slot in chosen],
                )
            else:
                page_id = data.draw(page_ids)
                freed = expected.clear_page(page_id)
                assert program.clear_page(page_id) == freed
        assert program.version == expected.version
        packed = program.packed_grid().tolist()
        rows = program.grid_rows()
        assert packed == [
            [FREE if cell is None else cell for cell in row] for row in rows
        ]
        assert rows == expected.grid_rows()
        assert _program_view(program) == _program_view(expected)


def _oracle_table(program):
    """The per-page appearance table, built the obvious way.

    A row-major double loop over the grid collecting each page's cells,
    then per page its airtime-sorted cells, distinct slots and cyclic
    gaps — the dict of ``SlotRef`` lists ``BroadcastProgram`` kept before
    its appearance index.
    """
    from repro.core.program import SlotRef

    cells = {}
    for channel, row in enumerate(program.grid_rows()):
        for slot, page_id in enumerate(row):
            if page_id is not None:
                cells.setdefault(page_id, []).append(SlotRef(slot, channel))
    table = {}
    for page_id, refs in cells.items():
        slots = sorted({ref.slot for ref in refs})
        gaps = [b - a for a, b in zip(slots, slots[1:])]
        gaps.append(program.cycle_length - slots[-1] + slots[0])
        table[page_id] = (sorted(refs), slots, gaps)
    return table


def _oracle_wait(slots, arrival, cycle):
    """The linear next-appearance scan ``wait_time`` must reproduce."""
    if not 0 <= arrival < cycle:
        arrival %= cycle
    for slot in slots:
        if slot >= arrival:
            return slot - arrival
    return slots[0] + cycle - arrival


def _check_against_oracle(program, absent=(-1, 21)):
    from collections import Counter

    table = _oracle_table(program)
    assert program.page_ids() == set(table)
    assert program.page_counts() == Counter(
        {page_id: len(refs) for page_id, (refs, _, _) in table.items()}
    )
    for page_id, (refs, slots, gaps) in table.items():
        assert program.appearances(page_id) == refs
        assert program.appearance_slots(page_id) == slots
        assert program.broadcast_count(page_id) == len(refs)
        assert program.cyclic_gaps(page_id) == gaps
    for page_id in absent:
        assert page_id not in table
        assert program.appearances(page_id) == []
        assert program.appearance_slots(page_id) == []
        assert program.broadcast_count(page_id) == 0
    assert f"pages={len(table)}," in repr(program)
    return table


class TestAppearanceIndexOracle:
    @given(program=built_programs())
    @settings(max_examples=120, deadline=None)
    def test_every_view_matches_the_oracle(self, program):
        import pickle

        table = _check_against_oracle(program)
        # The same answers after a pickle round trip (packed grid only).
        assert _oracle_table(pickle.loads(pickle.dumps(program))) == table
        _check_against_oracle(pickle.loads(pickle.dumps(program)))

    @given(program=built_programs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_copy_then_mutate_leaves_the_original(self, program, data):
        import pickle

        before = _oracle_table(program)
        program.page_ids()  # the clone shares a built index
        clone = program.copy()
        cells = st.tuples(
            st.integers(0, program.num_channels - 1),
            st.integers(0, program.cycle_length - 1),
        )
        for channel, slot in data.draw(st.lists(cells, max_size=8)):
            if clone.is_free(channel, slot):
                clone.assign(channel, slot, data.draw(st.integers(0, 20)))
            else:
                clone.clear(channel, slot)
            _check_against_oracle(clone)
        assert _check_against_oracle(program) == before
        # The original's packed grid (what pickling ships) is untouched.
        restored = pickle.loads(pickle.dumps(program))
        assert _check_against_oracle(restored) == before

    @given(program=built_programs())
    @settings(max_examples=80, deadline=None)
    def test_wait_time_is_bit_identical_to_the_scan(self, program):
        import math

        from repro.core.errors import InvalidInstanceError

        cycle = program.cycle_length
        for page_id, (_, slots, _) in _oracle_table(program).items():
            arrivals = [0.0, cycle - 1e-9, float(cycle), cycle + 0.25, -0.5]
            for slot in slots:
                arrivals += [
                    float(slot),
                    math.nextafter(slot, -math.inf),
                    math.nextafter(slot, math.inf),
                    slot + 0.5,
                    slot + 3 * cycle,
                    -slot - 1e-12,
                ]
            for arrival in arrivals:
                got = program.wait_time(page_id, arrival)
                want = _oracle_wait(slots, arrival, cycle)
                # repr round-trips floats exactly and tells -0.0 from 0.0.
                assert type(got) is type(want)
                assert repr(got) == repr(want), (page_id, arrival)
        with pytest.raises(InvalidInstanceError):
            program.wait_time(21, 0.0)

    @given(
        program=built_programs(),
        order=st.lists(st.integers(-3, 22), max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_reordered_index_matches_the_oracle(self, program, order):
        from repro.core.program import AppearanceIndex

        table = _oracle_table(program)
        index = AppearanceIndex.from_program(program, order)
        assert index.page_ids.tolist() == order
        assert index.cycle_length == program.cycle_length
        for row, page_id in enumerate(order):
            refs, slots, gaps = table.get(page_id, ([], [], []))
            start, stop = index.offsets[row:row + 2].tolist()
            assert index.slots[start:stop].tolist() == slots
            assert index.gaps[start:stop].tolist() == gaps
            start, stop = index.cell_offsets[row:row + 2].tolist()
            assert index.cell_slots[start:stop].tolist() == [
                ref.slot for ref in refs
            ]
            assert index.cell_channels[start:stop].tolist() == [
                ref.channel for ref in refs
            ]
        own = AppearanceIndex.from_program(program)
        assert own is AppearanceIndex.from_program(program)
        assert own.page_ids.tolist() == sorted(table)


def _wait_probes(program):
    """Rows, arrivals and oracle waits probing every slot's edges."""
    import math

    cycle = program.cycle_length
    rows, arrivals, want = [], [], []
    for row, (page_id, (_, slots, _)) in enumerate(
        sorted(_oracle_table(program).items())
    ):
        probes = [0.0, cycle - 1e-9, float(cycle), cycle + 0.25]
        for slot in slots:
            probes += [
                float(slot),
                math.nextafter(slot, -math.inf),
                math.nextafter(slot, math.inf),
                slot + 0.5,
                float(slot + 3 * cycle),
            ]
        # batch_waits takes non-negative arrivals (fmod is Python's %
        # only there); slot 0's lower neighbour is dropped.
        probes = [arrival for arrival in probes if arrival >= 0]
        rows += [row] * len(probes)
        arrivals += probes
        want += [_oracle_wait(slots, arrival, cycle) for arrival in probes]
    return rows, arrivals, want


def _answer_a_table_of_queries(index):
    """Answer as many queries as the wait table costs: it is built."""
    import numpy as np

    from repro.analysis.vectorized import batch_waits

    price = index._wait_table_price
    batch_waits(index, np.zeros(price, dtype=np.int64), np.zeros(price))
    assert index.__dict__["_wait_lut"] is not None


class TestWaitKernelOracle:
    """``batch_waits`` along both kernels against the linear scan.

    A fresh index binary-searches until the queries it has answered
    reach its dense wait table's build cost, then gathers from the
    table; every mode must give the scan's float bit for bit.
    """

    @given(
        program=built_programs(),
        mode=st.sampled_from(("table", "search", "switch")),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_waits_match_the_scan(self, program, mode, data):
        from repro.analysis.vectorized import batch_waits
        from repro.core.program import AppearanceIndex

        rows, arrivals, want = _wait_probes(program)
        assume(rows)
        packed = program.packed_grid()
        price = AppearanceIndex.from_packed(packed)._wait_table_price
        got = []
        if mode == "table":
            index = AppearanceIndex.from_packed(packed)
            _answer_a_table_of_queries(index)
            got = batch_waits(index, rows, arrivals).tolist()
        elif mode == "search":
            # A fresh index per batch of fewer queries than the table
            # costs.
            for lo in range(0, len(rows), price - 1):
                hi = lo + price - 1
                index = AppearanceIndex.from_packed(packed)
                got += batch_waits(
                    index, rows[lo:hi], arrivals[lo:hi]
                ).tolist()
                assert "_wait_lut" not in index.__dict__
        else:
            # Probes repeated past twice the table's price, fed in
            # batches smaller than it: the first batches search, the
            # table is built partway through, the last ones gather.
            repeat = -(-2 * price // len(rows))
            rows, arrivals = rows * repeat, arrivals * repeat
            want *= repeat
            index = AppearanceIndex.from_packed(packed)
            built = []
            lo = 0
            while lo < len(rows):
                hi = lo + data.draw(st.integers(1, price - 1))
                got += batch_waits(
                    index, rows[lo:hi], arrivals[lo:hi]
                ).tolist()
                built.append("_wait_lut" in index.__dict__)
                lo = hi
            assert not built[0] and built[-1]
            assert index.__dict__["_wait_lut"] is not None
        # repr round-trips floats exactly and tells -0.0 from 0.0.
        assert [repr(wait) for wait in got] == [repr(wait) for wait in want]

    @given(program=built_programs(), table=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rows_outside_the_index_are_refused(self, program, table):
        from repro.analysis.vectorized import batch_waits
        from repro.core.errors import SimulationError
        from repro.core.program import AppearanceIndex

        index = AppearanceIndex.from_packed(program.packed_grid())
        count = index.page_ids.shape[0]
        assume(count)
        if table:
            _answer_a_table_of_queries(index)
        for bad in (-1, count, count + 5):
            with pytest.raises(SimulationError, match="out of range"):
                batch_waits(index, [0, bad], [0.0, 0.5])


# ----------------------------------------------------------------------
# Indexing invariants
# ----------------------------------------------------------------------


class TestIndexingProperties:
    @given(
        instance=instances(max_groups=3, max_size=8),
        m=st.integers(1, 4),
        arrival_numerator=st.integers(0, 99),
    )
    @settings(max_examples=40, deadline=None)
    def test_access_time_accounting(self, instance, m, arrival_numerator):
        """tuning + doze == access and all three are non-negative, for
        any page, any arrival, any replication factor."""
        from repro.indexing import IndexedProgram

        program = schedule_susc(instance).program
        indexed = IndexedProgram(program, m=m)
        arrival = (
            arrival_numerator / 100.0
        ) * indexed.cycle_length
        page = next(instance.pages())
        result = indexed.access(page.page_id, arrival)
        assert result.access_time >= 0
        assert result.tuning_time >= 0
        assert result.doze_time >= -1e-9
        assert abs(
            result.access_time
            - (result.tuning_time + result.doze_time)
        ) < 1e-9

    @given(instance=instances(max_groups=3, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_index_insertion_preserves_counts(self, instance):
        from repro.indexing import IndexedProgram

        program = schedule_susc(instance).program
        indexed = IndexedProgram(program, m=2)
        for page in instance.pages():
            assert indexed.expanded_program.broadcast_count(
                page.page_id
            ) == program.broadcast_count(page.page_id)
