"""Page-level catalog churn, each fast path against its oracle.

A catalog mutation in the live service edits one page, so three fast
paths do only that page's work, and each is pinned here to the slow,
obviously-correct computation it replaced:

* **Row patch** — :meth:`AppearanceIndex.with_row` splices one page's
  row into an index; it must equal :meth:`AppearanceIndex.from_packed`
  of the edited grid array for array, dtypes included, and start with
  no answered wait queries and no derived tables, like a fresh index.
  :meth:`BroadcastProgram.assign_page`/:meth:`~BroadcastProgram.
  clear_page` keep a program's index current through it.
* **Insert search** — the live service's one-pass array search for an
  incremental insert (``LiveBroadcastService._try_place``) must take
  the cells :func:`repro.oracles.try_place_reference`'s column scan
  takes, on any grid and any deadline.
* **Per-deadline load** — :class:`LiveCatalog` prices the Theorem-3.1
  requirement from page counts per deadline; it must equal
  :func:`repro.core.bounds.minimum_channels` of the catalog's snapshot
  after any run of mutations, and its what-if probe must equal the
  requirement of the mutated catalog.
"""

from __future__ import annotations

import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounds import minimum_channels
from repro.core.errors import InvalidInstanceError, SlotConflictError
from repro.core.pages import instance_from_counts
from repro.core.program import FREE, AppearanceIndex, BroadcastProgram
from repro.live import LiveBroadcastService, LiveCatalog
from repro.oracles import try_place_reference
from repro.workload.mutations import generate_mutation_trace

_ARRAYS = (
    "page_ids",
    "offsets",
    "slots",
    "gaps",
    "cell_offsets",
    "cell_slots",
    "cell_channels",
)


def _assert_same_index(got, want):
    assert got.cycle_length == want.cycle_length
    for name in _ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


def _assert_fresh(index):
    assert index._answered == 0
    assert index._counts is None
    assert index._slot_rows is None
    assert index._gap_rows is None
    for cached in ("_row_lut", "_row_keys", "_wait_lut"):
        assert cached not in index.__dict__, cached


@st.composite
def packed_grids(draw, max_channels=4, max_cycle=12, max_page=6):
    channels = draw(st.integers(1, max_channels))
    cycle = draw(st.integers(1, max_cycle))
    cells = draw(
        st.lists(
            st.none() | st.integers(0, max_page),
            min_size=channels * cycle,
            max_size=channels * cycle,
        )
    )
    return np.array(
        [FREE if cell is None else cell for cell in cells], dtype=np.int64
    ).reshape(channels, cycle)


@st.composite
def row_edits(draw):
    """A grid, a page and the page's new cells, in a shuffled order.

    The page is the first or last indexed one, an absent one or any id;
    its new cells are any subset of the cells free once its old ones
    are cleared — none removes its row, its old cells replace it.
    """
    grid = draw(packed_grids())
    present = sorted(set(grid[grid != FREE].tolist()))
    choices = [st.integers(0, 7)]
    if present:
        choices.append(st.sampled_from((present[0], present[-1])))
    page_id = draw(st.one_of(*choices))
    edited = grid.copy()
    edited[edited == page_id] = FREE
    channels, slots = np.nonzero(edited == FREE)
    keep = draw(
        st.lists(
            st.booleans(), min_size=slots.size, max_size=slots.size
        )
    )
    keep = np.asarray(keep, dtype=bool)
    order = draw(st.permutations(range(int(keep.sum()))))
    channels, slots = channels[keep][order], slots[keep][order]
    edited[channels, slots] = page_id
    return grid, page_id, channels, slots, edited


class TestRowPatch:
    @given(edit=row_edits())
    @settings(max_examples=300, deadline=None)
    @example(  # removal of the only row
        edit=(
            np.array([[3, FREE], [3, 3]]),
            3,
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.full((2, 2), FREE),
        )
    )
    @example(  # insert before the first row and after the last
        edit=(
            np.array([[2, 4], [FREE, FREE]]),
            0,
            np.array([1]),
            np.array([1]),
            np.array([[2, 4], [FREE, 0]]),
        )
    )
    @example(
        edit=(
            np.array([[2, 4], [FREE, FREE]]),
            9,
            np.array([1, 1]),
            np.array([1, 0]),
            np.array([[2, 4], [9, 9]]),
        )
    )
    def test_with_row_equals_a_fresh_build(self, edit):
        grid, page_id, channels, slots, edited = edit
        index = AppearanceIndex.from_packed(grid)
        # A warm index (answered queries, derived tables) patches into
        # a cold one.
        object.__setattr__(index, "_answered", 5)
        index._build_counts()
        index._row_keys  # noqa: B018
        patched = index.with_row(page_id, channels, slots)
        _assert_same_index(patched, AppearanceIndex.from_packed(edited))
        if patched is not index:
            _assert_fresh(patched)
        # The source index is immutable: it still describes the old grid.
        _assert_same_index(index, AppearanceIndex.from_packed(grid))

    def test_absent_page_without_cells_is_the_same_index(self):
        index = AppearanceIndex.from_packed(np.array([[1, FREE]]))
        assert index.with_row(7, (), ()) is index

    @given(grid=packed_grids(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_page_mutators_keep_the_program_index_current(self, grid, data):
        program = BroadcastProgram.from_array(grid)
        if data.draw(st.booleans()):
            program.page_ids()  # build the index, so edits patch it
        for _ in range(data.draw(st.integers(1, 4))):
            page_id = data.draw(st.integers(0, 7))
            warm = program._index is not None
            version = program.version
            if data.draw(st.booleans()):
                held = int((program.packed_grid() == page_id).sum())
                assert program.clear_page(page_id) == held
                assert program.version == version + held
            else:
                channels, slots = np.nonzero(program.packed_grid() == FREE)
                keep = np.asarray(
                    data.draw(
                        st.lists(
                            st.booleans(),
                            min_size=slots.size,
                            max_size=slots.size,
                        )
                    ),
                    dtype=bool,
                )
                program.assign_page(page_id, channels[keep], slots[keep])
                assert program.version == version + int(keep.sum())
            # A built index stays built (patched), an unbuilt one stays
            # unbuilt, and the list grid, packed mirror and index agree.
            assert (program._index is not None) == warm
            packed = program.packed_grid()
            assert packed.tolist() == [
                [FREE if cell is None else cell for cell in row]
                for row in program.grid_rows()
            ]
            _assert_same_index(
                AppearanceIndex.from_program(program),
                AppearanceIndex.from_packed(packed),
            )

    def test_assign_page_adds_to_a_page_already_on_air(self):
        program = BroadcastProgram.from_array(
            np.array([[5, FREE, FREE], [FREE, FREE, 5]])
        )
        program.page_ids()
        program.assign_page(5, [1, 0], [1, 2])
        assert program.appearance_slots(5) == [0, 1, 2]
        assert program.broadcast_count(5) == 4
        _assert_same_index(
            AppearanceIndex.from_program(program),
            AppearanceIndex.from_packed(program.packed_grid()),
        )

    @pytest.mark.parametrize(
        "page_id, channels, slots, error",
        [
            (7, [1, 0], [1, 0], SlotConflictError),  # (0, 0) holds page 1
            (7, [1, 1], [1, 1], SlotConflictError),  # one cell twice
            (7, [2], [0], InvalidInstanceError),  # channel out of range
            (7, [1], [-1], InvalidInstanceError),  # slot out of range
            (7, [1], [1, 2], InvalidInstanceError),  # lengths differ
            (FREE, [1], [1], InvalidInstanceError),  # the free marker
        ],
    )
    def test_assign_page_refuses_before_writing(
        self, page_id, channels, slots, error
    ):
        program = BroadcastProgram.from_array(
            np.array([[1, FREE], [FREE, FREE]])
        )
        program.page_ids()
        before = (program.grid_rows(), program.version)
        with pytest.raises(error):
            program.assign_page(page_id, channels, slots)
        assert (program.grid_rows(), program.version) == before
        assert program.page_ids() == {1}

    def test_service_edits_patch_the_index(self, monkeypatch):
        """A churn replay's every page edit leaves the program's index
        equal to a fresh build of its grid."""
        checked = []
        for name in ("assign_page", "clear_page"):
            method = getattr(BroadcastProgram, name)

            def checking(program, *args, _method=method, _name=name):
                result = _method(program, *args)
                if program._index is not None:
                    _assert_same_index(
                        program._index,
                        AppearanceIndex.from_packed(program.packed_grid()),
                    )
                    _assert_fresh(program._index)
                    checked.append(_name)
                return result

            monkeypatch.setattr(BroadcastProgram, name, checking)
        instance = instance_from_counts((4, 6, 4, 6), (4, 8, 16, 32))
        trace = generate_mutation_trace(
            instance, seed=3, horizon=96, mutations=60, listeners=200
        )
        report = LiveBroadcastService(instance, trace, budget=4).run()
        assert report.counters["incremental_repairs"] > 0
        assert set(checked) == {"assign_page", "clear_page"}


class TestInsertSearch:
    @given(
        grid=packed_grids(max_channels=3, max_cycle=16, max_page=4),
        expected_time=st.integers(1, 20),
        full=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_array_search_takes_the_column_scans_cells(
        self, grid, expected_time, full
    ):
        if full:
            grid[grid == FREE] = 0
        reference = BroadcastProgram.from_array(grid)
        placed = try_place_reference(reference, 9, expected_time)
        program = BroadcastProgram.from_array(grid)
        program.page_ids()
        service = types.SimpleNamespace(program=program)
        cells = LiveBroadcastService._try_place(service, 9, expected_time)
        assert program.grid_rows() == reference.grid_rows()
        assert cells == reference.broadcast_count(9)
        assert bool(cells) == placed
        _assert_same_index(
            AppearanceIndex.from_program(program),
            AppearanceIndex.from_packed(program.packed_grid()),
        )


_LADDER = (2, 4, 8, 16)


class TestDeadlineLoad:
    @given(
        initial=st.dictionaries(
            st.integers(0, 30), st.sampled_from(_LADDER), min_size=1,
            max_size=12,
        ),
        steps=st.lists(
            st.tuples(
                st.sampled_from(("insert", "remove", "retune")),
                st.integers(0, 30),
                st.sampled_from(_LADDER),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_required_channels_follows_minimum_channels(
        self, initial, steps
    ):
        catalog = LiveCatalog(initial)
        for kind, page_id, expected in steps:
            if kind == "insert":
                if page_id in catalog:
                    continue
                probe = catalog.required_after(add=expected)
                catalog.insert(page_id, expected)
            elif kind == "remove":
                if page_id not in catalog or len(catalog) == 1:
                    continue
                probe = catalog.required_after(
                    drop=catalog.expected_time(page_id)
                )
                catalog.remove(page_id)
            else:
                if page_id not in catalog:
                    continue
                probe = catalog.required_after(
                    add=expected, drop=catalog.expected_time(page_id)
                )
                catalog.retune(page_id, expected)
            required = minimum_channels(catalog.to_instance())
            assert probe == required
            assert catalog.required_channels() == required
            assert catalog.deadline_counts() == dict(
                Counter(catalog.pages().values())
            )
