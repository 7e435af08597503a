"""Unit tests for the broadcast program grid."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidInstanceError, SlotConflictError
from repro.core.program import FREE, BroadcastProgram, SlotRef


@pytest.fixture
def empty_program() -> BroadcastProgram:
    return BroadcastProgram(num_channels=2, cycle_length=4)


@pytest.fixture
def filled_program() -> BroadcastProgram:
    """Page 1 at slots 0 and 2 of channel 0; page 2 at slot 1 of channel 1."""
    program = BroadcastProgram(num_channels=2, cycle_length=4)
    program.assign(0, 0, 1)
    program.assign(0, 2, 1)
    program.assign(1, 1, 2)
    return program


class TestConstruction:
    def test_shape(self, empty_program):
        assert empty_program.num_channels == 2
        assert empty_program.cycle_length == 4
        assert empty_program.total_slots == 8

    def test_rejects_zero_channels(self):
        with pytest.raises(InvalidInstanceError):
            BroadcastProgram(num_channels=0, cycle_length=4)

    def test_rejects_zero_cycle(self):
        with pytest.raises(InvalidInstanceError):
            BroadcastProgram(num_channels=1, cycle_length=0)

    def test_starts_empty(self, empty_program):
        assert empty_program.occupancy() == 0.0
        assert empty_program.page_ids() == set()


class TestCellAccess:
    def test_assign_and_get(self, empty_program):
        empty_program.assign(1, 3, 42)
        assert empty_program.get(1, 3) == 42
        assert not empty_program.is_free(1, 3)

    def test_assign_conflict(self, empty_program):
        empty_program.assign(0, 0, 1)
        with pytest.raises(SlotConflictError, match="already holds"):
            empty_program.assign(0, 0, 2)

    def test_bounds_checked(self, empty_program):
        with pytest.raises(InvalidInstanceError):
            empty_program.get(2, 0)
        with pytest.raises(InvalidInstanceError):
            empty_program.get(0, 4)
        with pytest.raises(InvalidInstanceError):
            empty_program.get(-1, 0)

    def test_free_marker_is_not_a_page_id(self, empty_program):
        with pytest.raises(InvalidInstanceError, match="reserved"):
            empty_program.assign(0, 0, FREE)
        assert empty_program.is_free(0, 0)
        assert empty_program.version == 0
        with pytest.raises(InvalidInstanceError, match="reserved"):
            BroadcastProgram.from_grid([[1, FREE], [None, 2]])
        with pytest.raises(InvalidInstanceError, match="reserved"):
            BroadcastProgram.from_dict(
                {"num_channels": 1, "cycle_length": 2, "grid": [[FREE, 3]]}
            )

    def test_other_negative_ids_are_pages(self):
        # Only FREE marks a free cell; every other id is a page, through
        # the packed grid and a pickle round trip alike.
        import pickle

        program = BroadcastProgram.from_array([[-2, FREE], [FREE, -3]])
        assert program.grid_rows() == [[-2, None], [None, -3]]
        assert program.page_ids() == {-2, -3}
        loaded = pickle.loads(pickle.dumps(program))
        assert loaded == program
        assert loaded.broadcast_count(-2) == 1

    def test_clear_returns_occupant(self, filled_program):
        assert filled_program.clear(0, 0) == 1
        assert filled_program.is_free(0, 0)

    def test_clear_empty_cell_returns_none(self, empty_program):
        assert empty_program.clear(0, 0) is None

    def test_clear_updates_appearances(self, filled_program):
        filled_program.clear(0, 0)
        assert filled_program.appearance_slots(1) == [2]

    def test_clear_last_appearance_removes_page(self, filled_program):
        filled_program.clear(1, 1)
        assert 2 not in filled_program.page_ids()


class TestScans:
    def test_free_slot_in_channel_window(self, filled_program):
        # channel 0 has slots 0,2 occupied; first free within window 4 is 1.
        assert filled_program.free_slot_in_channel_window(0, 4) == 1

    def test_free_slot_window_limits_search(self, filled_program):
        # within window 1 (slot 0 only), channel 0 is full.
        assert filled_program.free_slot_in_channel_window(0, 1) is None

    def test_free_slot_window_beyond_cycle_is_clamped(self, filled_program):
        assert filled_program.free_slot_in_channel_window(0, 100) == 1

    def test_free_channel_in_column(self, filled_program):
        assert filled_program.free_channel_in_column(0) == 1
        assert filled_program.free_channel_in_column(1) == 0

    def test_free_channel_in_full_column(self):
        program = BroadcastProgram(num_channels=1, cycle_length=2)
        program.assign(0, 0, 1)
        assert program.free_channel_in_column(0) is None

    def test_free_cells_in_airtime_order(self, filled_program):
        cells = list(filled_program.free_cells())
        assert cells[0] == SlotRef(slot=0, channel=1)
        assert len(cells) == 5

    def test_occupancy(self, filled_program):
        assert filled_program.occupancy() == pytest.approx(3 / 8)


class TestAppearances:
    def test_page_ids(self, filled_program):
        assert filled_program.page_ids() == {1, 2}

    def test_appearances_sorted_by_airtime(self, filled_program):
        refs = filled_program.appearances(1)
        assert refs == [SlotRef(slot=0, channel=0), SlotRef(slot=2, channel=0)]

    def test_appearance_slots_merge_channels(self):
        program = BroadcastProgram(num_channels=2, cycle_length=4)
        program.assign(0, 3, 9)
        program.assign(1, 1, 9)
        assert program.appearance_slots(9) == [1, 3]

    def test_broadcast_count(self, filled_program):
        assert filled_program.broadcast_count(1) == 2
        assert filled_program.broadcast_count(2) == 1
        assert filled_program.broadcast_count(404) == 0

    def test_page_counts(self, filled_program):
        assert dict(filled_program.page_counts()) == {1: 2, 2: 1}


class TestCyclicGaps:
    def test_two_appearances(self, filled_program):
        # slots 0 and 2 in a cycle of 4: gaps 2 and 2.
        assert filled_program.cyclic_gaps(1) == [2, 2]

    def test_single_appearance_spans_cycle(self, filled_program):
        assert filled_program.cyclic_gaps(2) == [4]

    def test_gaps_sum_to_cycle(self):
        program = BroadcastProgram(num_channels=1, cycle_length=10)
        for slot in (1, 4, 8):
            program.assign(0, slot, 5)
        gaps = program.cyclic_gaps(5)
        assert sum(gaps) == 10
        assert gaps == [3, 4, 3]

    def test_missing_page_raises(self, empty_program):
        with pytest.raises(InvalidInstanceError, match="does not appear"):
            empty_program.cyclic_gaps(1)


class TestWaitTime:
    def test_arrival_exactly_at_broadcast(self, filled_program):
        assert filled_program.wait_time(1, 0.0) == 0.0

    def test_arrival_between_broadcasts(self, filled_program):
        assert filled_program.wait_time(1, 0.5) == 1.5

    def test_arrival_wraps_around(self, filled_program):
        # page 2 is only at slot 1; arriving at 3.5 waits 1.5 into next cycle.
        assert filled_program.wait_time(2, 3.5) == 1.5

    def test_arrival_normalised_modulo_cycle(self, filled_program):
        assert filled_program.wait_time(2, 5.0) == filled_program.wait_time(2, 1.0)

    def test_missing_page_raises(self, empty_program):
        with pytest.raises(InvalidInstanceError):
            empty_program.wait_time(3, 0.0)


class TestSerialisation:
    def test_roundtrip_dict(self, filled_program):
        clone = BroadcastProgram.from_dict(filled_program.to_dict())
        assert clone == filled_program
        assert clone.appearance_slots(1) == filled_program.appearance_slots(1)

    def test_roundtrip_json(self, filled_program):
        clone = BroadcastProgram.from_json(filled_program.to_json())
        assert clone == filled_program

    def test_from_dict_rejects_bad_row_count(self):
        with pytest.raises(InvalidInstanceError, match="rows"):
            BroadcastProgram.from_dict(
                {"num_channels": 2, "cycle_length": 2, "grid": [[None, None]]}
            )

    def test_from_dict_rejects_bad_column_count(self):
        with pytest.raises(InvalidInstanceError, match="slots"):
            BroadcastProgram.from_dict(
                {
                    "num_channels": 1,
                    "cycle_length": 2,
                    "grid": [[None, None, None]],
                }
            )

    def test_equality_ignores_assignment_order(self):
        a = BroadcastProgram(num_channels=1, cycle_length=2)
        b = BroadcastProgram(num_channels=1, cycle_length=2)
        a.assign(0, 0, 1)
        a.assign(0, 1, 2)
        b.assign(0, 1, 2)
        b.assign(0, 0, 1)
        assert a == b

    def test_equality_against_other_types(self, empty_program):
        assert empty_program != "not a program"


class TestRendering:
    def test_render_labels_are_one_based(self, filled_program):
        text = filled_program.render()
        assert "ch1" in text
        assert "ch2" in text
        assert " 1" in text.splitlines()[0]

    def test_render_shows_pages_and_holes(self, filled_program):
        text = filled_program.render()
        assert "1" in text
        assert "." in text

    def test_repr_mentions_shape(self, filled_program):
        text = repr(filled_program)
        assert "channels=2" in text
        assert "cycle=4" in text
