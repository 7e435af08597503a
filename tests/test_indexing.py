"""Tests for the (1, m) air-indexing substrate."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.pages import instance_from_counts
from repro.core.program import BroadcastProgram
from repro.core.susc import schedule_susc
from repro.indexing import (
    INDEX_SLOT,
    EnergyModel,
    IndexedProgram,
    build_indexed_program,
    sweep_index_factor,
)


@pytest.fixture
def data_program(fig2_instance) -> BroadcastProgram:
    return schedule_susc(fig2_instance).program


class TestConstruction:
    def test_expanded_cycle_length(self, data_program):
        indexed = IndexedProgram(data_program, m=2, index_slots=1)
        assert indexed.cycle_length == data_program.cycle_length + 2

    def test_index_slots_multiply(self, data_program):
        indexed = IndexedProgram(data_program, m=2, index_slots=3)
        assert indexed.cycle_length == data_program.cycle_length + 6

    def test_overhead_fraction(self, data_program):
        indexed = IndexedProgram(data_program, m=1, index_slots=1)
        assert indexed.overhead_fraction == pytest.approx(
            1 / indexed.cycle_length
        )

    def test_rejects_bad_m(self, data_program):
        with pytest.raises(InvalidInstanceError):
            IndexedProgram(data_program, m=0)

    def test_rejects_bad_index_slots(self, data_program):
        with pytest.raises(InvalidInstanceError):
            IndexedProgram(data_program, index_slots=0)

    def test_rejects_absurd_overhead(self, data_program):
        with pytest.raises(InvalidInstanceError, match="dwarfs"):
            IndexedProgram(data_program, m=100, index_slots=10)

    def test_builder_helper(self, data_program):
        indexed = build_indexed_program(data_program, m=2)
        assert indexed.m == 2


class TestExpandedGrid:
    def test_index_segments_on_every_channel(self, data_program):
        indexed = IndexedProgram(data_program, m=2)
        expanded = indexed.expanded_program
        for start in indexed.index_starts():
            for channel in range(expanded.num_channels):
                assert expanded.get(channel, start) == INDEX_SLOT

    def test_index_segment_count(self, data_program):
        indexed = IndexedProgram(data_program, m=3, index_slots=2)
        expanded = indexed.expanded_program
        index_cells = expanded.broadcast_count(INDEX_SLOT)
        assert index_cells == 3 * 2 * expanded.num_channels

    def test_index_cells_survive_a_pickle_round_trip(self, data_program):
        # INDEX_SLOT must not collide with the packed grid's free-cell
        # marker, which unpickling (like from_array) turns into None.
        import pickle

        from repro.core.program import FREE

        assert INDEX_SLOT != FREE
        expanded = IndexedProgram(data_program, m=3).expanded_program
        loaded = pickle.loads(pickle.dumps(expanded))
        assert loaded == expanded
        assert loaded.broadcast_count(INDEX_SLOT) == (
            expanded.broadcast_count(INDEX_SLOT)
        ) == 3 * expanded.num_channels
        assert loaded.appearance_slots(INDEX_SLOT) == (
            expanded.appearance_slots(INDEX_SLOT)
        )

    def test_data_preserved_in_order(self, data_program, fig2_instance):
        indexed = IndexedProgram(data_program, m=2)
        expanded = indexed.expanded_program
        for page in fig2_instance.pages():
            assert expanded.broadcast_count(
                page.page_id
            ) == data_program.broadcast_count(page.page_id)

    def test_data_relative_order_unchanged(self, data_program):
        indexed = IndexedProgram(data_program, m=2)
        expanded = indexed.expanded_program
        for channel in range(data_program.num_channels):
            original = [
                data_program.get(channel, slot)
                for slot in range(data_program.cycle_length)
                if data_program.get(channel, slot) is not None
            ]
            kept = [
                expanded.get(channel, slot)
                for slot in range(expanded.cycle_length)
                if expanded.get(channel, slot) not in (None, INDEX_SLOT)
            ]
            assert kept == original


class TestAccessModel:
    def test_time_accounting_identity(self, data_program, fig2_instance):
        indexed = IndexedProgram(data_program, m=2)
        for page in fig2_instance.pages():
            for arrival in (0.0, 1.3, 5.7, 9.9):
                result = indexed.access(page.page_id, arrival)
                assert result.tuning_time <= result.access_time
                assert result.access_time == pytest.approx(
                    result.tuning_time + result.doze_time
                )
                assert result.doze_time >= 0

    def test_unknown_page_rejected(self, data_program):
        indexed = IndexedProgram(data_program, m=1)
        with pytest.raises(InvalidInstanceError):
            indexed.access(999, 0.0)

    def test_pointer_packets_cap_probe(self, data_program):
        with_pointers = IndexedProgram(data_program, m=1)
        without = IndexedProgram(data_program, m=1, pointer_packets=False)
        # Arrive just after the index: the pointerless client listens a
        # whole cycle, the pointer client probes one slot and dozes.
        arrival = 1.5
        assert with_pointers.access(1, arrival).tuning_time < (
            without.access(1, arrival).tuning_time
        )

    def test_more_indexes_less_tuning(self, data_program, fig2_instance):
        page = fig2_instance.groups[-1].pages[0].page_id
        tunings = [
            IndexedProgram(data_program, m=m, pointer_packets=False)
            .average_costs(page).tuning_time
            for m in (1, 2, 4)
        ]
        assert tunings == sorted(tunings, reverse=True)

    def test_more_indexes_more_overhead(self, data_program):
        overheads = [
            IndexedProgram(data_program, m=m).overhead_fraction
            for m in (1, 2, 4)
        ]
        assert overheads == sorted(overheads)


class TestEnergyModel:
    def test_energy_combines_states(self):
        from repro.indexing.index import AccessResult

        model = EnergyModel(active_power=1.0, doze_power=0.1)
        access = AccessResult(access_time=10, tuning_time=3, doze_time=7)
        assert model.energy(access) == pytest.approx(3 + 0.7)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInstanceError):
            EnergyModel(active_power=0)
        with pytest.raises(InvalidInstanceError):
            EnergyModel(active_power=1.0, doze_power=2.0)


class TestSweep:
    def test_rows_in_factor_order(self, data_program, fig2_instance):
        rows = sweep_index_factor(
            data_program,
            [p.page_id for p in fig2_instance.pages()],
            factors=(1, 2, 4),
        )
        assert [row.m for row in rows] == [1, 2, 4]

    def test_energy_decreases_with_m_on_susc_program(self):
        """On a long cycle, more index copies always cut tuning energy
        (the latency cost shows up in access_time instead)."""
        instance = instance_from_counts([30, 50, 30], [8, 16, 32])
        program = schedule_susc(instance).program
        rows = sweep_index_factor(
            program,
            [p.page_id for p in instance.pages()][:10],
            factors=(1, 4, 16),
        )
        energies = [row.energy for row in rows]
        assert energies == sorted(energies, reverse=True)

    def test_empty_pages_rejected(self, data_program):
        with pytest.raises(InvalidInstanceError):
            sweep_index_factor(data_program, [], factors=(1,))
