"""Unit tests for PAMAD placement (Algorithm 4) and the full pipeline."""

from __future__ import annotations

import random

import pytest

from repro.core.delay import program_average_delay
from repro.core.errors import SearchSpaceError
from repro.core.frequencies import pamad_frequencies
from repro.core.pages import instance_from_counts
from repro.core.pamad import (
    place_by_frequency,
    place_sequential,
    schedule_pamad,
)
from repro.workload.generator import paper_instance, random_instance


class TestPlaceByFrequency:
    def test_fig2_cycle_length(self, fig2_instance):
        result = place_by_frequency(fig2_instance, (4, 2, 1), 3)
        assert result.program.cycle_length == 9  # ceil(25/3), Eq. 8

    def test_every_page_placed_exactly_s_times(self, fig2_instance):
        result = place_by_frequency(fig2_instance, (4, 2, 1), 3)
        program = result.program
        for page in fig2_instance.pages():
            expected = (4, 2, 1)[page.group_index - 1]
            assert program.broadcast_count(page.page_id) == expected

    def test_copies_spread_over_windows(self, fig2_instance):
        """Each copy of a G1 page lands in its own quarter of the cycle
        (as long as no window overflowed)."""
        result = place_by_frequency(fig2_instance, (4, 2, 1), 3)
        assert result.window_misses == 0
        program = result.program
        for page in fig2_instance.group(1).pages:
            slots = program.appearance_slots(page.page_id)
            windows = {int(slot * 4 / 9) for slot in slots}
            assert len(windows) == 4

    def test_wrong_frequency_vector_length(self, fig2_instance):
        with pytest.raises(SearchSpaceError):
            place_by_frequency(fig2_instance, (4, 2), 3)

    def test_zero_frequency_rejected(self, fig2_instance):
        with pytest.raises(SearchSpaceError):
            place_by_frequency(fig2_instance, (4, 0, 1), 3)

    def test_single_channel(self, fig2_instance):
        result = place_by_frequency(fig2_instance, (1, 1, 1), 1)
        assert result.program.cycle_length == 11
        assert result.program.occupancy() == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_place_fully(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        channels = rng.randint(1, 5)
        assignment = pamad_frequencies(instance, channels)
        result = place_by_frequency(
            instance, assignment.frequencies, channels
        )
        counts = result.program.page_counts()
        for page in instance.pages():
            expected = assignment.frequencies[page.group_index - 1]
            assert counts[page.page_id] == expected

    def test_grid_never_overfull(self, fig2_instance):
        result = place_by_frequency(fig2_instance, (4, 2, 1), 3)
        # 25 content slots in a 3x9 grid.
        assert result.program.occupancy() == pytest.approx(25 / 27)


class TestPlaceSequential:
    def test_same_counts_as_even_spread(self, fig2_instance):
        even = place_by_frequency(fig2_instance, (4, 2, 1), 3).program
        packed = place_sequential(fig2_instance, (4, 2, 1), 3).program
        assert even.page_counts() == packed.page_counts()
        assert even.cycle_length == packed.cycle_length

    def test_sequential_is_never_better(self, fig2_instance):
        """Even spreading is the whole point of Algorithm 4."""
        even = place_by_frequency(fig2_instance, (4, 2, 1), 3).program
        packed = place_sequential(fig2_instance, (4, 2, 1), 3).program
        assert program_average_delay(
            packed, fig2_instance
        ) >= program_average_delay(even, fig2_instance)

    def test_validation_mirrors_algorithm4(self, fig2_instance):
        with pytest.raises(SearchSpaceError):
            place_sequential(fig2_instance, (4, 2), 3)


class TestSchedulePamad:
    def test_fig2_end_to_end(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 3)
        assert schedule.assignment.frequencies == (4, 2, 1)
        assert schedule.program.cycle_length == 9
        assert schedule.num_channels == 3
        assert schedule.average_delay >= 0

    def test_average_delay_matches_program(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 3)
        assert schedule.average_delay == pytest.approx(
            program_average_delay(schedule.program, fig2_instance)
        )

    def test_monotone_in_channels(self, fig2_instance):
        """More channels never hurt (on this instance's whole range)."""
        delays = [
            schedule_pamad(fig2_instance, channels).average_delay
            for channels in (1, 2, 3, 4)
        ]
        assert delays == sorted(delays, reverse=True)

    def test_sufficient_channels_reach_near_zero_delay(self, fig2_instance):
        # See test_frequencies: PAMAD is "almost optimal", not exact, at
        # the sufficient-channel boundary (greedy tie commitment).
        schedule = schedule_pamad(fig2_instance, 4)
        assert schedule.average_delay < 0.05

    def test_single_channel_never_starves_pages(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 1)
        assert schedule.program.page_ids() == {
            page.page_id for page in fig2_instance.pages()
        }

    def test_single_group(self, single_group_instance):
        schedule = schedule_pamad(single_group_instance, 1)
        assert schedule.assignment.frequencies == (1,)
        assert schedule.program.cycle_length == 4

    def test_objective_override_plumbs_through(self, fig2_instance):
        from repro.core.delay import normalized_group_delay

        schedule = schedule_pamad(
            fig2_instance, 3, objective=normalized_group_delay
        )
        assert schedule.average_delay >= 0


class TestNearSufficiency:
    """PAMAD's exact AvgD is not monotone in N near N_min.  These pin
    the literal algorithm's values, so a change to the frequency search
    or to Algorithm 4 shows up here."""

    AVGD = {
        "s-skewed": {
            141: 1.1556687657430724,
            142: 0.19417893401015204,
            143: 0.30253076923077016,
            144: 0.48094573643410865,
            145: 0.049384015594541995,
            146: 0.013792873051224966,
            147: 1.0987042801556401,
        },
        "normal": {
            41: 0.5703583877995624,
            42: 0.3522901785714274,
            43: 0.24223112128146504,
            44: 0.19876252983293402,
            45: 0.4110170731707317,
        },
        "l-skewed": {
            13: 0.6569999999999975,
            14: 0.9368537414966036,
            15: 0.07968323586744443,
        },
        "uniform": {
            59: 0.0625869565217385,
            60: 0.15101116625310088,
            61: 0.06902661596958203,
            62: 0.23959126213592424,
        },
    }

    @pytest.mark.parametrize("distribution", sorted(AVGD))
    def test_exact_avgd_at_the_pinned_points(self, distribution):
        instance = paper_instance(distribution)
        got = {
            channels: schedule_pamad(instance, channels).average_delay
            for channels in self.AVGD[distribution]
        }
        assert got == pytest.approx(self.AVGD[distribution], rel=1e-12)
