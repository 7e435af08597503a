"""Channel-failure injection and recovery, via the resilience API.

Coverage runs against :func:`repro.resilience.silence_channels` and
:func:`repro.resilience.compare_static_failure_sizes`.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.core.pages import instance_from_counts
from repro.core.susc import schedule_susc
from repro.core.validate import validate_program
from repro.resilience import (
    compare_static_failure_sizes,
    silence_channels,
)


@pytest.fixture
def susc_schedule(fig2_instance):
    return schedule_susc(fig2_instance)


class TestSilenceChannels:
    def test_survivor_grid_shape(self, susc_schedule, fig2_instance):
        degraded = silence_channels(
            susc_schedule.program, fig2_instance, [0]
        )
        assert degraded.program.num_channels == 3
        assert degraded.program.cycle_length == 8

    def test_surviving_pages_keep_slots(self, susc_schedule, fig2_instance):
        program = susc_schedule.program
        degraded = silence_channels(program, fig2_instance, [3])
        for page in fig2_instance.pages():
            if page.page_id in degraded.lost_pages:
                continue
            # same slot positions as before (channels renumbered)
            assert degraded.program.appearance_slots(
                page.page_id
            ) == program.appearance_slots(page.page_id)

    def test_lost_pages_detected(self, susc_schedule, fig2_instance):
        program = susc_schedule.program
        # SUSC places each page on a single channel, so failing that
        # channel loses exactly its pages.
        channel_pages = {
            page.page_id
            for page in fig2_instance.pages()
            if susc_schedule.first_slots[page.page_id].channel == 2
        }
        degraded = silence_channels(program, fig2_instance, [2])
        assert set(degraded.lost_pages) == channel_pages

    def test_no_failure_is_identity(self, susc_schedule, fig2_instance):
        degraded = silence_channels(
            susc_schedule.program, fig2_instance, []
        )
        assert degraded.lost_pages == ()
        assert degraded.average_delay == 0.0
        assert validate_program(degraded.program, fig2_instance).ok

    def test_all_channels_failing_rejected(self, susc_schedule, fig2_instance):
        with pytest.raises(SimulationError, match="every channel"):
            silence_channels(
                susc_schedule.program, fig2_instance, [0, 1, 2, 3]
            )

    def test_out_of_range_channel_rejected(self, susc_schedule, fig2_instance):
        with pytest.raises(SimulationError, match="out of range"):
            silence_channels(susc_schedule.program, fig2_instance, [7])

    def test_duplicate_failures_collapse(self, susc_schedule, fig2_instance):
        degraded = silence_channels(
            susc_schedule.program, fig2_instance, [1, 1, 1]
        )
        assert degraded.program.num_channels == 3
        assert degraded.failed_channels == (1,)
        assert degraded.surviving_channels == (0, 2, 3)


class TestCompareResponses:
    def test_reschedule_never_loses_pages(self, susc_schedule, fig2_instance):
        rows = compare_static_failure_sizes(
            susc_schedule.program, fig2_instance, [1, 2, 3]
        )
        assert [row.failed_count for row in rows] == [1, 2, 3]
        for row in rows:
            assert row.surviving_channels == 4 - row.failed_count
            assert row.rescheduled_delay >= 0
            # degraded response loses pages once a populated channel dies
        assert rows[-1].degraded_lost_pages > 0

    def test_reschedule_has_finite_delay(self, susc_schedule, fig2_instance):
        rows = compare_static_failure_sizes(
            susc_schedule.program, fig2_instance, [3]
        )
        assert rows[0].rescheduled_delay < float("inf")

    def test_invalid_failure_size_rejected(self, susc_schedule, fig2_instance):
        with pytest.raises(SimulationError):
            compare_static_failure_sizes(
                susc_schedule.program, fig2_instance, [4]
            )
        with pytest.raises(SimulationError):
            compare_static_failure_sizes(
                susc_schedule.program, fig2_instance, [0]
            )

    def test_more_failures_more_reschedule_delay(self):
        # A heavily loaded instance so every lost channel costs delay.
        instance = instance_from_counts([8, 8, 8], [2, 4, 8])
        schedule = schedule_susc(instance)
        rows = compare_static_failure_sizes(
            schedule.program,
            instance,
            list(range(1, schedule.num_channels)),
        )
        delays = [row.rescheduled_delay for row in rows]
        assert delays == sorted(delays)
