"""Tests for the AvgD array kernel and the vectorised measurement."""

from __future__ import annotations

import random

import pytest

from repro.core.delay import page_average_delay, program_average_delay
from repro.core.errors import SimulationError
from repro.core.pamad import schedule_pamad
from repro.core.susc import schedule_susc
from repro.oracles import (
    program_average_delay_reference,
    replay_requests_sequential,
)
from repro.sim.clients import measure_program
from repro.workload.generator import paper_instance, random_instance
from repro.workload.requests import generate_requests, zipf_access_model


def _page_delays(program, instance):
    """Each page's delay as the AvgD kernel prices it: the program's
    AvgD with all access probability on that one page."""
    ids = [page.page_id for page in instance.pages()]
    return {
        page_id: program_average_delay(
            program,
            instance,
            {other: float(other == page_id) for other in ids},
        )
        for page_id in ids
    }


class TestProgramDelayVector:
    """The kernel's per-page delays equal the scalar page model."""

    def test_matches_scalar_model_exactly(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 2)
        vector = _page_delays(schedule.program, fig2_instance)
        for page in fig2_instance.pages():
            scalar = page_average_delay(
                schedule.program, page.page_id, page.expected_time
            )
            assert vector[page.page_id] == scalar

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_on_random_instances(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        channels = rng.randint(1, 4)
        schedule = schedule_pamad(instance, channels)
        vector = _page_delays(schedule.program, instance)
        for page in instance.pages():
            scalar = page_average_delay(
                schedule.program, page.page_id, page.expected_time
            )
            assert vector[page.page_id] == scalar

    def test_zero_on_valid_program(self, fig2_instance):
        schedule = schedule_susc(fig2_instance)
        vector = _page_delays(schedule.program, fig2_instance)
        assert all(value == 0.0 for value in vector.values())


class TestProgramAverageDelayFast:
    """The AvgD kernel equals the per-page reference loop bit for bit."""

    def test_matches_scalar_uniform(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 2)
        assert program_average_delay(
            schedule.program, fig2_instance
        ) == program_average_delay_reference(schedule.program, fig2_instance)

    def test_matches_scalar_weighted(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 2)
        zipf = zipf_access_model(fig2_instance)
        assert program_average_delay(
            schedule.program, fig2_instance, zipf
        ) == program_average_delay_reference(
            schedule.program, fig2_instance, zipf
        )

    def test_paper_scale_agreement(self):
        instance = paper_instance("uniform")
        schedule = schedule_pamad(instance, 13)
        assert schedule.average_delay == program_average_delay_reference(
            schedule.program, instance
        )


class TestBatchMeasure:
    """The 3000-request measurement, one batched pass over the program's
    appearance index (:func:`repro.sim.clients.measure_program`)."""

    def test_deterministic(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 2)
        a = measure_program(schedule.program, fig2_instance, seed=3)
        b = measure_program(schedule.program, fig2_instance, seed=3)
        assert repr(a) == repr(b)

    def test_zero_on_valid_program(self, fig2_instance):
        schedule = schedule_susc(fig2_instance)
        result = measure_program(schedule.program, fig2_instance,
                                 num_requests=2000, seed=0)
        assert result.average_delay == 0.0
        assert result.miss_ratio == 0.0

    def test_converges_to_analytic(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 2)
        result = measure_program(schedule.program, fig2_instance,
                                 num_requests=200_000, seed=1)
        assert result.average_delay == pytest.approx(
            schedule.average_delay, rel=0.05
        )

    def test_agrees_with_scalar_simulator_statistically(self, fig2_instance):
        """The batched pass replays the scalar simulator's own stream:
        the two agree exactly, not just within sampling error."""
        schedule = schedule_pamad(fig2_instance, 2)
        fast = measure_program(schedule.program, fig2_instance,
                               num_requests=50_000, seed=2)
        scalar = replay_requests_sequential(
            schedule.program,
            fig2_instance,
            generate_requests(
                fig2_instance,
                schedule.program.cycle_length,
                50_000,
                random.Random(2),
            ),
        )
        assert repr(fast) == repr(scalar)
        assert fast.delay_stats._m2 == scalar.delay_stats._m2

    def test_weighted_access(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 2)
        probabilities = {p.page_id: 0.0 for p in fig2_instance.pages()}
        probabilities[1] = 1.0
        result = measure_program(
            schedule.program, fig2_instance, num_requests=1000,
            seed=0, access_probabilities=probabilities,
        )
        # All requests hit page 1 (t=2): delay equals page 1's analytic
        # value in expectation.
        expected = page_average_delay(schedule.program, 1, 2)
        assert result.average_delay == pytest.approx(expected, rel=0.3)
        assert list(result.group_delay) == [1]

    def test_wait_at_least_delay(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 2)
        result = measure_program(schedule.program, fig2_instance, seed=0)
        assert result.average_wait >= result.average_delay

    def test_rejects_zero_requests(self, fig2_instance):
        schedule = schedule_pamad(fig2_instance, 2)
        with pytest.raises(SimulationError, match="empty request stream"):
            measure_program(schedule.program, fig2_instance, num_requests=0)
