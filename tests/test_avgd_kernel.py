"""The AvgD array kernel and the inlined request draw, against oracles.

:func:`repro.core.delay.program_average_delay` prices a program in one
array pass; :func:`repro.oracles.program_average_delay_reference` is the
per-page loop it replaced.  :func:`repro.sim.clients.measure_program`
draws its stream with ``choice(range(n))`` inlined;
:func:`repro.oracles.replay_requests_sequential` over
:func:`~repro.workload.requests.generate_requests` is the stream drawn
by ``choice`` itself.  Every comparison here is ``==``: the fast paths
must return the same floats, not close ones.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mpb import schedule_mpb
from repro.baselines.opt import schedule_opt
from repro.core.bounds import minimum_channels
from repro.core.delay import program_average_delay
from repro.core.errors import InvalidInstanceError
from repro.core.pages import (
    Group,
    Page,
    ProblemInstance,
    instance_from_counts,
)
from repro.core.pamad import schedule_pamad
from repro.core.program import BroadcastProgram
from repro.core.susc import schedule_susc
from repro.oracles import (
    program_average_delay_reference,
    replay_requests_sequential,
)
from repro.sim.clients import measure_program
from repro.workload.requests import generate_requests, zipf_access_model
from tests.test_properties import instances_with_channels


def _models(instance):
    """The paper's uniform access model and a Zipf one."""
    return (None, zipf_access_model(instance))


@st.composite
def doubled_programs(draw):
    """A hand-built program with one page aired on two channels in one
    slot, and an instance of its pages on a two-rung ladder."""
    cycle = draw(st.integers(2, 12))
    pages = draw(st.integers(1, 6))
    program = BroadcastProgram(2, cycle)
    doubled_slot = draw(st.integers(0, cycle - 1))
    program.assign(0, doubled_slot, 1)
    program.assign(1, doubled_slot, 1)
    free = [
        (channel, slot)
        for channel in range(2)
        for slot in range(cycle)
        if slot != doubled_slot
    ]
    cells = draw(st.permutations(free))
    for page_id in range(2, pages + 1):
        if not cells:
            break
        channel, slot = cells.pop()
        program.assign(channel, slot, page_id)
    for channel, slot in cells[: draw(st.integers(0, len(cells)))]:
        program.assign(channel, slot, draw(st.integers(1, pages)))
    on_air = sorted(program.page_ids())
    base = draw(st.integers(1, 4))
    urgent = draw(st.integers(1, len(on_air)))
    groups = [
        Group(1, base, tuple(Page(pid, 1, base) for pid in on_air[:urgent]))
    ]
    if urgent < len(on_air):
        groups.append(
            Group(
                2,
                2 * base,
                tuple(Page(pid, 2, 2 * base) for pid in on_air[urgent:]),
            )
        )
    return program, ProblemInstance(tuple(groups))


class TestKernelEqualsReference:
    @given(pair=instances_with_channels())
    @settings(max_examples=25, deadline=None)
    def test_every_scheduler_both_access_models(self, pair):
        instance, channels = pair
        programs = [
            schedule_pamad(instance, channels).program,
            schedule_mpb(instance, channels).program,
            schedule_opt(instance, channels).program,
            schedule_susc(instance, minimum_channels(instance)).program,
        ]
        for program in programs:
            for model in _models(instance):
                assert program_average_delay(
                    program, instance, model
                ) == program_average_delay_reference(
                    program, instance, model
                )

    @given(case=doubled_programs())
    @settings(max_examples=50, deadline=None)
    def test_page_twice_in_one_slot(self, case):
        program, instance = case
        for model in _models(instance):
            assert program_average_delay(
                program, instance, model
            ) == program_average_delay_reference(program, instance, model)

    def test_off_air_page_raises(self, fig2_instance):
        program = BroadcastProgram(1, 10)
        for slot in range(10):
            program.assign(0, slot, slot + 1)  # page 11 never airs
        for avgd in (
            program_average_delay,
            program_average_delay_reference,
        ):
            with pytest.raises(InvalidInstanceError, match="page 11 does"):
                avgd(program, fig2_instance)


class TestInlinedDraw:
    @pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025])
    def test_measure_equals_choice_stream(self, n):
        instance = instance_from_counts([n], [4])
        program = BroadcastProgram(1, n)
        for slot, page in enumerate(instance.pages()):
            program.assign(0, slot, page.page_id)
        for seed in range(5):
            stream = generate_requests(
                instance, program.cycle_length, 400, random.Random(seed)
            )
            assert measure_program(
                program, instance, 400, seed
            ) == replay_requests_sequential(program, instance, stream)
