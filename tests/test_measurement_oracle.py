"""The vectorised Figure-5 measurement against its per-request oracle.

:func:`repro.sim.clients.measure_program` and
:func:`~repro.sim.clients.replay_requests` answer every wait with one
:func:`~repro.core.program.batch_waits` call and fold the statistics in
request order; :func:`repro.oracles.replay_requests_sequential` is the
per-request loop they replaced.  Every field of the two results must be
equal float for float (compared by ``repr``, which round-trips floats
exactly and tells ``-0.0`` and NaN apart), and a faulty stream must
raise the same error, for the same request, from both.  A pooled sweep
shaped like the Figure-5 benchmark must reproduce points recorded with
the per-request loop, in serial, thread and process mode.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import get_scheduler
from repro.core.bounds import minimum_channels
from repro.core.errors import ReproError
from repro.core.pages import Group, Page, ProblemInstance
from repro.engine import BroadcastEngine
from repro.engine.executor import default_channel_points
from repro.oracles import replay_requests_sequential
from repro.sim.clients import measure_program, replay_requests
from repro.workload.generator import PaperParameters, paper_instance
from repro.workload.requests import (
    Request,
    generate_requests,
    zipf_access_model,
)
from tests.test_properties import built_programs

FIXTURES = Path(__file__).parent / "fixtures"
DISTRIBUTIONS = ("uniform", "normal", "lskewed", "sskewed")


def _fields(result) -> str:
    """Every field of a measurement, exactly."""
    stats = result.delay_stats
    return repr(
        (
            stats.count,
            stats.mean,
            stats._m2,
            stats.minimum,
            stats.maximum,
            result.average_delay,
            result.average_wait,
            result.miss_ratio,
            result.num_requests,
            result.group_delay,
        )
    )


def _outcome(measure):
    """A measurement's fields, or the error it raised."""
    try:
        return "ok", _fields(measure())
    except ReproError as error:
        return type(error).__name__, str(error)


def _both_measures(program, instance, num_requests, seed, probabilities):
    fast = _outcome(
        lambda: measure_program(
            program,
            instance,
            num_requests=num_requests,
            seed=seed,
            access_probabilities=probabilities,
        )
    )
    oracle = _outcome(
        lambda: replay_requests_sequential(
            program,
            instance,
            generate_requests(
                instance,
                program.cycle_length,
                num_requests,
                random.Random(seed),
                probabilities,
            ),
        )
    )
    return fast, oracle


def _both_replays(program, instance, requests):
    return (
        _outcome(lambda: replay_requests(program, instance, iter(requests))),
        _outcome(
            lambda: replay_requests_sequential(program, instance, requests)
        ),
    )


@st.composite
def measured_programs(draw):
    """A built program and an instance over its on-air pages.

    The instance puts the pages on a random ladder and may add pages the
    program never broadcasts (which a request can then hit).
    """
    program = draw(built_programs())
    on_air = sorted(pid for pid in program.page_ids() if pid >= 0)
    assume(on_air)
    off_air = draw(
        st.lists(st.integers(21, 30), unique=True, max_size=2)
    )
    page_ids = on_air + off_air
    draw(st.randoms(use_true_random=False)).shuffle(page_ids)
    base = draw(st.integers(1, 4))
    ratio = draw(st.integers(2, 3))
    h = draw(st.integers(1, min(3, len(page_ids))))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, len(page_ids) - 1),
                unique=True,
                min_size=h - 1,
                max_size=h - 1,
            )
        )
        if h > 1
        else []
    )
    groups = []
    for i, (lo, hi) in enumerate(
        zip([0, *cuts], [*cuts, len(page_ids)]), start=1
    ):
        t = base * ratio ** (i - 1)
        groups.append(
            Group(
                index=i,
                expected_time=t,
                pages=tuple(Page(pid, i, t) for pid in page_ids[lo:hi]),
            )
        )
    return program, ProblemInstance(tuple(groups)), bool(off_air)


def _access_models(draw, instance):
    kind = draw(st.sampled_from(("uniform", "zipf", "single", "stranger")))
    if kind == "uniform":
        return None
    if kind == "zipf":
        return zipf_access_model(
            instance, draw(st.sampled_from((0.0, 0.8, 1.5)))
        )
    pages = [page.page_id for page in instance.pages()]
    probabilities = {pid: 0.0 for pid in pages}
    probabilities[draw(st.sampled_from(pages))] = 1.0
    if kind == "stranger":
        # A page the instance does not know, drawn now and then.
        probabilities[99] = draw(st.sampled_from((0.05, 0.5)))
    return probabilities


class TestSeededMeasurement:
    @given(
        case=measured_programs(),
        num_requests=st.sampled_from((1, 2, 3000)),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_loop_on_built_programs(
        self, case, num_requests, seed, data
    ):
        program, instance, _ = case
        probabilities = _access_models(data.draw, instance)
        fast, oracle = _both_measures(
            program, instance, num_requests, seed, probabilities
        )
        assert fast == oracle

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("algorithm", ["pamad", "m-pb", "susc"])
    def test_matches_the_loop_on_paper_instances(
        self, distribution, algorithm
    ):
        instance = paper_instance(distribution, PaperParameters(n=120))
        n_min = minimum_channels(instance)
        points = (
            [n_min]
            if algorithm == "susc"
            else default_channel_points(n_min, 3)
        )
        zipf = zipf_access_model(instance)
        for channels in points:
            program = get_scheduler(algorithm)(instance, channels).program
            for num_requests in (1, 2, 3000):
                for probabilities in (None, zipf):
                    fast, oracle = _both_measures(
                        program, instance, num_requests, 11, probabilities
                    )
                    assert fast[0] == "ok"
                    assert fast == oracle, (channels, num_requests)

    @pytest.mark.parametrize("num_requests", [0, -1])
    def test_empty_and_negative_streams_fail_alike(
        self, fig2_instance, num_requests
    ):
        program = get_scheduler("pamad")(fig2_instance, 2).program
        fast, oracle = _both_measures(
            program, fig2_instance, num_requests, 0, None
        )
        assert fast[0] != "ok"
        assert fast == oracle


def _edge_arrivals(program):
    """Arrivals at every slot, its ULP neighbours, the cycle and past it."""
    cycle = program.cycle_length
    arrivals = [0.0, -0.0, float(cycle), cycle + 0.25, -0.5, -float(cycle)]
    arrivals += [math.nextafter(cycle, -math.inf)]
    arrivals += [math.nextafter(cycle, math.inf)]
    arrivals += [math.nextafter(0.0, -math.inf), 3e12 + 0.5]
    for slot in sorted({s for _, s in _slots(program)}):
        arrivals += [
            float(slot),
            math.nextafter(slot, -math.inf),
            math.nextafter(slot, math.inf),
            slot + 0.5,
            float(slot + 3 * cycle),
            slot - 2.0 * cycle,
        ]
    return arrivals


def _slots(program):
    for page_id in program.page_ids():
        for slot in program.appearance_slots(page_id):
            yield page_id, slot


class TestExplicitStreams:
    @given(case=measured_programs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_edge_arrivals_match_the_loop(self, case, data):
        program, instance, _ = case
        on_air = [
            page.page_id
            for page in instance.pages()
            if program.broadcast_count(page.page_id)
        ]
        arrivals = _edge_arrivals(program)
        requests = [
            Request(data.draw(st.sampled_from(on_air)), arrival)
            for arrival in data.draw(st.permutations(arrivals))
        ]
        requests = requests[: data.draw(st.integers(1, len(requests)))]
        fast, oracle = _both_replays(program, instance, requests)
        assert fast[0] == "ok"
        assert fast == oracle

    def test_non_finite_arrivals_match_the_loop(self, fig2_instance):
        """Python's ``%`` turns them into NaN waits and zero delays."""
        program = get_scheduler("pamad")(fig2_instance, 2).program
        requests = [
            Request(page_id, arrival)
            for page_id, arrival in zip(
                (1, 2, 5, 9, 11),
                (0.5, math.inf, math.nan, -math.inf, 3.0),
            )
        ]
        fast, oracle = _both_replays(program, fig2_instance, requests)
        assert fast[0] == "ok" and "nan" in fast[1]
        assert fast == oracle

    @given(case=measured_programs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_offending_request_decides_the_error(self, case, data):
        """An unknown page is an ``InvalidInstanceError``, a page never
        broadcast a ``SimulationError``; whichever comes first in the
        stream is the one raised."""
        program, instance, _ = case
        known = [page.page_id for page in instance.pages()]
        page_ids = data.draw(
            st.lists(
                st.sampled_from(known) | st.integers(21, 40), max_size=12
            )
        )
        requests = [
            Request(page_id, data.draw(st.floats(0.0, 50.0)))
            for page_id in page_ids
        ]
        fast, oracle = _both_replays(program, instance, requests)
        assert fast == oracle


class TestPooledSweep:
    """A Figure-5-shaped sweep reproduces the per-request loop's points."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(
            (FIXTURES / "plan_sweep_points.json").read_text(encoding="utf-8")
        )

    @pytest.mark.parametrize(
        "mode, workers", [("serial", 1), ("thread", 2), ("process", 2)]
    )
    def test_points_equal_the_recorded_ones(self, recorded, mode, workers):
        engine = BroadcastEngine(workers=workers, executor=mode)
        for distribution in DISTRIBUTIONS:
            instance = paper_instance(distribution, PaperParameters(n=120))
            points = default_channel_points(minimum_channels(instance), 3)
            result = engine.sweep(
                instance,
                algorithms=("pamad", "m-pb", "opt"),
                channel_points=points,
                num_requests=3000,
                seed=5,
            )
            got = [
                [
                    point.algorithm,
                    point.channels,
                    point.analytic_delay,
                    point.simulated_delay,
                    point.miss_ratio,
                    point.cycle_length,
                ]
                for point in result.points
            ]
            assert repr(got) == repr(recorded[distribution]), distribution
            assert result.manifest.executor["mode"] == mode
