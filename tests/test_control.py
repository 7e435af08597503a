"""Tests for repro.control: online stepping, dispatch, remediation, CLI.

Covers the live service's online surface (``start`` / ``offer`` /
``finish`` must replay exactly like the event-by-event oracle, and like
the batched ``run`` up to its listener log entries), the synchronous
:class:`ControlPlane` dispatcher, the detector → proposer → verifier
remediation loop action by action, the byte-identical scripted-session
determinism contract, the Theorem-3.1 SLO verdict checked against the
brute-force frequency search, the histogram-edit what-if pricing
against the page-mapping oracles of :mod:`repro.oracles`, and the
``repro-air serve`` CLI.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    Ack,
    ApiError,
    CreateServiceRequest,
    ErrorBudgetQuery,
    ErrorBudgetReport,
    FinishService,
    ListServices,
    MAX_QUERY_PAGES,
    MutationBatch,
    MutationBatchResult,
    RemediationPolicy,
    ServiceCreated,
    ServiceList,
    ServiceManifest,
    Shutdown,
    SloQuery,
    SloVerdict,
    decode_line,
    encode_line,
)
from repro.baselines.opt import brute_force_frequencies
from repro.cli import main
from repro.control import (
    ControlPlane,
    RemediationEngine,
    ServiceSession,
    plan_stats,
    run_scripted_session,
)
from repro.core.errors import SimulationError
from repro.core.pages import instance_from_counts
from repro.engine import BroadcastEngine
from repro.engine.telemetry import MANIFEST_VERSION
from repro.live import LiveBroadcastService, MutationTrace
from repro.live.admission import AdmissionController
from repro.live.catalog import LiveCatalog
from repro.live.mutations import MutationEvent
from repro.oracles import (
    live_sequential,
    propose_reference,
    slo_verdict_reference,
)
from repro.workload.mutations import generate_mutation_trace

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SESSION_SCRIPT = FIXTURES / "control_session.ndjsonl"


def script_messages() -> list[object]:
    return [
        decode_line(line)
        for line in SESSION_SCRIPT.read_text().splitlines()
        if line.strip()
    ]


def make_plane_with_service(**overrides) -> tuple[ControlPlane, object]:
    """A plane hosting the taut-budget remediation scenario service."""
    request = CreateServiceRequest(
        name=overrides.pop("name", "svc"),
        catalog=overrides.pop("catalog", {1: 4, 2: 4, 3: 4}),
        horizon=overrides.pop("horizon", 64),
        budget=overrides.pop("budget", 1),
        slo_window=64,
        target_miss_rate=overrides.pop("target_miss_rate", 0.5),
        remediation=overrides.pop(
            "remediation",
            RemediationPolicy(
                miss_streak=4,
                cooldown=4,
                max_pages_moved=8,
                allow_retune=False,
                allow_shed=False,
                max_extra_channels=1,
            ),
        ),
        **overrides,
    )
    plane = ControlPlane()
    created = plane.handle(request)
    return plane, created


def breach_events(page_id: int = 9, listeners: int = 8) -> list[object]:
    """An over-budget insert followed by listeners that will miss."""
    from repro.live.mutations import MutationEvent

    events = [
        MutationEvent(
            time=2.0, kind="page_insert", page_id=page_id, expected_time=2
        )
    ]
    for i in range(listeners):
        events.append(
            MutationEvent(
                time=3.0 + i, kind="listener", page_id=page_id,
                expected_time=2,
            )
        )
    return events


# ----------------------------------------------------------------------
# Online stepping: start / offer / finish == run
# ----------------------------------------------------------------------


class TestOnlineStepping:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_streamed_replay_matches_batch_run(self, seed):
        instance = instance_from_counts([3, 3], [4, 8])
        trace = generate_mutation_trace(
            instance, seed=seed, horizon=48, mutations=10, listeners=30
        )
        batch_service = LiveBroadcastService(
            instance, trace, engine=BroadcastEngine()
        )
        batch_report = batch_service.run().as_dict()

        streamed_service = LiveBroadcastService(
            instance,
            MutationTrace(horizon=trace.horizon, events=(), meta={}),
            engine=BroadcastEngine(),
        )
        streamed_service.start()
        for event in trace.events:
            streamed_service.offer(event)
        streamed_report = streamed_service.finish().as_dict()

        batch_report.pop("trace_fingerprint")
        streamed_report.pop("trace_fingerprint")
        # Online listeners are judged one at a time, never batched.
        assert batch_report["counters"].pop("batched_listeners") == (
            batch_report["counters"]["listeners"]
        )
        assert streamed_report["counters"].pop("batched_listeners") == 0
        assert streamed_report == batch_report

    @settings(max_examples=25, deadline=None)
    # The mutation at t=9.0 is due when the window opened at t=8.0
    # closes, and must join it.
    @example(
        seed=1, horizon=64, mutations=12, listeners=80, window=1, budget=2
    )
    @given(
        seed=st.integers(0, 10_000),
        horizon=st.integers(16, 96),
        mutations=st.integers(0, 16),
        listeners=st.integers(0, 80),
        window=st.integers(0, 8),
        budget=st.sampled_from((2, 3, 12)),
    )
    def test_online_drive_matches_sequential_oracle(
        self, seed, horizon, mutations, listeners, window, budget
    ):
        """Offering a trace event by event equals the event-by-event
        oracle in full, coalescing windows and taut budgets included: an
        event at a flush's due time runs before that flush in both."""
        instance = instance_from_counts((2, 3, 2), (2, 4, 8))
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        kwargs = dict(budget=budget, coalesce_window=window)
        reference = LiveBroadcastService(instance, trace, **kwargs)
        expected = live_sequential(reference)

        online = LiveBroadcastService(
            instance,
            MutationTrace(horizon=trace.horizon, events=(), meta={}),
            **kwargs,
        )
        online.start()
        for event in trace.events:
            online.offer(event)
        report = online.finish()

        assert report.event_log == expected.event_log
        assert report.decisions == expected.decisions
        assert report.program == expected.program
        got, want = report.as_dict(), expected.as_dict()
        got.pop("trace_fingerprint")
        want.pop("trace_fingerprint")
        assert got == want
        assert online.slo.total_wait == reference.slo.total_wait

    def test_offer_before_start_rejected(self):
        service = LiveBroadcastService(
            {1: 4},
            MutationTrace(horizon=8, events=(), meta={}),
            engine=BroadcastEngine(),
        )
        with pytest.raises(SimulationError, match="not started"):
            service.offer(breach_events()[0])

    def test_double_start_rejected(self):
        service = LiveBroadcastService(
            {1: 4},
            MutationTrace(horizon=8, events=(), meta={}),
            engine=BroadcastEngine(),
        )
        service.start()
        with pytest.raises(SimulationError, match="already started"):
            service.start()

    def test_offer_after_finish_rejected(self):
        service = LiveBroadcastService(
            {1: 4},
            MutationTrace(horizon=8, events=(), meta={}),
            engine=BroadcastEngine(),
        )
        service.start()
        service.finish()
        with pytest.raises(SimulationError, match="finished"):
            service.offer(breach_events()[0])


# ----------------------------------------------------------------------
# Synchronous dispatch
# ----------------------------------------------------------------------


class TestControlPlaneDispatch:
    def test_create_returns_initial_plan(self):
        plane, created = make_plane_with_service()
        assert isinstance(created, ServiceCreated)
        assert created.algorithm == "susc"
        assert created.required_channels == 1
        assert created.budget == 1
        assert plane.services == ("svc",)

    def test_duplicate_create_rejected(self):
        plane, _ = make_plane_with_service()
        duplicate = plane.handle(
            CreateServiceRequest(name="svc", catalog={1: 4})
        )
        assert isinstance(duplicate, ApiError)
        assert duplicate.code == "duplicate-service"

    def test_unknown_service_rejected(self):
        plane = ControlPlane()
        for message in (
            SloQuery(service="ghost", expected_time=4),
            ErrorBudgetQuery(service="ghost"),
            FinishService(service="ghost"),
            MutationBatch(service="ghost", events=()),
        ):
            response = plane.handle(message)
            assert isinstance(response, ApiError)
            assert response.code == "unknown-service"

    def test_batch_past_event_rejected_atomically(self):
        plane, _ = make_plane_with_service()
        plane.handle(
            MutationBatch(service="svc", events=tuple(breach_events()))
        )
        from repro.live.mutations import MutationEvent

        session = plane.session("svc")
        counters_before = dict(session.live.counters)
        stale = MutationEvent(
            time=1.0, kind="listener", page_id=1, expected_time=4
        )
        response = plane.handle(
            MutationBatch(service="svc", events=(stale,))
        )
        assert isinstance(response, ApiError)
        assert response.code == "bad-request"
        assert "in the past" in response.message
        assert dict(session.live.counters) == counters_before

    def test_batch_beyond_horizon_rejected(self):
        plane, _ = make_plane_with_service(horizon=16)
        from repro.live.mutations import MutationEvent

        late = MutationEvent(
            time=99.0, kind="listener", page_id=1, expected_time=4
        )
        response = plane.handle(
            MutationBatch(service="svc", events=(late,))
        )
        assert isinstance(response, ApiError)
        assert "beyond the service horizon" in response.message

    def test_finish_releases_name(self):
        plane, _ = make_plane_with_service()
        manifest = plane.handle(FinishService(service="svc"))
        assert isinstance(manifest, ServiceManifest)
        assert plane.services == ()
        again = plane.handle(FinishService(service="svc"))
        assert isinstance(again, ApiError)

    def test_shutdown_finishes_open_services(self):
        plane, _ = make_plane_with_service()
        session = plane.session("svc")
        ack = plane.handle(Shutdown())
        assert isinstance(ack, Ack)
        assert plane.closing
        assert session.finished
        assert session.manifest is not None

    def test_list_services_sorted(self):
        plane = ControlPlane()
        for name in ("zeta", "alpha"):
            plane.handle(
                CreateServiceRequest(name=name, catalog={1: 4})
            )
        listing = plane.handle(ListServices())
        assert isinstance(listing, ServiceList)
        assert listing.services == ("alpha", "zeta")

    def test_handle_line_maps_decode_errors(self):
        plane = ControlPlane()
        response = decode_line(plane.handle_line("{not json"))
        assert isinstance(response, ApiError)
        assert response.code == "bad-request"


# ----------------------------------------------------------------------
# Remediation loop
# ----------------------------------------------------------------------


class TestRemediation:
    def run_breach(self, plane) -> MutationBatchResult:
        result = plane.handle(
            MutationBatch(service="svc", events=tuple(breach_events()))
        )
        assert isinstance(result, MutationBatchResult)
        return result

    def test_sustained_miss_applies_add_channel(self):
        plane, _ = make_plane_with_service()
        result = self.run_breach(plane)
        assert result.remediations == 1
        session = plane.session("svc")
        [record] = session.remediation.records
        assert record.trigger == "sustained-miss"
        assert record.evidence == {"miss_streak": 4, "threshold": 4}
        assert record.applied == "add_channel"
        assert session.live.budget == 2
        # The grown budget drains the queued insert and stops the misses.
        assert session.live.admission.counters["drained"] == 1
        by_action = {c.action: c for c in record.candidates}
        assert by_action["add_channel"].reason == "restores-slo"
        assert by_action["add_channel"].passed

    def test_retune_relaxes_committed_deadlines(self):
        plane, _ = make_plane_with_service(
            remediation=RemediationPolicy(
                miss_streak=4,
                cooldown=4,
                max_pages_moved=8,
                allow_shed=False,
                allow_add_channel=False,
            ),
        )
        self.run_breach(plane)
        session = plane.session("svc")
        [record] = session.remediation.records
        assert record.applied == "retune"
        assert record.applied_detail == {
            "expected_time": 4, "new_expected_time": 8, "pages": 3,
        }
        # Relaxing the committed t=4 pages to t=8 frees enough load
        # for the queued t=2 insert to drain — the misses stop, so no
        # second record fires.
        pages = session.live.catalog.pages()
        assert pages == {1: 8, 2: 8, 3: 8, 9: 2}
        assert session.live.catalog.required_channels() == 1

    def test_shed_drops_pages_to_admit_queued_load(self):
        plane, _ = make_plane_with_service(
            remediation=RemediationPolicy(
                miss_streak=4,
                cooldown=4,
                max_pages_moved=8,
                allow_retune=False,
                allow_add_channel=False,
            ),
        )
        self.run_breach(plane)
        session = plane.session("svc")
        [record] = session.remediation.records
        assert record.applied == "shed"
        # Highest page id of the suspect class goes first, and one
        # removal frees enough load for the queued insert.
        assert record.applied_detail["pages"] == [3]
        assert session.live.catalog.pages() == {1: 4, 2: 4, 9: 2}
        assert session.live.catalog.required_channels() == 1

    def test_move_budget_blocks_every_action(self):
        plane, _ = make_plane_with_service(
            remediation=RemediationPolicy(
                miss_streak=4,
                cooldown=4,
                max_pages_moved=0,
            ),
        )
        self.run_breach(plane)
        session = plane.session("svc")
        records = session.remediation.records
        # Nothing ever applies, so the misses persist and the detector
        # re-fires once the cooldown lapses: t=6.0 and t=10.0.
        assert [r.time for r in records] == [6.0, 10.0]
        for record in records:
            assert record.applied is None
            assert {c.reason for c in record.candidates} == {
                "exceeds-move-budget"
            }
        assert session.live.budget == 1

    def test_channel_cap_respected(self):
        plane, _ = make_plane_with_service(
            remediation=RemediationPolicy(
                miss_streak=4,
                cooldown=4,
                max_pages_moved=8,
                allow_retune=False,
                allow_shed=False,
                max_extra_channels=0,
            ),
        )
        self.run_breach(plane)
        session = plane.session("svc")
        record = session.remediation.records[0]
        by_action = {c.action: c for c in record.candidates}
        assert by_action["add_channel"].reason == "channel-cap"
        assert not by_action["add_channel"].passed
        # The only passing fallback is a plain re-plan of the committed
        # catalog (trivially zero-delay); the budget never grows.
        assert record.applied == "full_replan"
        assert session.live.budget == 1

    def test_cooldown_spaces_attempts(self):
        plane, _ = make_plane_with_service(
            remediation=RemediationPolicy(
                miss_streak=2,
                cooldown=1000,
                max_pages_moved=0,  # nothing ever applies
            ),
        )
        self.run_breach(plane)
        session = plane.session("svc")
        # Streak re-arms after the first record, but the cooldown gate
        # holds every later attempt back.
        assert len(session.remediation.records) == 1

    def test_disabled_policy_never_remediates(self):
        plane, _ = make_plane_with_service(
            remediation=RemediationPolicy(enabled=False, miss_streak=2),
        )
        result = self.run_breach(plane)
        assert result.remediations == 0
        assert plane.session("svc").remediation.records == []

    def test_replan_churn_trigger(self):
        plane, _ = make_plane_with_service(
            catalog={1: 8, 2: 8, 3: 8, 4: 8, 5: 8, 6: 4},
            remediation=RemediationPolicy(
                miss_streak=1000,
                churn_window=32,
                churn_threshold=3,
                cooldown=1000,  # one record, then the gate holds
                max_pages_moved=0,  # observe, never apply
            ),
        )
        from repro.live.mutations import MutationEvent

        # Toggling deadlines on a packed single channel leaves no
        # periodic column free for the tightened page, so each tighten
        # forces a full re-plan — the churn signature.
        toggles = ((1, 4), (1, 8), (2, 4), (2, 8), (3, 4))
        events = tuple(
            MutationEvent(
                time=4.0 * (i + 1),
                kind="page_retune",
                page_id=page,
                expected_time=expected,
            )
            for i, (page, expected) in enumerate(toggles)
        )
        plane.handle(MutationBatch(service="svc", events=events))
        session = plane.session("svc")
        [record] = session.remediation.records
        assert record.trigger == "replan-churn"
        assert record.evidence["threshold"] == 3
        assert record.evidence["replans_in_window"] >= 3
        assert record.applied is None

    def test_remediation_trail_lands_in_manifest(self):
        plane, _ = make_plane_with_service()
        self.run_breach(plane)
        manifest = plane.handle(FinishService(service="svc"))
        control = manifest.manifest["control"]
        assert control["applied"] == 1
        assert control["extra_channels"] == 1
        assert control["triggers"] == {"sustained-miss": 1}
        [record] = control["records"]
        assert record["applied"] == "add_channel"
        assert manifest.manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest.manifest["operation"] == "control"


# ----------------------------------------------------------------------
# SLO verdicts vs the brute-force search
# ----------------------------------------------------------------------


class TestSloVerdicts:
    @pytest.mark.parametrize("budget", (1, 2, 3))
    @pytest.mark.parametrize(
        "catalog",
        (
            {1: 2, 2: 2, 3: 2},
            {1: 2, 2: 4, 3: 4, 4: 8},
            {1: 3, 2: 3, 3: 6, 4: 6, 5: 6},
        ),
        ids=("taut-uniform", "ladder", "mixed"),
    )
    def test_verdict_matches_brute_force(self, catalog, budget):
        """Unachievable ⟺ even exhaustive search has positive delay."""
        plane = ControlPlane()
        plane.handle(
            CreateServiceRequest(
                name="svc", catalog=catalog, budget=budget
            )
        )
        verdict = plane.handle(
            SloQuery(service="svc", expected_time=4, pages=0)
        )
        assert isinstance(verdict, SloVerdict)

        sizes: dict[int, int] = {}
        for t in catalog.values():
            sizes[t] = sizes.get(t, 0) + 1
        instance = instance_from_counts(
            [sizes[t] for t in sorted(sizes)], sorted(sizes)
        )
        best = brute_force_frequencies(instance, budget, cap=8)
        if verdict.achievable:
            assert best.predicted_delay == 0.0
            assert verdict.predicted_delay == 0.0
            assert verdict.reason == "fits-budget"
            assert verdict.headroom >= 0
        else:
            assert best.predicted_delay > 0.0
            assert verdict.predicted_delay > 0.0
            assert verdict.reason == "exceeds-budget"
            assert verdict.headroom < 0

    def test_queued_inserts_count_as_committed_load(self):
        plane, _ = make_plane_with_service()
        plane.handle(
            MutationBatch(
                service="svc", events=tuple(breach_events(listeners=1))
            )
        )
        session = plane.session("svc")
        assert len(session.live.admission.queued) == 1
        verdict = plane.handle(
            SloQuery(service="svc", expected_time=2, pages=0)
        )
        assert verdict.queued_pages == 1
        # Committed catalog alone fits; the queued t=2 insert tips it.
        assert verdict.required_channels == 2

    def test_hypothetical_pages_priced_without_mutation(self):
        plane, _ = make_plane_with_service(budget=2)
        before = dict(plane.session("svc").live.catalog.pages())
        verdict = plane.handle(
            SloQuery(service="svc", expected_time=1, pages=4)
        )
        assert not verdict.achievable
        assert plane.session("svc").live.catalog.pages() == before

    def test_query_pages_capped_on_the_wire(self):
        """A page count past ``MAX_QUERY_PAGES`` is a ``bad-request``,
        as a negative one is, and never reaches the pricing loop."""
        plane, _ = make_plane_with_service(budget=2)
        line = encode_line(
            SloQuery(service="svc", expected_time=4, pages=MAX_QUERY_PAGES)
        )
        verdict = decode_line(plane.handle_line(line))
        assert isinstance(verdict, SloVerdict)
        assert not verdict.achievable
        message = json.loads(line)
        for pages in (MAX_QUERY_PAGES + 1, -1):
            message["body"]["pages"] = pages
            response = decode_line(plane.handle_line(json.dumps(message)))
            assert isinstance(response, ApiError)
            assert response.code == "bad-request"
            assert "pages must be in" in response.message

    def test_error_budget_report(self):
        plane, _ = make_plane_with_service()
        plane.handle(
            MutationBatch(service="svc", events=tuple(breach_events()))
        )
        report = plane.handle(ErrorBudgetQuery(service="svc"))
        assert isinstance(report, ErrorBudgetReport)
        assert report.listeners == 8
        assert report.misses == 4
        stats = report.per_class["2"]
        # miss rate 0.5 against target 0.5: the budget is exactly spent.
        assert stats["budget_remaining"] == 0.0

    def test_plan_stats_consistency(self):
        # plan_stats reads a deadline histogram: pages 1..3 at t=2,4,4.
        histogram = {2: 1, 4: 2}
        required, delay, cycle = plan_stats(histogram, 2)
        assert required == 1
        assert delay == 0.0
        assert cycle >= 1
        required_short, delay_short, _ = plan_stats({2: 3}, 1)
        assert required_short == 2
        assert delay_short > 0.0


# ----------------------------------------------------------------------
# The admission queue only ever holds new pages
# ----------------------------------------------------------------------


def assert_queue_holds_new_pages(controller) -> None:
    """No queued id is on a ledger, and none is queued twice."""
    ids = [event.page_id for event in controller.queued]
    assert len(ids) == len(set(ids)), ids
    assert [page for page in ids if controller.locate(page) is not None] == []


def step_event(time: float, op: str, page: int, expected: int):
    """The mutation event of one drawn step (``listener`` for the ops
    that are not catalog mutations)."""
    kind = {
        "insert": "page_insert",
        "remove": "page_remove",
        "retune": "page_retune",
    }.get(op, "listener")
    return MutationEvent(
        time=time, kind=kind, page_id=page,
        expected_time=None if kind == "page_remove" else expected,
    )


ADMISSION_STEPS = st.tuples(
    st.sampled_from(
        ("insert", "insert", "remove", "retune", "drain", "grow", "move")
    ),
    st.integers(1, 9),
    st.sampled_from((2, 4, 8, 16)),
    st.integers(0, 2),
)


class TestQueueReachability:
    """``decide_insert`` refuses a page already on a ledger or already
    queued, drains take an entry off the queue before placing it, and
    nothing else adds to the queue — so every queued entry is a new
    page, and the SLO and grown-budget pricing count each one."""

    @given(
        shards=st.integers(1, 3),
        steps=st.lists(ADMISSION_STEPS, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_controller_walk_queues_only_new_pages(self, shards, steps):
        """Inserts, removals, retunes and drains, a growing budget (the
        add-channel action) and rebalancer moves between ledgers."""
        ledgers = {
            shard: LiveCatalog({shard + 1: 2, shard + 11: 4})
            for shard in range(shards)
        }
        controller = AdmissionController(ledgers, 1, queue_limit=4)
        for time, (op, page, expected, shard) in enumerate(steps):
            event = step_event(float(time), op, page, expected)
            owner = controller.locate(page)
            if op == "insert":
                controller.decide_insert(event, shard % shards)
            elif op == "remove":
                controller.decide_remove(event)
            elif op == "retune":
                controller.decide_retune(event)
            elif op == "drain":
                list(controller.drain(float(time)))
            elif op == "grow":
                controller.budget += 1
            elif owner is not None and len(ledgers[owner]) > 1:
                target = (owner + 1 + shard) % shards
                if target != owner:
                    moved = ledgers[owner].expected_time(page)
                    ledgers[owner].remove(page)
                    ledgers[target].insert(page, moved)
            assert_queue_holds_new_pages(controller)

    @given(
        batches=st.lists(
            st.lists(ADMISSION_STEPS, min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        ),
        policy=st.builds(
            RemediationPolicy,
            miss_streak=st.integers(1, 4),
            cooldown=st.integers(0, 4),
            max_pages_moved=st.integers(0, 8),
            allow_retune=st.booleans(),
            allow_shed=st.booleans(),
            allow_add_channel=st.booleans(),
            max_extra_channels=st.integers(0, 2),
        ),
        picks=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_session_with_remediation_queues_only_new_pages(
        self, batches, policy, picks
    ):
        """Mutation batches with missing listeners through a hosted
        service (its own remediation loop may fire), and after each
        batch one proposed remediation action applied outright."""
        plane, _ = make_plane_with_service(remediation=policy)
        session = plane.session("svc")
        engine = session.remediation
        clock = 0.0
        for batch, pick in zip(batches, picks):
            events = []
            for op, page, expected, _ in batch:
                clock += 1.0
                events.append(step_event(clock, op, page, expected))
            plane.handle(MutationBatch(service="svc", events=tuple(events)))
            assert_queue_holds_new_pages(session.live.admission)
            candidates, retune_pages, retune_to, shed_pages = (
                engine._propose()
            )
            applicable = [
                candidate
                for candidate in candidates
                if (candidate.action != "retune" or retune_to is not None)
                and (candidate.action != "shed" or shed_pages)
            ]
            if applicable:
                engine._apply(
                    applicable[pick % len(applicable)],
                    retune_pages, retune_to, shed_pages,
                )
            assert_queue_holds_new_pages(session.live.admission)


# ----------------------------------------------------------------------
# What-if pricing: deadline-histogram edits vs the page-mapping oracle
# ----------------------------------------------------------------------


@st.composite
def whatif_states(draw):
    """A hosted catalog plus an admission queue and an SLO question.

    Ladder catalogs in shuffled page order (``1/3`` and ``1/6`` are not
    exact binary fractions, so the load's summation order shows), a
    budget below, at or above the Theorem-3.1 floor, a queue of new
    pages (the only queues admission can build, see
    :class:`TestQueueReachability`), and 0..5 queried pages.
    """
    base = draw(st.sampled_from((2, 3)))
    ladder = [base * 2 ** k for k in range(draw(st.integers(1, 4)))]
    sizes = draw(
        st.lists(
            st.integers(0, 6), min_size=len(ladder), max_size=len(ladder)
        ).filter(any)
    )
    times = [t for t, n in zip(ladder, sizes) for _ in range(n)]
    order = draw(st.permutations(range(1, len(times) + 1)))
    catalog = {page: times[page - 1] for page in order}
    floor = LiveCatalog(catalog).required_channels()
    budget = max(1, floor + draw(st.integers(-2, 1)))
    deadlines = ladder + [2 * ladder[-1]]
    new_ids = [len(times) + k for k in range(1, 7)]
    queue = draw(
        st.lists(
            st.tuples(st.sampled_from(new_ids), st.sampled_from(deadlines)),
            max_size=6,
            unique_by=lambda entry: entry[0],
        )
    )
    query = (draw(st.sampled_from(deadlines)), draw(st.integers(0, 5)))
    return catalog, budget, queue, query


def host_whatif_state(catalog, budget, queue, policy=None):
    """A session hosting ``catalog`` with ``queue`` in its admission
    queue (the queue's contents, not how they arrived, are what the
    pricing reads).

    The entries — new, distinct pages, as admission queues them — are
    written into the controller's queue directly, whether or not they
    would fit the budget.
    """
    plane = ControlPlane()
    plane.handle(
        CreateServiceRequest(
            name="svc",
            catalog=catalog,
            budget=budget,
            remediation=policy or RemediationPolicy(),
        )
    )
    session = plane.session("svc")
    session.live.admission._queue.extend(
        (
            MutationEvent(
                time=0.0, kind="page_insert", page_id=page, expected_time=t
            ),
            0,
        )
        for page, t in queue
    )
    return session


def assert_verdicts_equal(got: SloVerdict, want: SloVerdict) -> None:
    for field in dataclasses.fields(SloVerdict):
        assert getattr(got, field.name) == getattr(want, field.name), (
            field.name
        )
    assert repr(got.channel_load) == repr(want.channel_load)


class TestWhatIfOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        state=whatif_states(),
        moves=st.integers(0, 40),
        extra_channels=st.integers(0, 1),
    )
    def test_histogram_pricing_matches_mapping_oracle(
        self, state, moves, extra_channels
    ):
        catalog, budget, queue, (expected_time, pages) = state
        policy = RemediationPolicy(
            max_pages_moved=moves, max_extra_channels=extra_channels
        )
        session = host_whatif_state(catalog, budget, queue, policy)
        query = SloQuery(
            service="svc", expected_time=expected_time, pages=pages
        )
        assert_verdicts_equal(
            session.slo_query(query), slo_verdict_reference(session, query)
        )
        engine = session.remediation
        assert engine._propose() == propose_reference(engine)

    def test_verdicts_cover_both_regimes(self):
        """Fixed states on both sides of the floor: a fitting verdict
        prices zero delay, a refused one a positive PAMAD delay."""
        catalog = {5: 3, 1: 6, 4: 3, 2: 12, 3: 6, 6: 12}
        queue = [(7, 3), (8, 12)]
        delays = []
        for budget in (1, 2, 3):
            session = host_whatif_state(catalog, budget, queue)
            for pages in (0, 1, 4):
                query = SloQuery(service="svc", expected_time=3, pages=pages)
                verdict = session.slo_query(query)
                assert_verdicts_equal(
                    verdict, slo_verdict_reference(session, query)
                )
                assert verdict.queued_pages == 2
                assert (verdict.predicted_delay > 0) == (
                    not verdict.achievable
                )
                delays.append(verdict.predicted_delay)
        assert min(delays) == 0.0 and max(delays) > 0.0

    @pytest.mark.parametrize(
        "policy",
        (
            RemediationPolicy(
                miss_streak=4, cooldown=4, max_pages_moved=8,
                allow_retune=False, allow_shed=False, max_extra_channels=1,
            ),
            RemediationPolicy(
                miss_streak=4, cooldown=4, max_pages_moved=8,
                allow_shed=False, allow_add_channel=False,
            ),
            RemediationPolicy(
                miss_streak=4, cooldown=4, max_pages_moved=8,
                allow_retune=False, allow_add_channel=False,
            ),
            RemediationPolicy(miss_streak=4, cooldown=4, max_pages_moved=8),
            RemediationPolicy(miss_streak=4, cooldown=4, max_pages_moved=0),
            RemediationPolicy(
                miss_streak=2, cooldown=2, max_pages_moved=8,
                max_extra_channels=0,
            ),
        ),
        ids=("add-channel", "retune", "shed", "all", "no-moves", "no-cap"),
    )
    def test_taut_scenario_records_match_mapping_oracle(
        self, policy, monkeypatch
    ):
        """Every proposal of the taut-budget scenario equals the oracle's
        on the same state, so the records and manifests are the ones the
        page-mapping pricing writes."""
        fast_propose = RemediationEngine._propose
        proposals = []

        def checked(engine):
            proposal = fast_propose(engine)
            assert proposal == propose_reference(engine)
            proposals.append(proposal)
            return proposal

        manifests = []
        for propose in (checked, propose_reference):
            monkeypatch.setattr(RemediationEngine, "_propose", propose)
            plane, _ = make_plane_with_service(remediation=policy)
            plane.handle(
                MutationBatch(service="svc", events=tuple(breach_events()))
            )
            manifest = plane.handle(FinishService(service="svc"))
            manifests.append(encode_line(manifest))
        assert proposals
        assert manifests[0] == manifests[1]


# ----------------------------------------------------------------------
# Determinism over a real socket
# ----------------------------------------------------------------------


class TestScriptedDeterminism:
    def test_replayed_session_is_byte_identical(self, tmp_path):
        messages = script_messages()
        outputs = []
        for run in ("a", "b"):
            responses = run_scripted_session(
                messages, tmp_path / f"{run}.sock"
            )
            outputs.append(
                json.dumps(
                    [
                        type(r).__name__
                        if not hasattr(r, "to_dict")
                        else [type(r).__name__, r.to_dict()]
                        for r in responses
                    ],
                    sort_keys=True,
                )
            )
        assert outputs[0] == outputs[1]

    def test_scripted_session_core_responses(self, tmp_path):
        responses = run_scripted_session(
            script_messages(), tmp_path / "c.sock"
        )
        created, listing, batch, fits, exceeds, budget_report, manifest, ack = (
            responses
        )
        assert isinstance(created, ServiceCreated)
        assert isinstance(listing, ServiceList)
        assert isinstance(batch, MutationBatchResult)
        assert batch.remediations == 1
        assert isinstance(fits, SloVerdict) and fits.achievable
        assert isinstance(exceeds, SloVerdict) and not exceeds.achievable
        assert isinstance(budget_report, ErrorBudgetReport)
        assert isinstance(manifest, ServiceManifest)
        assert manifest.manifest["control"]["stream"]["events"] == 9
        assert isinstance(ack, Ack)

    def test_implicit_shutdown_appended(self, tmp_path):
        request = CreateServiceRequest(name="svc", catalog={1: 4})
        responses = run_scripted_session(
            [request, FinishService(service="svc")], tmp_path / "d.sock"
        )
        # Two responses for two messages; the implicit Shutdown's Ack
        # is consumed internally.
        assert len(responses) == 2
        assert isinstance(responses[1], ServiceManifest)


# ----------------------------------------------------------------------
# CLI: repro-air serve
# ----------------------------------------------------------------------


class TestServeCli:
    def test_scripted_mode_is_deterministic(self, tmp_path, capsys):
        paths = []
        for run in ("one", "two"):
            manifest = tmp_path / f"{run}.json"
            out = tmp_path / f"{run}.ndjsonl"
            code = main(
                [
                    "serve",
                    "--session", str(SESSION_SCRIPT),
                    "--manifest", str(manifest),
                    "--out", str(out),
                ]
            )
            assert code == 0
            paths.append((manifest, out))
        (m1, o1), (m2, o2) = paths
        assert m1.read_bytes() == m2.read_bytes()
        assert o1.read_bytes() == o2.read_bytes()
        payload = json.loads(m1.read_text())
        assert payload["manifest_version"] == MANIFEST_VERSION
        assert payload["operation"] == "control"
        assert len(payload["control"]["records"]) == 1

    def test_scripted_mode_prints_responses(self, tmp_path, capsys):
        code = main(["serve", "--session", str(SESSION_SCRIPT)])
        assert code == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        types = [json.loads(line)["type"] for line in lines]
        assert types[0] == "ServiceCreated"
        assert "SloVerdict" in types
        assert types[-1] == "Ack"

    def test_manifest_without_finish_rejected(self, tmp_path, capsys):
        script = tmp_path / "nofinish.ndjsonl"
        from repro.api import encode_line

        script.write_text(
            encode_line(CreateServiceRequest(name="svc", catalog={1: 4}))
        )
        code = main(
            [
                "serve",
                "--session", str(script),
                "--manifest", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        assert "FinishService" in capsys.readouterr().err

    def test_serve_needs_a_transport(self, capsys):
        assert main(["serve"]) == 2
        assert "transport" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Transport hardening: frame limits, timeouts, drain, typed disconnects
# ----------------------------------------------------------------------


class TestServerHardening:
    def serve(self, tmp_path, coro_factory, **server_kwargs):
        """Run ``coro_factory(socket_path)`` against a live server."""
        import asyncio

        from repro.control import ControlPlaneServer

        async def _run():
            server = ControlPlaneServer(**server_kwargs)
            sock = tmp_path / "hardening.sock"
            bound = await server.start_unix(sock)
            async with bound:
                return await coro_factory(sock, server)

        return asyncio.run(_run())

    def test_non_utf8_frame_answered_with_bad_request(self, tmp_path):
        import asyncio

        async def scenario(sock, server):
            reader, writer = await asyncio.open_unix_connection(str(sock))
            writer.write(b"\xff\xfe not a utf-8 frame\n")
            await writer.drain()
            error = decode_line((await reader.readline()).decode())
            # The connection survives: a later valid frame still works.
            writer.write(
                encode_line(ListServices()).encode("utf-8")
            )
            await writer.drain()
            listing = decode_line((await reader.readline()).decode())
            writer.close()
            await writer.wait_closed()
            return error, listing

        from repro.api import encode_line

        error, listing = self.serve(tmp_path, scenario)
        assert isinstance(error, ApiError)
        assert error.code == "bad-request"
        assert "UTF-8" in error.message
        assert isinstance(listing, ServiceList)

    def test_oversized_frame_answered_then_closed(self, tmp_path):
        import asyncio

        async def scenario(sock, server):
            reader, writer = await asyncio.open_unix_connection(str(sock))
            writer.write(b"{" + b"x" * 4096 + b"}\n")
            await writer.drain()
            error = decode_line((await reader.readline()).decode())
            trailing = await reader.read()  # server closes after reply
            writer.close()
            await writer.wait_closed()
            return error, trailing

        error, trailing = self.serve(
            tmp_path, scenario, max_frame_bytes=1024
        )
        assert isinstance(error, ApiError)
        assert error.code == "bad-request"
        assert "1024-byte limit" in error.message
        assert trailing == b""

    def test_max_frame_bytes_floor_enforced(self):
        from repro.control import ControlPlaneServer
        from repro.core.errors import ReproError

        with pytest.raises(ReproError, match="max_frame_bytes"):
            ControlPlaneServer(max_frame_bytes=16)

    def test_read_timeout_drops_idle_connection(self, tmp_path):
        import asyncio

        async def scenario(sock, server):
            reader, writer = await asyncio.open_unix_connection(str(sock))
            # Send nothing: the server should hang up on its own.
            data = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            await writer.wait_closed()
            return data

        assert self.serve(tmp_path, scenario, read_timeout=0.05) == b""

    def test_shutdown_drains_idle_connections(self, tmp_path):
        import asyncio

        from repro.control import ControlPlaneClient

        async def scenario(sock, server):
            idle_reader, idle_writer = await asyncio.open_unix_connection(
                str(sock)
            )
            active = await ControlPlaneClient.connect_unix(sock)
            ack = await active.request(Shutdown())
            # The idle connection is torn down by the drain, not left
            # hanging until its next request.
            leftovers = await asyncio.wait_for(
                idle_reader.read(), timeout=5.0
            )
            await active.close()
            idle_writer.close()
            await idle_writer.wait_closed()
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            return ack, leftovers

        ack, leftovers = self.serve(tmp_path, scenario)
        assert isinstance(ack, Ack)
        assert leftovers == b""

    def test_wait_closed_is_public_api(self, tmp_path):
        import asyncio

        from repro.control import ControlPlaneClient

        async def scenario(sock, server):
            waiter = asyncio.ensure_future(server.wait_closed())
            await asyncio.sleep(0)
            assert not waiter.done()  # still serving
            client = await ControlPlaneClient.connect_unix(sock)
            await client.request(Shutdown())
            await client.close()
            await asyncio.wait_for(waiter, timeout=5.0)
            return True

        assert self.serve(tmp_path, scenario)

    def test_mid_request_disconnect_raises_typed_error(self, tmp_path):
        import asyncio

        from repro.control import ChaosPolicy, ControlPlaneClient
        from repro.core.errors import ControlPlaneDisconnected

        async def scenario(sock, server):
            client = await ControlPlaneClient.connect_unix(sock)
            try:
                with pytest.raises(ControlPlaneDisconnected) as excinfo:
                    await client.request(ListServices())
            finally:
                await client.close()
            return excinfo.value

        error = self.serve(
            tmp_path,
            scenario,
            chaos=ChaosPolicy(seed=1, drop_before=1.0, window=(0, None)),
        )
        assert isinstance(error, ConnectionError)

    def test_partial_response_raises_typed_error(self, tmp_path):
        import asyncio

        from repro.control import ChaosPolicy, ControlPlaneClient
        from repro.core.errors import ControlPlaneDisconnected

        async def scenario(sock, server):
            client = await ControlPlaneClient.connect_unix(sock)
            try:
                with pytest.raises(
                    ControlPlaneDisconnected, match="mid-request"
                ):
                    await client.request(ListServices())
            finally:
                await client.close()
            return True

        assert self.serve(
            tmp_path,
            scenario,
            chaos=ChaosPolicy(
                seed=1, drop_partial=1.0, window=(0, None)
            ),
        )
