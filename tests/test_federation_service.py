"""The federated broadcast service: routing, admission, rebalancing.

What the federation layer promises on top of one live station:

* **Deterministic replay** — same catalog + trace + seed produce an
  identical :class:`~repro.federation.service.FederationReport`, and
  the process-pool fan-out is bit-identical to the serial reference.
* **Global Theorem-3.1 admission** — an insert that overflows its home
  shard spills to a shard with headroom, queues globally when none
  has room, and is rejected once the global queue is full; the applied
  catalogs never exceed the per-shard budget.
* **Bounded drift rebalancing** — a shard running hot sheds at most
  ``max_pages_moved`` pages per trigger, to the least-loaded shard,
  and every move is recorded for deterministic replay.
* **Whole-stack conservation** — every routed listener is served by
  exactly one shard; nothing is dropped or double-counted.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ReproError, SimulationError
from repro.core.pages import instance_from_counts
from repro.federation import FederatedBroadcastService
from repro.live.catalog import LiveCatalog
from repro.live.mutations import MutationEvent, MutationTrace
from repro.live.service import LiveBroadcastService
from repro.workload.mutations import generate_mutation_trace
from repro.engine.telemetry import MANIFEST_VERSION


def _instance():
    # Four power-of-two groups: enough to spread over 2-4 shards.
    return instance_from_counts((4, 4, 4, 4), (4, 8, 16, 32))


def _trace(listeners=120, mutations=24, horizon=96, seed=2):
    return generate_mutation_trace(
        _instance(),
        seed=seed,
        horizon=horizon,
        mutations=mutations,
        listeners=listeners,
    )


def _run(**kwargs):
    defaults = dict(shards=2, seed=0)
    defaults.update(kwargs)
    return FederatedBroadcastService(
        _instance(), _trace(), **defaults
    ).run()


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        first = json.dumps(_run().as_dict(), sort_keys=True)
        second = json.dumps(_run().as_dict(), sort_keys=True)
        assert first == second

    def test_pool_fanout_matches_serial(self):
        serial = FederatedBroadcastService(
            _instance(), _trace(), shards=2, seed=0
        ).run(workers=1, mode="serial")
        pooled = FederatedBroadcastService(
            _instance(), _trace(), shards=2, seed=0
        ).run(workers=2, mode="process")
        a = serial.as_dict()
        b = pooled.as_dict()
        # The executor block and fan-out transport legitimately differ
        # (mode, workers, inline vs shm); everything else is identical.
        for block in (a, b):
            block.pop("executor", None)
            block.pop("transport", None)
        assert serial.transport == "inline"
        assert pooled.transport in ("shm", "pickle")
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_seed_changes_placement_not_conservation(self):
        a = _run(seed=0)
        b = _run(seed=1)
        assert a.ring_fingerprint != b.ring_fingerprint
        assert a.listeners == b.listeners

    def test_run_is_once_only(self):
        service = FederatedBroadcastService(
            _instance(), _trace(), shards=2
        )
        service.run()
        with pytest.raises(SimulationError, match="already ran"):
            service.run()


class TestConservation:
    def test_every_listener_served_exactly_once(self):
        trace = _trace()
        report = FederatedBroadcastService(
            _instance(), trace, shards=4, seed=0
        ).run()
        assert report.listeners == len(trace.listeners())
        assert report.routing["listeners_routed"] == len(
            trace.listeners()
        )
        per_shard = sum(
            r["slo"]["listeners"] for r in report.shard_reports
        )
        assert per_shard == report.listeners

    def test_every_shard_hosts_pages_at_t0(self):
        report = FederatedBroadcastService(
            _instance(), _trace(), shards=4, seed=0
        ).run()
        assert len(report.shard_reports) == 4
        assert all(
            r["final_pages"] >= 1 for r in report.shard_reports
        )

    def test_group_assignment_covers_every_group(self):
        service = FederatedBroadcastService(
            _instance(), _trace(), shards=3, seed=0
        )
        assert sorted(service.group_assignment) == [4, 8, 16, 32]
        assert set(service.group_assignment.values()) <= set(
            service.ring.shards
        )


class TestGlobalAdmission:
    def _storm(self, inserts, expected_time=4, start=2.0):
        # Back-to-back inserts into one group, overflowing its shard.
        events = [
            MutationEvent(
                time=start + i,
                kind="page_insert",
                page_id=1_000 + i,
                expected_time=expected_time,
            )
            for i in range(inserts)
        ]
        return MutationTrace(horizon=64, events=tuple(events))

    def test_insert_storm_spills_then_queues_then_rejects(self):
        report = FederatedBroadcastService(
            {1: 4, 2: 4, 3: 8, 4: 8},
            self._storm(24),
            shards=2,
            budget=2,
            queue_limit=2,
        ).run()
        admission = report.admission
        assert admission["spilled"] > 0
        assert admission["rejected"] > 0
        assert (
            admission["admitted"]
            + admission["queued"]
            + admission["rejected"]
            == 24
        )
        verdicts = {d.verdict for d in report.decisions}
        assert "rejected" in verdicts

    def test_remove_frees_headroom_for_queued_insert(self):
        # Both shards start exactly taut at budget=1 (2 pages of t=2 on
        # one, 4 pages of t=4 on the other), so the t=2 insert can
        # neither fit at home nor spill — it must queue globally, then
        # drain once the remove frees headroom.
        events = (
            MutationEvent(
                time=2.0, kind="page_insert", page_id=100,
                expected_time=2,
            ),
            MutationEvent(time=8.0, kind="page_remove", page_id=1),
        )
        report = FederatedBroadcastService(
            {1: 2, 2: 2, 10: 4, 11: 4, 12: 4, 13: 4},
            MutationTrace(horizon=32, events=events),
            shards=2,
            budget=1,
            queue_limit=4,
        ).run()
        assert report.admission["queued"] == 1
        assert report.admission["drained"] == 1

    def test_insert_of_queued_page_rejected_and_drained_once(self):
        # Both shards taut at budget=1: the first insert of page 100
        # queues, the second names a page already waiting and is
        # rejected, and the removal drains the one queued copy.
        events = (
            MutationEvent(
                time=2.0, kind="page_insert", page_id=100,
                expected_time=2,
            ),
            MutationEvent(
                time=3.0, kind="page_insert", page_id=100,
                expected_time=2,
            ),
            MutationEvent(time=8.0, kind="page_remove", page_id=1),
        )
        report = FederatedBroadcastService(
            {1: 2, 2: 2, 10: 4, 11: 4, 12: 4, 13: 4},
            MutationTrace(horizon=32, events=events),
            shards=2,
            budget=1,
            queue_limit=4,
        ).run()
        verdicts = [
            (d.kind, d.verdict, d.reason) for d in report.decisions
            if d.page_id == 100
        ]
        assert verdicts == [
            ("page_insert", "queued", "exceeds-budget"),
            ("page_insert", "rejected", "duplicate-page"),
            ("queue_drain", "admitted", "fits-budget"),
        ]
        assert report.admission["drained"] == 1

    def test_admission_off_applies_everything(self):
        report = FederatedBroadcastService(
            {1: 4, 2: 4, 3: 8, 4: 8},
            self._storm(6),
            shards=2,
            budget=2,
            admission=False,
        ).run()
        assert report.admission["enabled"] is False
        assert report.admission["rejected"] == 0

    def test_budget_never_exceeded_when_admission_on(self):
        report = _run(shards=2, budget=3)
        for shard_report in report.shard_reports:
            assert shard_report["final_required"] <= 3
        assert report.final_valid


@st.composite
def one_shard_runs(draw):
    """A ladder catalog, a churn trace and admission settings.

    The trace's horizon is one slot longer than the generator's, so no
    catalog event sits in the last slot: the router defers a drain it
    cannot stamp inside the horizon, where a live service drains at
    once.
    """
    base = draw(st.sampled_from((2, 3)))
    ladder = [base * 2 ** k for k in range(draw(st.integers(1, 4)))]
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=len(ladder), max_size=len(ladder))
    )
    instance = instance_from_counts(tuple(sizes), tuple(ladder))
    horizon = draw(st.integers(8, 48))
    trace = generate_mutation_trace(
        instance,
        seed=draw(st.integers(0, 10_000)),
        horizon=horizon,
        mutations=draw(st.integers(0, 40)),
        listeners=draw(st.integers(0, 8)),
    )
    trace = MutationTrace(
        horizon=horizon + 1, events=trace.events, meta=trace.meta
    )
    floor = LiveCatalog(instance).required_channels()
    settings_ = {
        "budget": max(1, floor + draw(st.integers(-1, 1))),
        "queue_limit": draw(st.integers(0, 4)),
        "admission": draw(st.booleans()),
    }
    return instance, trace, settings_


class TestOneShardMatchesLive:
    @settings(max_examples=40, deadline=None)
    @given(run=one_shard_runs())
    def test_router_decisions_equal_live_decisions(self, run):
        """A one-shard federation's router decides every catalog event
        as a live service does, field for field; only a drain's time
        differs, because the router stamps the next integer slot."""
        instance, trace, kwargs = run
        routed = FederatedBroadcastService(
            instance, trace, shards=1, **kwargs
        ).route()
        live = LiveBroadcastService(instance, trace, **kwargs).run()
        assert len(routed.decisions) == len(live.decisions)
        for fed, one in zip(routed.decisions, live.decisions):
            if one.kind == "queue_drain":
                assert fed.time == math.floor(one.time) + 1.0
                fed = dataclasses.replace(fed, time=one.time)
            assert fed == one
        assert routed.controller.as_dict() == live.admission


class TestRebalancing:
    def _skewed(self):
        # All churn hammers group 4 — classic popularity drift.
        events = [
            MutationEvent(
                time=2.0 + i,
                kind="page_insert",
                page_id=500 + i,
                expected_time=4,
            )
            for i in range(6)
        ]
        return MutationTrace(horizon=64, events=tuple(events))

    def test_moves_respect_per_trigger_budget(self):
        report = FederatedBroadcastService(
            {1: 4, 2: 4, 3: 8, 4: 16},
            self._skewed(),
            shards=2,
            budget=6,
            rebalance_threshold=1.2,
            max_pages_moved=1,
        ).run()
        times = [t for t, *_ in report.rebalances]
        assert all(times.count(t) <= 1 for t in times)
        assert report.pages_moved == len(report.rebalances)

    def test_disabled_threshold_never_moves(self):
        report = FederatedBroadcastService(
            {1: 4, 2: 4, 3: 8, 4: 16},
            self._skewed(),
            shards=2,
            budget=6,
            rebalance_threshold=0.0,
        ).run()
        assert report.pages_moved == 0

    def test_moves_are_replayed_into_manifest_block(self):
        report = FederatedBroadcastService(
            {1: 4, 2: 4, 3: 8, 4: 16},
            self._skewed(),
            shards=2,
            budget=6,
            rebalance_threshold=1.2,
            max_pages_moved=2,
        ).run()
        block = report.as_dict()
        assert block["pages_moved"] == len(block["rebalances"])
        for move in block["rebalances"]:
            assert set(move) == {"time", "page_id", "source", "target"}


class TestValidation:
    def test_more_shards_than_groups_rejected(self):
        with pytest.raises(ReproError, match="distinct ladder"):
            FederatedBroadcastService(
                {1: 4, 2: 4}, _trace(), shards=3
            )

    def test_zero_shards_rejected(self):
        with pytest.raises(ReproError, match="shards must be >= 1"):
            FederatedBroadcastService(_instance(), _trace(), shards=0)

    def test_threshold_at_or_below_one_rejected(self):
        with pytest.raises(ReproError, match="rebalance_threshold"):
            FederatedBroadcastService(
                _instance(), _trace(), shards=2,
                rebalance_threshold=1.0,
            )

    def test_negative_move_budget_rejected(self):
        with pytest.raises(ReproError, match="max_pages_moved"):
            FederatedBroadcastService(
                _instance(), _trace(), shards=2, max_pages_moved=-1
            )


class TestEngineFacade:
    def test_federate_emits_deterministic_current_manifest(self):
        from repro.engine import BroadcastEngine

        def manifest_json():
            engine = BroadcastEngine()
            result = engine.federate(
                _instance(), _trace(), shards=2, seed=0
            )
            return result.manifest.to_json()

        first = manifest_json()
        assert first == manifest_json()
        payload = json.loads(first)
        assert payload["manifest_version"] == MANIFEST_VERSION
        assert payload["operation"] == "federate"
        assert payload["federation"]["shards"] == 2
        assert payload["results"]["shards"] == 2

    def test_federate_results_match_report(self):
        from repro.engine import BroadcastEngine

        result = BroadcastEngine().federate(
            _instance(), _trace(), shards=2, seed=0
        )
        results = result.manifest.results
        assert results["listeners"] == result.report.listeners
        assert results["pages_moved"] == result.report.pages_moved
        assert results["final_valid"] == result.report.final_valid
