"""Tests for the live broadcast service runtime (repro.live)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.bounds import minimum_channels
from repro.core.errors import (
    InvalidInstanceError,
    SimulationError,
)
from repro.core.pages import instance_from_counts
from repro.engine import BroadcastEngine
from repro.engine.telemetry import MANIFEST_VERSION
from repro.live import (
    AdmissionController,
    LiveBroadcastService,
    LiveCatalog,
    MutationEvent,
    MutationTrace,
    SloTracker,
    replay_pull_lwf,
    scripted_trace,
)
from repro.workload.mutations import generate_mutation_trace


# ----------------------------------------------------------------------
# Mutation events and traces
# ----------------------------------------------------------------------


class TestMutationEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown mutation kind"):
            MutationEvent(time=1.0, kind="page_rename", page_id=1)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError, match="must be >= 0"):
            MutationEvent(
                time=-1.0, kind="page_insert", page_id=1, expected_time=4
            )

    def test_insert_requires_expected_time(self):
        with pytest.raises(SimulationError, match="positive expected_time"):
            MutationEvent(time=1.0, kind="page_insert", page_id=1)

    def test_remove_must_not_carry_expected_time(self):
        with pytest.raises(SimulationError, match="must not carry"):
            MutationEvent(
                time=1.0, kind="page_remove", page_id=1, expected_time=4
            )

    def test_catalog_mutations_land_on_slot_boundaries(self):
        with pytest.raises(SimulationError, match="integer slot boundary"):
            MutationEvent(
                time=1.5, kind="page_insert", page_id=1, expected_time=4
            )

    def test_listeners_may_arrive_fractionally(self):
        event = MutationEvent(
            time=1.5, kind="listener", page_id=1, expected_time=4
        )
        assert event.time == 1.5

    def test_dict_round_trip(self):
        event = MutationEvent(
            time=3.0, kind="page_retune", page_id=7, expected_time=8
        )
        assert MutationEvent.from_dict(event.to_dict()) == event


class TestMutationTrace:
    def test_events_sorted_by_time(self):
        trace = scripted_trace(
            10,
            [
                (5.0, "page_remove", 2),
                (1.0, "page_insert", 9, 4),
                (3.25, "listener", 1, 2),
            ],
        )
        assert [e.time for e in trace.events] == [1.0, 3.25, 5.0]

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(SimulationError, match="beyond the horizon"):
            scripted_trace(4, [(4.0, "page_remove", 1)])

    def test_duplicate_events_rejected(self):
        with pytest.raises(SimulationError, match="duplicate event"):
            scripted_trace(
                10,
                [
                    (2.0, "page_insert", 5, 4),
                    (2.0, "page_insert", 5, 8),
                ],
            )

    def test_json_round_trip_is_exact(self):
        trace = scripted_trace(
            12,
            [(1.0, "page_insert", 9, 4), (2.5, "listener", 9, 4)],
            meta={"note": "x"},
        )
        clone = MutationTrace.from_json(trace.to_json())
        assert clone == trace
        assert clone.fingerprint() == trace.fingerprint()

    def test_save_load(self, tmp_path):
        trace = scripted_trace(8, [(1.0, "page_remove", 2)])
        path = trace.save(tmp_path / "trace.json")
        assert MutationTrace.load(path) == trace

    def test_mutations_and_listeners_split(self):
        trace = scripted_trace(
            10,
            [
                (1.0, "page_insert", 9, 4),
                (2.5, "listener", 9, 4),
                (3.0, "page_remove", 9),
            ],
        )
        assert len(trace.mutations()) == 2
        assert len(trace.listeners()) == 1


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------


class TestLiveCatalog:
    def test_required_matches_minimum_channels(self, fig2_instance):
        catalog = LiveCatalog(fig2_instance)
        assert catalog.required_channels() == minimum_channels(
            fig2_instance
        )
        assert catalog.required_channels() == minimum_channels(
            catalog.to_instance()
        )

    def test_insert_duplicate_rejected(self, fig2_instance):
        catalog = LiveCatalog(fig2_instance)
        with pytest.raises(InvalidInstanceError, match="already"):
            catalog.insert(1, 4)

    def test_remove_last_page_rejected(self):
        catalog = LiveCatalog({1: 4})
        with pytest.raises(InvalidInstanceError, match="last page"):
            catalog.remove(1)

    def test_mutations_change_load(self):
        catalog = LiveCatalog({1: 2, 2: 4})
        assert catalog.channel_load() == pytest.approx(0.75)
        catalog.insert(3, 4)
        assert catalog.channel_load() == pytest.approx(1.0)
        catalog.retune(1, 4)
        assert catalog.channel_load() == pytest.approx(0.75)
        catalog.remove(2)
        assert catalog.channel_load() == pytest.approx(0.5)

    def test_to_instance_is_fingerprint_stable(self):
        from repro.engine import instance_fingerprint

        a = LiveCatalog({3: 8, 1: 2, 2: 8})
        b = LiveCatalog({1: 2, 2: 8, 3: 8})
        assert instance_fingerprint(a.to_instance()) == (
            instance_fingerprint(b.to_instance())
        )

    def test_off_ladder_snapshot_rejected(self):
        catalog = LiveCatalog({1: 2, 2: 3})
        with pytest.raises(InvalidInstanceError):
            catalog.to_instance()


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------


def _insert(time, page_id, expected):
    return MutationEvent(
        time=time, kind="page_insert", page_id=page_id,
        expected_time=expected,
    )


def _one_shard(pages, budget, **kwargs):
    catalog = LiveCatalog(pages)
    return catalog, AdmissionController({0: catalog}, budget, **kwargs)


class TestAdmissionController:
    """One shard, home only: the live service's controller."""

    def test_fitting_insert_admitted(self):
        catalog, controller = _one_shard({1: 2, 2: 4}, 1)  # load 0.75
        decision = controller.decide_insert(_insert(1.0, 9, 4), 0)
        assert decision.verdict == "admitted"
        assert decision.reason == "fits-budget"
        assert decision.required_channels == 1
        assert (decision.shard, decision.home) == (0, 0)
        assert catalog.expected_time(9) == 4  # applied to the ledger

    def test_over_budget_insert_queued_then_rejected(self):
        catalog, controller = _one_shard({1: 2, 2: 2}, 1, queue_limit=1)
        first = controller.decide_insert(_insert(1.0, 9, 2), 0)
        second = controller.decide_insert(_insert(2.0, 10, 2), 0)
        assert first.verdict == "queued"
        assert second.verdict == "rejected"
        assert second.reason == "queue-full"
        assert len(controller.queued) == 1
        assert 9 not in catalog and 10 not in catalog

    def test_drain_readmits_when_capacity_frees(self):
        catalog, controller = _one_shard({1: 2, 2: 2}, 1, queue_limit=4)
        controller.decide_insert(_insert(1.0, 9, 2), 0)
        controller.decide_remove(
            MutationEvent(time=2.0, kind="page_remove", page_id=2)
        )  # load back to 0.5
        decisions = list(controller.drain(now=3.0))
        assert [d.page_id for d in decisions] == [9]
        assert decisions[0].kind == "queue_drain"
        assert decisions[0].verdict == "admitted"
        assert decisions[0].time == 3.0
        assert controller.queued == ()
        assert catalog.expected_time(9) == 2

    def test_drain_inserts_each_page_just_before_yielding_it(self):
        catalog, controller = _one_shard({1: 2, 2: 2}, 1, queue_limit=4)
        for page_id in (7, 8, 9):
            controller.decide_insert(_insert(1.0, page_id, 4), 0)
        assert len(controller.queued) == 3
        catalog.remove(2)  # load 0.5: room for exactly two t=4 pages
        drain = controller.drain(now=2.0)
        first = next(drain)
        # Judged and applied one at a time: only the yielded page is in,
        # although the next one fits too.
        assert first.page_id == 7 and 7 in catalog
        assert 8 not in catalog and 9 not in catalog
        assert [d.page_id for d in drain] == [8]
        assert 8 in catalog
        assert [e.page_id for e in controller.queued] == [9]

    def test_duplicate_insert_rejected(self):
        _, controller = _one_shard({1: 2}, 4)
        decision = controller.decide_insert(_insert(1.0, 1, 2), 0)
        assert decision.verdict == "rejected"
        assert decision.reason == "duplicate-page"

    def test_insert_of_queued_page_rejected(self):
        catalog, controller = _one_shard({1: 2, 2: 2}, 1, queue_limit=4)
        first = controller.decide_insert(_insert(1.0, 9, 2), 0)
        second = controller.decide_insert(_insert(2.0, 9, 2), 0)
        assert first.verdict == "queued"
        assert second.verdict == "rejected"
        assert second.reason == "duplicate-page"
        assert [e.page_id for e in controller.queued] == [9]
        catalog.remove(2)
        assert [d.page_id for d in controller.drain(now=3.0)] == [9]
        assert controller.queued == ()

    def test_tightening_retune_past_budget_rejected(self):
        catalog, controller = _one_shard({1: 2, 2: 4, 3: 4}, 1)  # taut
        event = MutationEvent(
            time=2.0, kind="page_retune", page_id=3, expected_time=2
        )
        decision = controller.decide_retune(event)
        assert decision.verdict == "rejected"
        assert decision.reason == "exceeds-budget"
        assert catalog.expected_time(3) == 4

    def test_remove_unknown_page_rejected(self):
        _, controller = _one_shard({1: 2}, 1)
        event = MutationEvent(time=1.0, kind="page_remove", page_id=42)
        decision = controller.decide_remove(event)
        assert decision.verdict == "rejected"
        assert decision.reason == "unknown-page"
        # One shard: the rejection reports that shard's requirement.
        assert decision.home == 0 and decision.shard is None
        assert decision.required_channels == 1

    def test_disabled_controller_admits_everything(self):
        catalog, controller = _one_shard({1: 2, 2: 2}, 1, enabled=False)
        decision = controller.decide_insert(_insert(1.0, 9, 2), 0)
        assert decision.verdict == "admitted"
        assert decision.reason == "admission-disabled"
        assert decision.required_channels == catalog.required_channels() == 2

    def test_event_log_entry_keeps_seven_keys(self):
        _, controller = _one_shard({1: 2}, 1)
        entry = controller.decide_insert(_insert(1.0, 9, 4), 0).as_dict()
        assert list(entry) == [
            "time", "kind", "page_id", "verdict", "required_channels",
            "budget", "reason",
        ]


def _shards(budget, *pages, **kwargs):
    ledgers = {shard: LiveCatalog(p) for shard, p in enumerate(pages)}
    return ledgers, AdmissionController(ledgers, budget, **kwargs)


class TestShardedAdmission:
    """Many shards: home, then spill, then the one queue, then reject."""

    def test_spill_then_queue_then_reject(self):
        # Shard 0 is taut; shard 1 has room for exactly one t=2 page.
        ledgers, controller = _shards(
            1, {1: 2, 2: 2}, {3: 4}, queue_limit=1
        )
        spilled = controller.decide_insert(_insert(1.0, 9, 2), 0)
        queued = controller.decide_insert(_insert(2.0, 10, 2), 0)
        rejected = controller.decide_insert(_insert(3.0, 11, 2), 0)
        assert (spilled.verdict, spilled.reason) == ("admitted", "spilled")
        assert (spilled.shard, spilled.home) == (1, 0)
        assert spilled.required_channels == 1
        assert ledgers[1].expected_time(9) == 2
        assert (queued.verdict, queued.shard) == ("queued", None)
        assert (rejected.verdict, rejected.reason) == (
            "rejected", "queue-full",
        )
        assert controller.counters["spilled"] == 1

    def test_spill_prefers_the_least_loaded_shard(self):
        ledgers, controller = _shards(1, {1: 2, 2: 2}, {3: 4}, {4: 8})
        decision = controller.decide_insert(_insert(1.0, 9, 4), 0)
        assert decision.shard == 2  # load 1/8 beats 1/4
        assert controller.channel_load(2) == 1 / 8 + 1 / 4

    def test_spill_ties_break_on_the_histogram_float(self):
        # Shards 1 and 2 both carry load 1: one t=1 page, and ten t=10
        # pages.  Summed per deadline (10 / 10) the loads tie exactly
        # and the lower shard id wins; summed per page (ten 0.1 terms)
        # shard 2 would read 0.9999999999999999 and win instead.
        tenths = {300 + k: 10 for k in range(10)}
        ledgers, controller = _shards(
            2, {100: 1, 101: 1}, {200: 1}, tenths
        )
        assert controller.channel_load(1) == controller.channel_load(2)
        assert ledgers[2].channel_load() < ledgers[1].channel_load()
        decision = controller.decide_insert(_insert(1.0, 9, 10), 0)
        assert (decision.reason, decision.shard) == ("spilled", 1)

    def test_remove_drains_the_global_queue(self):
        ledgers, controller = _shards(1, {1: 2, 2: 2}, {3: 2, 4: 2})
        controller.decide_insert(_insert(1.0, 9, 2), 1)
        assert len(controller.queued) == 1
        removed = controller.decide_remove(
            MutationEvent(time=2.0, kind="page_remove", page_id=1)
        )
        assert (removed.shard, removed.required_channels) == (0, 1)
        (drained,) = controller.drain(now=3.0)
        # Home (shard 1) is still taut: the drain spills to shard 0.
        assert (drained.kind, drained.reason) == ("queue_drain", "spilled")
        assert (drained.shard, drained.home) == (0, 1)
        assert controller.locate(9) == 0
        assert controller.counters["drained"] == 1

    def test_unknown_page_names_no_shard(self):
        _, controller = _shards(1, {1: 2}, {2: 4})
        decision = controller.decide_retune(
            MutationEvent(
                time=1.0, kind="page_retune", page_id=42, expected_time=4
            )
        )
        assert decision.reason == "unknown-page"
        assert (decision.shard, decision.home) == (None, None)
        assert decision.required_channels == 0

    def test_admission_off_applies_everything_at_home(self):
        ledgers, controller = _shards(
            1, {1: 2, 2: 2}, {3: 8}, enabled=False
        )
        decision = controller.decide_insert(_insert(1.0, 9, 2), 0)
        assert (decision.reason, decision.shard) == (
            "admission-disabled", 0,
        )
        assert ledgers[0].required_channels() == 2
        assert controller.counters["rejected"] == 0


# ----------------------------------------------------------------------
# SLO tracker
# ----------------------------------------------------------------------


class TestSloTracker:
    def test_counts_misses_against_promised_deadline(self):
        tracker = SloTracker(window=4)
        assert not tracker.observe(0.0, 1, 4, 2.0).miss
        assert tracker.observe(1.0, 1, 4, 5.0).miss
        assert tracker.observe(2.0, 2, 4, None).miss
        assert tracker.listeners == 3
        assert tracker.misses == 2
        assert tracker.miss_rate == pytest.approx(2 / 3)

    def test_breached_needs_half_a_window(self):
        tracker = SloTracker(window=8, target_miss_rate=0.1)
        tracker.observe(0.0, 1, 4, 99.0)  # one miss, window too empty
        assert not tracker.breached()
        for i in range(3):
            tracker.observe(float(i + 1), 1, 4, 99.0)
        assert tracker.breached()

    def test_reset_window_keeps_totals(self):
        tracker = SloTracker(window=4, target_miss_rate=0.1)
        for i in range(4):
            tracker.observe(float(i), 1, 4, 99.0)
        assert tracker.breached()
        tracker.reset_window()
        assert not tracker.breached()
        assert tracker.misses == 4

    def test_per_class_accounting(self):
        tracker = SloTracker()
        tracker.observe(0.0, 1, 2, 1.0)
        tracker.observe(1.0, 2, 8, 9.0)
        per_class = tracker.per_class()
        assert per_class[2]["misses"] == 0
        assert per_class[8]["misses"] == 1


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


class TestLiveBroadcastService:
    def test_incremental_insert_preserves_validity(self, fig2_instance):
        # Budget above the minimum leaves slack for in-place repair.
        trace = scripted_trace(16, [(2.0, "page_insert", 100, 8)])
        service = LiveBroadcastService(
            fig2_instance, trace, budget=5, self_check=True
        )
        report = service.run()
        assert report.counters["incremental_repairs"] == 1
        assert report.counters["full_replans"] == 1  # the initial plan
        assert report.final_valid
        assert report.program.broadcast_count(100) >= 1

    def test_remove_clears_cells_without_replanning(self, fig2_instance):
        trace = scripted_trace(16, [(2.0, "page_remove", 1)])
        service = LiveBroadcastService(
            fig2_instance, trace, self_check=True
        )
        report = service.run()
        assert report.counters["full_replans"] == 1
        assert report.program.broadcast_count(1) == 0
        assert 1 not in report.catalog

    def test_relaxing_retune_keeps_slots(self, fig2_instance):
        trace = scripted_trace(16, [(2.0, "page_retune", 1, 4)])
        service = LiveBroadcastService(
            fig2_instance, trace, self_check=True
        )
        before = None

        # capture slots after the initial plan by peeking post-run: the
        # retune must have left page 1's appearances untouched.
        report = service.run()
        entries = [
            e for e in report.event_log if e["type"] == "repair"
        ]
        assert entries and entries[0]["action"] == "retune-keep"
        assert report.final_valid
        assert before is None

    def test_insert_of_queued_page_rejected_and_drained_once(self):
        trace = scripted_trace(8, [
            (1, "page_insert", 9, 2),
            (2, "page_insert", 9, 2),
            (3, "page_remove", 1),
            (5, "page_remove", 2),
        ])
        report = LiveBroadcastService(
            {1: 2, 2: 2, 3: 2, 4: 2}, trace, budget=2, self_check=True
        ).run()
        verdicts = [
            (d.kind, d.verdict, d.reason) for d in report.decisions
            if d.page_id == 9
        ]
        assert verdicts == [
            ("page_insert", "queued", "exceeds-budget"),
            ("page_insert", "rejected", "duplicate-page"),
            ("queue_drain", "admitted", "fits-budget"),
        ]
        assert report.catalog[9] == 2
        assert report.final_valid

    def test_over_budget_insert_rejected_and_bound_held(self):
        # Taut instance: load exactly 1.0 on a 1-channel budget.
        instance = instance_from_counts([1, 2], [2, 4])
        trace = scripted_trace(
            16, [(2.0, "page_insert", 100, 2)]
        )
        service = LiveBroadcastService(
            instance, trace, queue_limit=0, self_check=True
        )
        report = service.run()
        assert report.admission["rejected"] == 1
        assert 100 not in report.catalog
        assert report.final_required <= report.budget
        assert report.final_valid

    def test_admission_off_degrades_to_pamad(self):
        instance = instance_from_counts([1, 2], [2, 4])
        trace = scripted_trace(16, [(2.0, "page_insert", 100, 2)])
        service = LiveBroadcastService(instance, trace, admission=False)
        report = service.run()
        assert 100 in report.catalog
        assert report.final_required > report.budget
        assert not report.final_valid

    def test_queue_drains_after_removal(self):
        instance = instance_from_counts([1, 2], [2, 4])
        trace = scripted_trace(
            16,
            [
                (2.0, "page_insert", 100, 4),  # over budget -> queued
                (4.0, "page_remove", 1),       # frees 0.5 channels
            ],
        )
        service = LiveBroadcastService(instance, trace, self_check=True)
        report = service.run()
        assert report.counters["queue_drains"] == 1
        assert 100 in report.catalog
        assert report.final_valid

    def test_listeners_measured_against_program(self, fig2_instance):
        trace = scripted_trace(
            16,
            [
                (3.25, "listener", 1, 2),
                (5.0, "listener", 4, 4),
            ],
        )
        report = LiveBroadcastService(fig2_instance, trace).run()
        assert report.slo["listeners"] == 2
        # A valid SUSC program never misses a promised deadline.
        assert report.slo["misses"] == 0

    def test_listener_for_rejected_page_misses(self):
        instance = instance_from_counts([1, 2], [2, 4])
        trace = scripted_trace(
            16,
            [
                (2.0, "page_insert", 100, 2),
                (5.5, "listener", 100, 2),
            ],
        )
        report = LiveBroadcastService(
            instance, trace, queue_limit=0
        ).run()
        assert report.slo["misses"] == 1

    def test_replay_is_deterministic(self, fig2_instance):
        trace = generate_mutation_trace(
            fig2_instance, seed=11, horizon=40, mutations=10, listeners=25
        )
        first = LiveBroadcastService(fig2_instance, trace).run()
        second = LiveBroadcastService(fig2_instance, trace).run()
        assert first.event_log_json() == second.event_log_json()
        assert first.counters == second.counters

    def test_run_is_single_shot(self, fig2_instance):
        trace = scripted_trace(8, [(2.0, "page_remove", 1)])
        service = LiveBroadcastService(fig2_instance, trace)
        service.run()
        with pytest.raises(SimulationError, match="only be called once"):
            service.run()


# ----------------------------------------------------------------------
# Trace generator
# ----------------------------------------------------------------------


class TestGenerateMutationTrace:
    def test_same_seed_same_trace(self, fig2_instance):
        a = generate_mutation_trace(fig2_instance, seed=5)
        b = generate_mutation_trace(fig2_instance, seed=5)
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_different_seeds_differ(self, fig2_instance):
        a = generate_mutation_trace(fig2_instance, seed=5)
        b = generate_mutation_trace(fig2_instance, seed=6)
        assert a.fingerprint() != b.fingerprint()

    def test_times_stay_on_the_ladder(self, fig2_instance):
        ladder = {2, 4, 8}
        trace = generate_mutation_trace(
            fig2_instance, seed=1, mutations=40, listeners=0
        )
        for event in trace.mutations():
            if event.expected_time is not None:
                assert event.expected_time in ladder

    def test_shadow_consistency(self, fig2_instance):
        """The stream never removes an unknown page or re-inserts a live one."""
        trace = generate_mutation_trace(
            fig2_instance, seed=2, horizon=80, mutations=50, listeners=0
        )
        shadow = {p.page_id for p in fig2_instance.pages()}
        for event in trace.mutations():
            if event.kind == "page_insert":
                assert event.page_id not in shadow
                shadow.add(event.page_id)
            elif event.kind == "page_remove":
                assert event.page_id in shadow
                shadow.remove(event.page_id)
            else:
                assert event.page_id in shadow

    def test_listeners_want_pages_alive_at_arrival(self, fig2_instance):
        trace = generate_mutation_trace(
            fig2_instance, seed=3, horizon=60, mutations=30, listeners=40
        )
        shadow = {
            p.page_id: p.expected_time for p in fig2_instance.pages()
        }
        pending = sorted(trace.events, key=lambda e: e.time)
        for event in pending:
            if event.kind == "page_insert":
                shadow[event.page_id] = event.expected_time
            elif event.kind == "page_remove":
                del shadow[event.page_id]
            elif event.kind == "page_retune":
                shadow[event.page_id] = event.expected_time
            else:
                assert event.page_id in shadow
                assert event.expected_time == shadow[event.page_id]


# ----------------------------------------------------------------------
# Pull baseline
# ----------------------------------------------------------------------


class TestPullBaseline:
    def test_single_request_served_next_slot(self):
        trace = scripted_trace(8, [(1.25, "listener", 1, 4)])
        outcome = replay_pull_lwf({1: 4, 2: 4}, trace)
        assert outcome.listeners == 1
        assert outcome.served == 1
        assert outcome.misses == 0
        # arrival 1.25, broadcast at slot 2 -> wait 0.75
        assert outcome.total_wait == pytest.approx(0.75)

    def test_unknown_page_misses_immediately(self):
        trace = scripted_trace(8, [(1.0, "listener", 99, 4)])
        outcome = replay_pull_lwf({1: 4}, trace)
        assert outcome.misses == 1
        assert outcome.served == 0

    def test_removed_page_drops_pending_requests(self):
        trace = scripted_trace(
            8,
            [
                (0.5, "listener", 2, 4),
                (1.0, "page_remove", 2),
            ],
        )
        # Give channel 0 something longer-waiting so page 2 is not
        # served before the removal lands.
        outcome = replay_pull_lwf({1: 4, 2: 4}, trace, budget=1)
        assert outcome.misses >= 1

    def test_deterministic(self, fig2_instance):
        trace = generate_mutation_trace(
            fig2_instance, seed=4, mutations=10, listeners=30
        )
        a = replay_pull_lwf(fig2_instance, trace, budget=4)
        b = replay_pull_lwf(fig2_instance, trace, budget=4)
        assert a == b


# ----------------------------------------------------------------------
# Engine facade + CLI
# ----------------------------------------------------------------------


class TestEngineLive:
    def test_manifest_operation_and_version(self, fig2_instance):
        trace = generate_mutation_trace(
            fig2_instance, seed=1, horizon=24, mutations=5, listeners=10
        )
        result = BroadcastEngine().live(fig2_instance, trace)
        payload = result.manifest.to_dict()
        assert payload["operation"] == "live"
        assert payload["manifest_version"] == MANIFEST_VERSION
        assert payload["service"]["budget"] == result.report.budget
        assert payload["created_at"] == 0.0
        assert payload["timings"] == {}

    def test_fresh_engines_emit_identical_manifests(self, fig2_instance):
        trace = generate_mutation_trace(
            fig2_instance, seed=1, horizon=24, mutations=5, listeners=10
        )
        a = BroadcastEngine().live(fig2_instance, trace)
        b = BroadcastEngine().live(fig2_instance, trace)
        assert a.manifest.to_json() == b.manifest.to_json()

    def test_baseline_can_be_skipped(self, fig2_instance):
        trace = scripted_trace(8, [(1.0, "page_remove", 1)])
        result = BroadcastEngine().live(
            fig2_instance, trace, baseline=False
        )
        assert result.baseline is None
        assert result.manifest.service["baseline"] is None

    def test_live_counters_land_in_engine_telemetry(self, fig2_instance):
        engine = BroadcastEngine()
        trace = scripted_trace(8, [(1.0, "page_remove", 1)])
        engine.live(fig2_instance, trace)
        counters = engine.telemetry.counters()
        assert counters["live.mutations"] == 1
        assert counters["live.full_replans"] == 1


class TestCliLive:
    ARGS = [
        "live", "--sizes", "3,5,3", "--times", "2,4,8",
        "--seed", "9", "--mutations", "8", "--listeners", "20",
    ]

    def test_prints_summary_and_writes_artifacts(self, tmp_path, capsys):
        log = tmp_path / "log.json"
        manifest = tmp_path / "manifest.json"
        code = main(
            self.ARGS
            + ["--log", str(log), "--manifest", str(manifest)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mutation trace" in out
        assert "pull LWF" in out
        assert json.loads(manifest.read_text())["operation"] == "live"
        assert isinstance(json.loads(log.read_text()), list)

    def test_two_invocations_byte_identical(self, tmp_path, capsys):
        paths = []
        for run in ("a", "b"):
            log = tmp_path / f"log-{run}.json"
            manifest = tmp_path / f"man-{run}.json"
            assert main(
                self.ARGS
                + ["--log", str(log), "--manifest", str(manifest)]
            ) == 0
            paths.append((log, manifest))
        capsys.readouterr()
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_saved_trace_replays_identically(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        log_a = tmp_path / "a.json"
        log_b = tmp_path / "b.json"
        assert main(
            self.ARGS + ["--save-trace", str(trace_path), "--log", str(log_a)]
        ) == 0
        assert main(
            [
                "live", "--sizes", "3,5,3", "--times", "2,4,8",
                "--trace", str(trace_path), "--log", str(log_b),
            ]
        ) == 0
        capsys.readouterr()
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_rejects_missing_instance(self, capsys):
        assert main(["live", "--seed", "1"]) == 2
        assert "specify an instance" in capsys.readouterr().err
