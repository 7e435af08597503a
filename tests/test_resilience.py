"""Tests for the resilience layer: fault plans, policies, replay, CLI.

Covers plan construction/validation/serialisation, the deterministic
Poisson churn generator, the four recovery policies replayed over shared
listener streams, the engine's ``resilience`` operation, and the CLI
round trip through a saved trace.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.errors import SimulationError
from repro.core.bounds import minimum_channels
from repro.core.pages import instance_from_counts
from repro.engine import default_engine
from repro.engine.telemetry import MANIFEST_VERSION
from repro.resilience import (
    FaultEvent,
    FaultPlan,
    CarryOn,
    RescheduleFull,
    RescheduleThrottled,
    ShedLoad,
    compare_policies,
    make_policy,
    poisson_churn_plan,
    replay_plan,
    scripted_plan,
    static_failure_plan,
)


@pytest.fixture
def small_instance():
    return instance_from_counts((3, 5, 3), (2, 4, 8))


# ----------------------------------------------------------------------
# Fault events and plans
# ----------------------------------------------------------------------


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SimulationError, match="unknown fault kind"):
            FaultEvent(0, "meteor_strike", 0)

    def test_rejects_negative_time_and_channel(self):
        with pytest.raises(SimulationError, match="time"):
            FaultEvent(-1, "channel_fail", 0)
        with pytest.raises(SimulationError, match="channel"):
            FaultEvent(0, "channel_fail", -2)

    def test_orders_by_time_then_kind(self):
        early = FaultEvent(1, "lossy_slot", 5)
        late = FaultEvent(2, "channel_fail", 0)
        assert early < late


class TestFaultPlan:
    def test_events_sorted_on_construction(self):
        plan = scripted_plan(
            3,
            10,
            [(5, "channel_fail", 1), (2, "channel_fail", 0)],
        )
        assert [e.time for e in plan.events] == [2, 5]

    def test_rejects_out_of_range_channel(self):
        with pytest.raises(SimulationError, match="out of range"):
            scripted_plan(2, 10, [(0, "channel_fail", 5)])

    def test_rejects_event_beyond_horizon(self):
        with pytest.raises(SimulationError, match="beyond the horizon"):
            scripted_plan(2, 5, [(7, "channel_fail", 0)])

    def test_rejects_double_fail(self):
        with pytest.raises(SimulationError, match="already down"):
            scripted_plan(
                2, 10,
                [(0, "channel_fail", 0), (3, "channel_fail", 0)],
            )

    def test_rejects_recovering_live_channel(self):
        with pytest.raises(SimulationError, match="never failed"):
            scripted_plan(2, 10, [(1, "channel_recover", 1)])

    def test_alive_at_and_min_alive(self):
        plan = scripted_plan(
            3,
            20,
            [
                (2, "channel_fail", 0),
                (4, "channel_fail", 2),
                (9, "channel_recover", 0),
            ],
        )
        assert plan.alive_at(0) == (0, 1, 2)
        assert plan.alive_at(4) == (1,)
        assert plan.alive_at(9) == (0, 1)
        assert plan.min_alive() == 1

    def test_structural_and_lossy_partition(self):
        plan = scripted_plan(
            2,
            10,
            [(1, "lossy_slot", 0), (3, "channel_fail", 1)],
        )
        assert [e.kind for e in plan.structural_events()] == ["channel_fail"]
        assert [e.kind for e in plan.lossy_events()] == ["lossy_slot"]

    def test_json_round_trip_is_exact(self, tmp_path):
        plan = poisson_churn_plan(
            5, 60, seed=11, fail_rate=0.05, recover_rate=0.2, loss_rate=0.01
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = plan.save(tmp_path / "trace.json")
        loaded = FaultPlan.load(path)
        assert loaded == plan
        assert loaded.fingerprint() == plan.fingerprint()
        assert loaded.meta["generator"] == "poisson_churn"


class TestGenerators:
    def test_poisson_plan_is_deterministic(self):
        kwargs = dict(seed=3, fail_rate=0.1, recover_rate=0.3)
        assert poisson_churn_plan(4, 50, **kwargs) == poisson_churn_plan(
            4, 50, **kwargs
        )

    def test_poisson_seeds_differ(self):
        a = poisson_churn_plan(4, 80, seed=0, fail_rate=0.1)
        b = poisson_churn_plan(4, 80, seed=1, fail_rate=0.1)
        assert a.events != b.events

    def test_poisson_respects_min_alive(self):
        plan = poisson_churn_plan(
            4, 200, seed=9, fail_rate=0.5, recover_rate=0.05, min_alive=2
        )
        assert plan.min_alive() >= 2

    def test_poisson_rejects_bad_rates(self):
        with pytest.raises(SimulationError, match="probability"):
            poisson_churn_plan(3, 10, fail_rate=1.5)
        with pytest.raises(SimulationError, match="min_alive"):
            poisson_churn_plan(3, 10, min_alive=7)

    def test_static_failure_plan_is_time_zero_batch(self):
        plan = static_failure_plan(6, [4, 2, 4])
        assert [
            (e.time, e.kind, e.channel) for e in plan.events
        ] == [(0, "channel_fail", 2), (0, "channel_fail", 4)]
        assert plan.meta["generator"] == "static_failure"


# ----------------------------------------------------------------------
# Policies and replay
# ----------------------------------------------------------------------


class TestPolicies:
    def test_make_policy_accepts_dashes(self):
        assert make_policy("Reschedule-Full").name == "reschedule_full"

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(SimulationError, match="unknown recovery policy"):
            make_policy("pray")

    def test_throttled_validates_parameters(self):
        with pytest.raises(SimulationError, match="cooldown"):
            RescheduleThrottled(cooldown=-1)

    def test_reschedule_full_never_loses_pages(self, small_instance):
        plan = poisson_churn_plan(
            4, 100, seed=5, fail_rate=0.05, recover_rate=0.2, min_alive=1
        )
        outcome = replay_plan(
            small_instance, plan, RescheduleFull(), num_listeners=60
        )
        assert outcome.pages_lost_time == 0.0
        assert outcome.reschedule_count > 0

    def test_carry_on_never_reschedules_and_loses_more(self, small_instance):
        plan = scripted_plan(
            4, 50, [(5, "channel_fail", 3), (10, "channel_fail", 2)]
        )
        carry = replay_plan(
            small_instance, plan, CarryOn(), num_listeners=60
        )
        full = replay_plan(
            small_instance, plan, RescheduleFull(), num_listeners=60
        )
        assert carry.reschedule_count == 0
        assert carry.pages_lost_time >= full.pages_lost_time

    def test_throttled_reschedules_at_most_as_often(self, small_instance):
        plan = poisson_churn_plan(
            4, 120, seed=2, fail_rate=0.08, recover_rate=0.3, min_alive=1
        )
        full = replay_plan(
            small_instance, plan, RescheduleFull(), num_listeners=40
        )
        throttled = replay_plan(
            small_instance,
            plan,
            RescheduleThrottled(cooldown=40, hysteresis=1),
            num_listeners=40,
        )
        assert throttled.reschedule_count <= full.reschedule_count

    def test_shed_load_sheds_below_minimum(self, small_instance):
        n_min = minimum_channels(small_instance)
        plan = scripted_plan(
            n_min,
            40,
            [(4, "channel_fail", n_min - 1), (8, "channel_fail", n_min - 2)],
        )
        outcome = replay_plan(
            small_instance, plan, ShedLoad(), num_listeners=40
        )
        assert outcome.shed_pages_peak > 0

    def test_replay_is_deterministic_across_json(self, small_instance):
        plan = poisson_churn_plan(
            4, 80, seed=13, fail_rate=0.04, recover_rate=0.2, loss_rate=0.01
        )
        reloaded = FaultPlan.from_json(plan.to_json())
        first = replay_plan(
            small_instance, plan, RescheduleFull(), num_listeners=50, seed=4
        )
        second = replay_plan(
            small_instance,
            reloaded,
            RescheduleFull(),
            num_listeners=50,
            seed=4,
        )
        assert first == second

    def test_compare_policies_share_fingerprint(self, small_instance):
        plan = poisson_churn_plan(4, 60, seed=1, fail_rate=0.05)
        outcomes = compare_policies(
            small_instance, plan, num_listeners=40
        )
        assert [o.policy for o in outcomes] == [
            "carry_on",
            "reschedule_full",
            "reschedule_throttled",
            "shed_load",
        ]
        assert len({o.plan_fingerprint for o in outcomes}) == 1
        assert len({o.listens for o in outcomes}) == 1

    def test_outcome_as_dict_is_json_ready(self, small_instance):
        plan = scripted_plan(3, 20, [(2, "channel_fail", 2)])
        outcome = replay_plan(
            small_instance, plan, CarryOn(), num_listeners=20
        )
        payload = json.loads(json.dumps(outcome.as_dict()))
        assert payload["policy"] == "carry_on"
        assert payload["plan_fingerprint"] == plan.fingerprint()


# ----------------------------------------------------------------------
# Engine operation + CLI
# ----------------------------------------------------------------------


class TestEngineResilience:
    def test_manifest_records_plan_and_policies(self, small_instance):
        from repro.engine import BroadcastEngine

        engine = BroadcastEngine()
        plan = poisson_churn_plan(4, 60, seed=6, fail_rate=0.05)
        result = engine.resilience(
            small_instance, plan, num_listeners=40, seed=2
        )
        payload = json.loads(result.manifest.to_json())
        assert payload["operation"] == "resilience"
        assert payload["manifest_version"] == MANIFEST_VERSION
        plan_block = payload["parameters"]["plan"]
        assert plan_block["fingerprint"] == plan.fingerprint()
        assert plan_block["num_channels"] == 4
        rows = payload["results"]["policies"]
        assert [row["policy"] for row in rows] == [
            "carry_on",
            "reschedule_full",
            "reschedule_throttled",
            "shed_load",
        ]
        assert payload["counters"]["resilience.replays"] == 4

    def test_policies_accept_names(self, small_instance):
        from repro.engine import BroadcastEngine

        engine = BroadcastEngine()
        plan = scripted_plan(3, 20, [(2, "channel_fail", 2)])
        result = engine.resilience(
            small_instance,
            plan,
            policies=["carry-on", RescheduleFull()],
            num_listeners=20,
        )
        assert [o.policy for o in result.outcomes] == [
            "carry_on",
            "reschedule_full",
        ]


class TestResilienceCli:
    def test_generate_save_and_replay_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        manifest = tmp_path / "manifest.json"
        args = [
            "resilience",
            "--sizes", "3,5,3",
            "--times", "2,4,8",
            "--channels", "4",
            "--horizon", "40",
            "--fail-rate", "0.05",
            "--recover-rate", "0.2",
            "--seed", "3",
            "--listeners", "40",
        ]
        assert main(
            args + ["--save-trace", str(trace), "--manifest", str(manifest)]
        ) == 0
        generated = capsys.readouterr().out
        assert "recovery policies under churn" in generated
        assert trace.exists()

        payload = json.loads(manifest.read_text())
        assert payload["operation"] == "resilience"
        assert {"retries", "cell_failures", "breaker_trips"} <= set(
            payload["executor"]
        )

        replay_args = [
            "resilience",
            "--sizes", "3,5,3",
            "--times", "2,4,8",
            "--trace", str(trace),
            "--seed", "3",
            "--listeners", "40",
        ]
        assert main(replay_args) == 0
        replayed = capsys.readouterr().out
        assert replayed == generated

    def test_trace_channel_mismatch_is_an_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        poisson_churn_plan(3, 10, seed=0).save(trace)
        code = main(
            [
                "resilience",
                "--sizes", "3,5,3",
                "--times", "2,4,8",
                "--channels", "7",
                "--trace", str(trace),
            ]
        )
        assert code == 2
        assert "disagrees" in capsys.readouterr().err


@pytest.fixture(autouse=True)
def _isolate_default_engine():
    """CLI tests go through the process-wide engine; keep runs isolated."""
    yield
    engine = default_engine()
    engine.cache.clear()
