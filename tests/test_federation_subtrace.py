"""Columnar shard sub-traces: equal to the event-built trace, and lazy.

The federation hands every shard a sub-trace built by
``MutationTrace.presorted`` from merged columns and the shard's catalog
events, without one listener event object.  These tests pin the two
halves of that contract:

* **Equality (hypothesis)** — over random federated traces, each
  shard's columnar sub-trace equals ``MutationTrace(horizon, events,
  meta)`` built from the same events through the validating
  constructor: ``events``, ``columns()``, ``mutations()``,
  ``listeners()``, ``to_dict()``, ``==`` and a pickle round trip; its
  fingerprint is ``fingerprint_columns`` over those columns, and a plan
  that reads its rows from the shared-memory post builds the same
  sub-trace.
* **Laziness** — batched replay, coalescing included, never
  materialises the listener events, and a pickled
  :class:`~repro.federation.service.ShardPlan` costs about its column
  bytes.  Nor does it import ``numpy.ma`` (~13 ms on a cold process).
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pages import instance_from_counts
from repro.federation import FederatedBroadcastService
from repro.federation import service as federation
from repro.live.mutations import (
    MutationEvent,
    MutationTrace,
    fingerprint_columns,
)
from repro.live.service import LiveBroadcastService
from repro.workload.mutations import generate_mutation_trace

LADDER = (4, 8, 16, 32)


def _instance(per_group: int = 4):
    return instance_from_counts((per_group,) * len(LADDER), LADDER)


def _is_lazy(trace: MutationTrace) -> bool:
    return "events" not in vars(trace)


def _listener_trace(instance, listeners: int, *, horizon=96, seed=5):
    """A churn trace plus ``listeners`` arrivals drawn with numpy."""
    base = generate_mutation_trace(
        instance, seed=seed, horizon=horizon, mutations=12, listeners=0
    )
    rng = np.random.default_rng(seed)
    pages = [page.page_id for page in instance.pages()]
    expected = {p.page_id: p.expected_time for p in instance.pages()}
    arrivals = rng.uniform(0, horizon - 0.001, listeners)
    times = np.unique(np.round(arrivals, 6))
    picks = rng.choice(pages, times.size).tolist()
    events = tuple(
        MutationEvent(time, "listener", page, expected[page])
        for time, page in zip(times.tolist(), picks)
    )
    return MutationTrace(horizon, base.events + events, base.meta)


class TestColumnarEqualsEventBuilt:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        horizon=st.integers(8, 96),
        mutations=st.integers(0, 32),
        listeners=st.integers(0, 160),
        orphans=st.integers(0, 6),
        shards=st.integers(1, 4),
        threshold=st.sampled_from((0.0, 1.1, 1.5)),
    )
    def test_property_shard_subtraces(
        self, seed, horizon, mutations, listeners, orphans, shards,
        threshold,
    ):
        instance = _instance()
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        # Listeners for pages no shard owns take the orphan fallback.
        extra = tuple(
            MutationEvent(
                time=(k * 7.25) % (horizon - 1), kind="listener",
                page_id=9_000 + k, expected_time=LADDER[k % 4],
            )
            for k in range(orphans)
        )
        trace = MutationTrace(horizon, trace.events + extra, trace.meta)
        service = FederatedBroadcastService(
            instance,
            trace,
            shards=shards,
            seed=seed,
            rebalance_threshold=threshold,
        )
        routed = service.route()
        plans, _ = service._shard_plans(routed)
        shm_plans, post = service._shard_plans(routed, shm=True)
        try:
            shm_subs = [federation._subtrace_from_plan(p) for p in shm_plans]
        finally:
            post.close()
        for shard, plan, shm_sub in zip(service.ring.shards, plans, shm_subs):
            sub = federation._subtrace_from_plan(plan)
            mine = np.flatnonzero(routed.listener_shard == shard).tolist()
            reference = MutationTrace(
                trace.horizon,
                tuple(trace.events[i] for i in mine)
                + tuple(routed.catalog_events[shard]),
                sub.meta,
            )
            # Everything the batched replay reads, before anything
            # materialises the listener events.
            for got, want in zip(sub.columns(), reference.columns()):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert sub.mutations() == reference.mutations()
            assert sub.fingerprint() == fingerprint_columns(
                reference.horizon,
                reference.meta,
                *reference.columns(),
                reference.mutations(),
            )
            clone = pickle.loads(pickle.dumps(sub))
            assert _is_lazy(sub) and _is_lazy(clone)
            assert clone.fingerprint() == sub.fingerprint()

            assert sub.events == reference.events
            assert sub.listeners() == reference.listeners()
            assert sub.to_dict() == reference.to_dict()
            assert json.dumps(sub.to_dict()) == json.dumps(
                reference.to_dict()
            )
            assert sub == reference
            assert clone == reference
            assert len(sub) == len(reference)
            assert shm_sub.fingerprint() == sub.fingerprint()
            assert shm_sub == reference


class TestLazyListenerEvents:
    def test_batched_federated_run_never_builds_listener_events(
        self, monkeypatch
    ):
        instance = _instance()
        trace = _listener_trace(instance, 4_000)
        built: list = []
        original = federation._subtrace_from_plan

        def record(plan):
            sub = original(plan)
            built.append((plan.shard, sub))
            return sub

        monkeypatch.setattr(federation, "_subtrace_from_plan", record)
        report = FederatedBroadcastService(
            instance,
            trace,
            shards=4,
            rebalance_threshold=1.5,
        ).run()
        assert report.listeners == len(trace.listeners())
        assert len(built) == 4
        for shard, sub in built:
            assert _is_lazy(sub), shard

    def test_pickled_plan_costs_about_its_columns(self):
        instance = _instance()
        trace = _listener_trace(instance, 240_000, seed=9)
        service = FederatedBroadcastService(instance, trace, shards=2)
        plans, _ = service._shard_plans(service.route())
        plan = max(plans, key=lambda p: p.columns[0].size)
        assert plan.columns[0].size >= 100_000
        column_bytes = sum(col.nbytes for col in plan.columns)
        catalog_bytes = len(pickle.dumps(plan.catalog_events))
        payload = len(pickle.dumps(plan))
        assert payload <= 1.25 * (column_bytes + catalog_bytes), (
            payload, column_bytes, catalog_bytes,
        )

    def test_coalescing_batched_replay_matches_event_built_trace(self):
        instance = _instance()
        trace = generate_mutation_trace(
            instance, seed=3, horizon=96, mutations=30, listeners=400
        )
        lazy = MutationTrace.presorted(
            trace.horizon,
            trace.columns(),
            trace.mutations(),
            trace.meta,
            fingerprint=trace.fingerprint(),
        )

        def replay(source):
            return LiveBroadcastService(
                instance,
                source,
                coalesce_window=4,
            ).run()

        a, b = replay(trace), replay(lazy)
        assert a.counters["events_coalesced"] > 0
        assert a.as_dict() == b.as_dict()
        assert a.event_log_json() == b.event_log_json()
        assert _is_lazy(lazy)


_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_federated_replay_never_imports_numpy_ma():
    """A cold interpreter replays a 4-shard churn federation without
    importing ``numpy.ma`` (``np.unique`` pulls it in on first use)."""
    script = textwrap.dedent(
        """
        import sys

        from repro.core.pages import instance_from_counts
        from repro.federation import FederatedBroadcastService
        from repro.workload.mutations import generate_mutation_trace

        instance = instance_from_counts(
            (10,) * 8, tuple(4 * 2**i for i in range(8))
        )
        trace = generate_mutation_trace(
            instance, seed=3, horizon=128, mutations=60, listeners=600
        )
        report = FederatedBroadcastService(
            instance, trace, shards=4, rebalance_threshold=1.5
        ).run()
        assert report.counters["batched_listeners"] == 600, report.counters
        assert "numpy.ma" not in sys.modules
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(_SRC), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
