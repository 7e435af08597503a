"""Columnar routing against its sequential oracle, and the speed
machinery.

The columnar router is a pure performance optimisation: listeners are
resolved to shards in vectorised passes instead of one Python iteration
each, sub-traces are assembled by stable merge through
``MutationTrace.presorted`` and fingerprinted columnarly.  None of that
may change the routing or a single byte of the resulting
:class:`~repro.federation.service.FederationReport`:

* **Property (hypothesis)** — over random catalogs, taut budgets,
  orphan-listener traces and rebalance storms,
  ``FederatedBroadcastService.route()`` equals
  :func:`repro.oracles.route_sequential` field by field, and
  :func:`repro.oracles.federate_sequential` emits a byte-identical
  ``as_dict()`` document.
* **Sparse location path** — with the dense page→shard table capped
  off, routing still equals the oracle and the report is
  byte-identical to the dense path's.
* **Transport equivalence** — the shared-memory fan-out, the pickle
  fan-out and the inline serial replay all produce the same report.
* **Warm pool** — repeated runs through one persistent
  :class:`~repro.engine.executor.TaskPool` stay deterministic.
* **Regression: drains_deferred** — queue drains deferred at the end
  of the horizon are counted once per queued page, not once per queue
  snapshot per trigger.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.core.pages import instance_from_counts
from repro.engine.executor import TaskPool
from repro.federation import FederatedBroadcastService
from repro.federation import service as federation_service
from repro.federation.service import _RouterState
from repro.live.mutations import MutationEvent, MutationTrace
from repro.oracles import federate_sequential, route_sequential
from repro.workload.mutations import generate_mutation_trace


def _instance(counts=(4, 4, 4, 4), ladder=(4, 8, 16, 32)):
    return instance_from_counts(counts, ladder)


def _trace(instance, *, listeners=120, mutations=24, horizon=96, seed=2):
    return generate_mutation_trace(
        instance,
        seed=seed,
        horizon=horizon,
        mutations=mutations,
        listeners=listeners,
    )


def _service(*, trace=None, instance=None, **kwargs):
    instance = instance or _instance()
    trace = trace if trace is not None else _trace(instance)
    defaults = dict(shards=2, seed=0)
    defaults.update(kwargs)
    return FederatedBroadcastService(instance, trace, **defaults)


def _report(**kwargs):
    return _service(**kwargs).run()


def _dumps(report):
    return json.dumps(report.as_dict(), sort_keys=True)


def _assert_matches_oracle(**kwargs):
    """``route()`` equals the sequential oracle field by field, and the
    oracle's full run reproduces ``run()`` byte for byte."""
    columnar = _service(**kwargs).route()
    sequential = route_sequential(_service(**kwargs))
    assert np.array_equal(
        columnar.listener_shard, sequential.listener_shard
    )
    assert columnar.decisions == sequential.decisions
    assert columnar.rebalances == sequential.rebalances
    assert columnar.routing == sequential.routing
    assert columnar.catalog_events == sequential.catalog_events
    assert (
        columnar.controller.as_dict() == sequential.controller.as_dict()
    )
    fast = _report(**kwargs)
    reference = federate_sequential(_service(**kwargs))
    assert _dumps(fast) == _dumps(reference)
    return fast


#: Orphan listeners :func:`_orphan_trace` appends.
_ORPHANS = 5


def _orphan_trace(instance):
    """A short trace plus listeners for pages no shard owns (never
    inserted), which take the expected-time fallback."""
    base = _trace(instance, listeners=40, mutations=8, horizon=48)
    orphans = tuple(
        MutationEvent(
            time=float(t), kind="listener", page_id=9_000 + t,
            expected_time=8,
        )
        for t in range(3, 3 + 4 * _ORPHANS, 4)
    )
    return MutationTrace(horizon=base.horizon, events=base.events + orphans)


class TestRouterEquivalence:
    def test_basic_byte_identity(self):
        _assert_matches_oracle()

    def test_byte_identity_under_rebalance_storm(self):
        report = _assert_matches_oracle(
            shards=4, rebalance_threshold=1.1, max_pages_moved=8
        )
        assert report.pages_moved > 0

    def test_byte_identity_under_taut_budget(self):
        # budget == the per-shard minimum: admissions queue and reject.
        _assert_matches_oracle(shards=2, budget=2, queue_limit=2)

    def test_byte_identity_with_orphan_listeners(self):
        # Listeners for pages no shard owns (never inserted) take the
        # expected-time fallback — in both routers.
        instance = _instance()
        trace = _orphan_trace(instance)
        report = _assert_matches_oracle(instance=instance, trace=trace)
        assert report.routing["orphan_listeners"] >= _ORPHANS

    def test_byte_identity_with_listeners_after_remove(self):
        # A removed page's later listeners are orphans: the columnar
        # router must forget the page's old location.
        instance = _instance()
        page = next(iter(instance.pages()))
        events = (
            MutationEvent(time=2.0, kind="page_remove", page_id=page.page_id),
        ) + tuple(
            MutationEvent(
                time=float(t), kind="listener", page_id=page.page_id,
                expected_time=page.expected_time,
            )
            for t in (1, 3, 5)
        )
        trace = MutationTrace(horizon=8, events=events)
        report = _assert_matches_oracle(instance=instance, trace=trace)
        assert report.routing["orphan_listeners"] == 2

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_byte_identity_batched_ladder_with_rebalancing(self, shards):
        # An 80-page, 8-rung ladder under catalog churn, each shard at
        # its own Theorem-3.1 minimum, listeners replayed in batches:
        # the columnar router must match the oracle at every shard
        # count, rebalancing moves included.
        instance = _instance(
            counts=(10,) * 8, ladder=tuple(4 * 2**i for i in range(8))
        )
        trace = _trace(
            instance, listeners=800, mutations=60, horizon=128, seed=11
        )
        report = _assert_matches_oracle(
            instance=instance,
            trace=trace,
            shards=shards,
            budget=None,
            rebalance_threshold=1.5,
            max_pages_moved=4,
        )
        assert report.counters["batched_listeners"] == 800
        if shards == 8:
            assert report.pages_moved > 0

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        horizon=st.integers(8, 96),
        mutations=st.integers(0, 32),
        listeners=st.integers(0, 160),
        shards=st.integers(1, 4),
        threshold=st.sampled_from((0.0, 1.1, 1.5, 2.0)),
        budget_slack=st.integers(0, 2),
        queue_limit=st.integers(1, 8),
    )
    def test_property_routers_byte_identical(
        self,
        seed,
        horizon,
        mutations,
        listeners,
        shards,
        threshold,
        budget_slack,
        queue_limit,
    ):
        instance = _instance()
        trace = _trace(
            instance,
            listeners=listeners,
            mutations=mutations,
            horizon=horizon,
            seed=seed,
        )

        _assert_matches_oracle(
            instance=instance,
            trace=trace,
            shards=shards,
            seed=seed,
            rebalance_threshold=threshold,
            max_pages_moved=4,
            queue_limit=queue_limit,
            budget=2 + budget_slack if budget_slack else None,
        )


class TestSparseLocationPath:
    """Page-id spaces past ``_LOCATION_LUT_LIMIT`` resolve listeners per
    run through the controller's dict instead of the dense table."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            dict(shards=4, rebalance_threshold=1.1, max_pages_moved=8),
            dict(shards=2, budget=2, queue_limit=2),
        ],
        ids=["basic", "rebalance-storm", "taut"],
    )
    def test_sparse_router_matches_oracle_and_dense_report(
        self, monkeypatch, kwargs
    ):
        dense = _dumps(_report(**kwargs))
        monkeypatch.setattr(federation_service, "_LOCATION_LUT_LIMIT", 0)
        report = _assert_matches_oracle(**kwargs)
        assert _dumps(report) == dense

    def test_sparse_router_with_orphan_listeners(self, monkeypatch):
        instance = _instance()
        trace = _orphan_trace(instance)
        dense = _dumps(_report(instance=instance, trace=trace))
        monkeypatch.setattr(federation_service, "_LOCATION_LUT_LIMIT", 0)
        report = _assert_matches_oracle(instance=instance, trace=trace)
        assert report.routing["orphan_listeners"] >= _ORPHANS
        assert _dumps(report) == dense


class TestBatchListenersKeyword:
    """``batch_listeners`` is accepted only as the no-op ``True``."""

    def test_true_is_a_no_op(self):
        kwargs = dict(shards=4, rebalance_threshold=1.5)
        instance = _instance(
            counts=(10,) * 8, ladder=tuple(4 * 2**i for i in range(8))
        )
        trace = _trace(instance, listeners=400, mutations=40, horizon=128)
        plain = _report(instance=instance, trace=trace, **kwargs)
        kept = _report(
            instance=instance, trace=trace, batch_listeners=True, **kwargs
        )
        assert _dumps(plain) == _dumps(kept)
        assert plain.counters["batched_listeners"] == 400

    @pytest.mark.parametrize("value", [False, 0, 1, None])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(ReproError, match="batch_listeners"):
            _service(batch_listeners=value)


class TestTransports:
    def test_shm_matches_inline(self):
        inline = _report()
        shm = FederatedBroadcastService(
            _instance(), _trace(_instance()), shards=2, seed=0
        ).run(workers=2, mode="process")
        assert inline.transport == "inline"
        assert shm.transport == "shm"
        a, b = inline.as_dict(), shm.as_dict()
        for block in (a, b):
            block.pop("executor", None)
            block.pop("transport")
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_pickle_matches_inline(self, no_shared_memory):
        inline = _report()
        pickled = FederatedBroadcastService(
            _instance(), _trace(_instance()), shards=2, seed=0
        ).run(workers=2, mode="process")
        assert pickled.transport == "pickle"
        a, b = inline.as_dict(), pickled.as_dict()
        for block in (a, b):
            block.pop("executor", None)
            block.pop("transport")
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_thread_mode_stays_inline(self):
        report = FederatedBroadcastService(
            _instance(), _trace(_instance()), shards=2, seed=0
        ).run(workers=2, mode="thread")
        assert report.transport == "inline"

    def test_subtrace_fingerprints_stable_across_transports(self):
        inline = _report()
        shm = FederatedBroadcastService(
            _instance(), _trace(_instance()), shards=2, seed=0
        ).run(workers=2, mode="process")
        assert [r["trace_fingerprint"] for r in inline.shard_reports] == [
            r["trace_fingerprint"] for r in shm.shard_reports
        ]


class TestWarmPool:
    def test_pool_runs_are_deterministic(self):
        with TaskPool(2, mode="process") as pool:
            first = FederatedBroadcastService(
                _instance(), _trace(_instance()), shards=2, seed=0
            ).run(pool=pool)
            second = FederatedBroadcastService(
                _instance(), _trace(_instance()), shards=2, seed=0
            ).run(pool=pool)
        a, b = first.as_dict(), second.as_dict()
        for block in (a, b):
            block.pop("executor", None)
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_pool_matches_serial_reference(self):
        serial = _report()
        with TaskPool(2, mode="process") as pool:
            pooled = FederatedBroadcastService(
                _instance(), _trace(_instance()), shards=2, seed=0
            ).run(pool=pool)
        a, b = serial.as_dict(), pooled.as_dict()
        for block in (a, b):
            block.pop("executor", None)
            block.pop("transport")
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_closed_pool_refuses_runs(self):
        from repro.core.errors import ReproError

        pool = TaskPool(2, mode="process")
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            FederatedBroadcastService(
                _instance(), _trace(_instance()), shards=2, seed=0
            ).run(pool=pool)


class TestDrainsDeferredRegression:
    def test_deferred_pages_counted_once(self):
        """A queue stuck at end-of-horizon defers each page once.

        The old router re-added the whole queue depth on every deferred
        drain trigger, so two triggers over a two-page queue reported
        four deferrals.  The counter now names the number of *pages*
        whose admission never landed.
        """
        service = FederatedBroadcastService(
            _instance(), _trace(_instance()), shards=2, seed=0
        )
        state = _RouterState(service)
        queued = (
            MutationEvent(
                time=1.0, kind="page_insert", page_id=501, expected_time=4
            ),
            MutationEvent(
                time=1.0, kind="page_insert", page_id=502, expected_time=4
            ),
        )
        state.controller._queue.extend(
            (event, 0) for event in queued
        )
        horizon = float(service.trace.horizon)
        state.drain(horizon)  # past the last slot: both defer
        state.drain(horizon)  # a second trigger must not re-count
        state.finish()
        assert state.routing["drains_deferred"] == 2

    def test_end_to_end_deferred_drains_bounded_by_queue(self):
        # With a taut budget and tiny queue, deferred drains can never
        # exceed the number of distinct queued pages.
        report = _report(shards=2, budget=2, queue_limit=3)
        assert report.routing["drains_deferred"] <= 3
