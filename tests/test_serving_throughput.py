"""Tests for the million-listener serving fast paths.

Three fast paths, each pinned to its reference semantics:

* **Batched listener replay** — :meth:`LiveBroadcastService.run` must
  produce the same programs, admission verdicts, SLO statistics (the
  wait total bit for bit) and counters as the event-by-event walk
  :func:`repro.oracles.live_sequential`, whichever wait kernel answers
  and however segments are chunked; an index builds its dense wait
  table only once the queries it has answered pay for building it.
* **Mutation coalescing** — a coalesced replay must equal an
  event-by-event replay of the *net* trace (the same windowed fold,
  applied independently here), as long as the budget is ample; taut
  budgets make net operations depend on admission verdicts, which is
  why the equivalence property is stated under ample budget and taut
  runs are pinned by determinism instead.
* **Pooled sweep cells and measurement backends** — the pool and its
  lazy submission window never change which outcomes come back (list
  identity with a serial run for every pool width), ``scalar`` is the
  one measurement backend, and an open circuit short-circuits cells
  that were never submitted.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.core.pages import instance_from_counts
from repro.core.program import AppearanceIndex
from repro.engine.executor import (
    CellFailure,
    CellResult,
    CellSpec,
    ExecutionPolicy,
    run_cells,
)
from repro.engine.registry import get_scheduler
from repro.live import service as live_service
from repro.live.mutations import MutationEvent, MutationTrace
from repro.live.service import LiveBroadcastService
from repro.oracles import live_sequential
from repro.workload.mutations import generate_mutation_trace

#: Ample channel budget for the (2, 3, 2) x (2, 4, 8) instance: every
#: mutation the generator can draw fits, so admission never rejects.
AMPLE_BUDGET = 12


def _initial_instance():
    return instance_from_counts((2, 3, 2), (2, 4, 8))


def _run(instance, trace, **kwargs):
    kwargs.setdefault("budget", AMPLE_BUDGET)
    return LiveBroadcastService(instance, trace, **kwargs).run()


def _comparable(report):
    """The cross-mode comparable surface of a LiveReport."""
    return {
        "program": report.program,
        "catalog": dict(report.catalog),
        "final_required": report.final_required,
        "final_valid": report.final_valid,
        "decisions": [d.as_dict() for d in report.decisions],
        "admission": dict(report.admission),
        "listeners": report.counters["listeners"],
        "misses": report.counters["misses"],
        "slo_replans": report.counters["slo_replans"],
        "full_replans": report.counters["full_replans"],
    }


def _assert_matches_oracle(batched, event):
    """``batched`` (a :meth:`run` report) equals ``event`` (an
    :func:`live_sequential` report) field for field, up to the event
    log's listener entries and the ``batched_listeners`` counter.

    Non-listener log entries must agree in order, and each
    ``listener_batch`` entry must stand exactly where the oracle logs a
    run of ``listener`` entries, summarising that run.
    """
    for field in dataclasses.fields(event):
        if field.name in ("counters", "event_log"):
            continue
        assert getattr(batched, field.name) == getattr(event, field.name), (
            field.name
        )
    counters = dict(batched.counters)
    assert counters.pop("batched_listeners") == counters["listeners"]
    expected_counters = dict(event.counters)
    assert expected_counters.pop("batched_listeners") == 0
    assert counters == expected_counters
    runs: list = []
    for entry in event.event_log:
        if entry["type"] != "listener":
            runs.append(entry)
        elif runs and isinstance(runs[-1], list):
            runs[-1].append(entry)
        else:
            runs.append([entry])
    assert len(batched.event_log) == len(runs)
    for entry, expected in zip(batched.event_log, runs):
        if not isinstance(expected, list):
            assert entry == expected
            continue
        assert entry["type"] == "listener_batch", entry
        served = [e["wait"] for e in expected if e["wait"] is not None]
        assert entry["count"] == len(expected)
        assert entry["first_time"] == expected[0]["t"]
        assert entry["last_time"] == expected[-1]["t"]
        assert entry["served"] == len(served)
        assert entry["misses"] == sum(e["miss"] for e in expected)
        assert entry["wait_total"] == pytest.approx(sum(served), abs=1e-6)


@st.composite
def replay_cases(draw):
    seed = draw(st.integers(0, 10_000))
    horizon = draw(st.integers(16, 96))
    mutations = draw(st.integers(0, 20))
    listeners = draw(st.integers(1, 120))
    return seed, horizon, mutations, listeners


@contextlib.contextmanager
def _counting_wait_tables():
    """Record every dense wait table built (its index), while active."""
    original = AppearanceIndex.__dict__["_wait_lut"]
    built = []

    def counting(index):
        table = original.func(index)
        if table is not None:
            built.append(index)
        return table

    wrapper = functools.cached_property(counting)
    wrapper.__set_name__(AppearanceIndex, "_wait_lut")
    with mock.patch.object(AppearanceIndex, "_wait_lut", wrapper):
        yield built


@contextlib.contextmanager
def _wait_kernel(mode):
    """Force the listener wait kernel: ``never``/``always`` a table, or
    the computed ``rule``."""
    if mode == "never":
        patch = mock.patch.object(AppearanceIndex, "_WAIT_LUT_MAX_CELLS", 0)
    elif mode == "always":
        patch = mock.patch.object(
            AppearanceIndex, "_wait_table", lambda index, _: index._wait_lut
        )
    else:
        patch = contextlib.nullcontext()
    with patch:
        yield


@contextlib.contextmanager
def _replay_chunks(chunks):
    """Scan listener segments in the default or in 1..4-wide chunks."""
    if chunks == "default":
        yield
        return
    with mock.patch.object(live_service, "_CHUNK_MIN", 1), \
            mock.patch.object(live_service, "_CHUNK_MAX", 4):
        yield


class TestBatchedListenerReplay:
    @settings(max_examples=20, deadline=None)
    @given(
        case=replay_cases(),
        taut=st.booleans(),
        window=st.one_of(st.just(0), st.integers(1, 8)),
    )
    def test_batched_replay_matches_event_by_event(self, case, taut, window):
        """The batched run equals the event-by-event oracle bit for bit,
        including mid-batch SLO replans and coalescing flushes.

        ``taut=True`` drops the budget to the initial catalog's
        Theorem-3.1 requirement, so admission rejections and queueing
        interleave with the batches — the equality must survive that
        too (batching only groups *listeners*, never decisions).  Every
        example replays under each wait kernel (never a table, always
        one, or the computed rule) and each chunking (default, or 1..4
        wide), so every combination meets every trace.
        """
        seed, horizon, mutations, listeners = case
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        budget = 2 if taut else AMPLE_BUDGET
        kwargs = dict(budget=budget, coalesce_window=window)
        reference = LiveBroadcastService(instance, trace, **kwargs)
        event = live_sequential(reference)
        assert event.counters["batched_listeners"] == 0
        for kernel in ("never", "always", "rule"):
            for chunks in ("default", "tiny"):
                with _wait_kernel(kernel), _replay_chunks(chunks), \
                        _counting_wait_tables() as built:
                    service = LiveBroadcastService(
                        instance, trace, **kwargs
                    )
                    batched = service.run()
                mode = (kernel, chunks)
                if kernel == "never":
                    assert not built, mode
                elif kernel == "always" and service.slo.served:
                    # (Off-air listeners, e.g. a page still held in a
                    # coalescing window, ask the kernel nothing.)
                    assert built, mode
                _assert_matches_oracle(batched, event)
                assert service.slo.total_wait == (
                    reference.slo.total_wait
                ), mode

    def test_batched_replay_is_deterministic(self):
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance, seed=9, horizon=48, mutations=6, listeners=90
        )
        first = _run(instance, trace)
        second = _run(instance, trace)
        assert first.event_log == second.event_log
        assert first.program == second.program


def _table_price(index):
    """Queries after which ``index`` builds its wait table."""
    return index._wait_table_price


class TestWaitKernelRule:
    """An index builds its wait table once the queries it has answered
    reach the table's build cost, and never before."""

    def test_churn_sized_replay_builds_no_table(self):
        from repro.federation import FederatedBroadcastService

        # The 320-page, 8-rung ladder under catalog churn: a mutation
        # drops the index every few listeners.
        instance = instance_from_counts(
            (40,) * 8, tuple(4 * 2**i for i in range(8))
        )
        trace = generate_mutation_trace(
            instance, seed=3, horizon=256, mutations=250, listeners=1_000
        )
        with _counting_wait_tables() as built:
            report = FederatedBroadcastService(
                instance,
                trace,
                shards=4,
                seed=0,
                rebalance_threshold=1.5,
                max_pages_moved=4,
            ).run()
        assert report.counters["batched_listeners"] == 1_000
        assert built == []

    def test_a_table_sized_batch_builds_one_table_per_index(self):
        import numpy as np

        from repro.analysis.vectorized import batch_waits

        programs = [
            get_scheduler("pamad")(_initial_instance(), channels).program
            for channels in (2, 3)
        ]
        with _counting_wait_tables() as built:
            indexes = [
                AppearanceIndex.from_program(program) for program in programs
            ]
            for index in indexes:
                price = _table_price(index)
                zeros = np.zeros(price - 1, dtype=np.int64)
                batch_waits(index, zeros, zeros)
                assert built.count(index) == 0
                batch_waits(index, [0], [0.5])
                assert built.count(index) == 1
            for index in indexes:
                zeros = np.zeros(3 * _table_price(index), dtype=np.int64)
                batch_waits(index, zeros, zeros)
            assert built == indexes
            # A listener replay whose one segment holds more listeners
            # than any program's table costs.
            instance = _initial_instance()
            trace = generate_mutation_trace(
                instance, seed=4, horizon=48, mutations=0, listeners=1_000
            )
            before = len(built)
            _run(instance, trace)
        replayed = built[before:]
        assert replayed
        assert len({id(index) for index in replayed}) == len(replayed)

    @pytest.mark.parametrize(
        "clone",
        [
            lambda program: pickle.loads(pickle.dumps(program)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_a_pickled_or_copied_program_starts_a_fresh_count(self, clone):
        from repro.analysis.vectorized import batch_waits

        program = get_scheduler("pamad")(_initial_instance(), 2).program
        index = AppearanceIndex.from_program(program)
        price = _table_price(index)
        batch_waits(index, [0] * (price - 1), [0.0] * (price - 1))
        with _counting_wait_tables() as built:
            fresh = AppearanceIndex.from_program(clone(program))
            assert fresh is not index
            batch_waits(fresh, [0], [0.0])
            assert built == []
            # ``BroadcastProgram.copy`` shares the index, count included.
            shared = AppearanceIndex.from_program(program.copy())
            assert shared is index
            batch_waits(shared, [0], [0.0])
            assert built == [index]


def _fold_window(pending, catalog, flush_time):
    """Independent re-statement of the service's windowed net fold.

    Replays a buffered burst per page against its pre-window membership
    (invalid mid-sequence ops dropped) and emits only the initial ->
    final difference at ``flush_time``, ordered by ``(kind, page_id)``
    — then applies it to the shadow ``catalog``.
    """
    initial: dict[int, int | None] = {}
    final: dict[int, int | None] = {}
    order: list[int] = []
    for event in pending:
        page_id = event.page_id
        if page_id not in initial:
            before = catalog.get(page_id)
            initial[page_id] = before
            final[page_id] = before
            order.append(page_id)
        state = final[page_id]
        if event.kind == "page_insert":
            if state is None:
                final[page_id] = event.expected_time
        elif event.kind == "page_remove":
            if state is not None:
                final[page_id] = None
        else:
            if state is not None:
                final[page_id] = event.expected_time
    net = []
    for page_id in order:
        before, after = initial[page_id], final[page_id]
        if before == after:
            continue
        if before is None:
            net.append(MutationEvent(
                time=flush_time, kind="page_insert",
                page_id=page_id, expected_time=after,
            ))
        elif after is None:
            net.append(MutationEvent(
                time=flush_time, kind="page_remove", page_id=page_id,
            ))
        else:
            net.append(MutationEvent(
                time=flush_time, kind="page_retune",
                page_id=page_id, expected_time=after,
            ))
        if after is None:
            catalog.pop(page_id, None)
        else:
            catalog[page_id] = after
    net.sort(key=lambda e: (e.kind, e.page_id))
    return net


def _net_trace(trace, window, initial_catalog):
    """The trace a coalescing service effectively replays.

    Mutations are folded window-by-window into net operations stamped
    at the flush time; listeners pass through untouched.  The horizon
    is extended when the trailing window closes past the original one
    (the runtime applies that flush after the loop drains).
    """
    catalog = dict(initial_catalog)
    events: list[MutationEvent] = []
    pending: list[MutationEvent] = []
    window_end = None

    def flush():
        nonlocal pending, window_end
        if pending:
            events.extend(_fold_window(pending, catalog, window_end))
        pending, window_end = [], None

    for event in trace.events:
        if event.kind == "listener":
            events.append(event)
            continue
        if window_end is not None and event.time > window_end:
            flush()
        if window_end is None:
            window_end = event.time + window
        pending.append(event)
    last_end = window_end
    flush()
    horizon = trace.horizon
    if last_end is not None:
        horizon = max(horizon, int(last_end) + 1)
    return MutationTrace(horizon=horizon, events=tuple(events))


@st.composite
def coalescing_cases(draw):
    seed = draw(st.integers(0, 10_000))
    horizon = draw(st.integers(16, 96))
    mutations = draw(st.integers(1, 24))
    listeners = draw(st.integers(0, 40))
    window = draw(st.integers(1, 8))
    return seed, horizon, mutations, listeners, window


class TestMutationCoalescing:
    @settings(max_examples=20, deadline=None)
    @given(case=coalescing_cases())
    def test_coalesced_replay_equals_net_trace_replay(self, case):
        """The coalescing equivalence property (ample budget).

        A coalesced run of the raw trace must equal an event-by-event
        run of the independently folded net trace: same final grid,
        same admission decisions, same SLO outcome.  Ample budget is
        load-bearing — under a taut budget the net fold would need the
        service's own admission verdicts to know the pre-window catalog,
        making the statement circular.
        """
        seed, horizon, mutations, listeners, window = case
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        initial_catalog = {
            page.page_id: page.expected_time
            for group in instance.groups
            for page in group.pages
        }
        net = _net_trace(trace, window, initial_catalog)
        coalesced = _run(instance, trace, coalesce_window=window)
        replayed = _run(instance, net)
        assert _comparable(coalesced) == _comparable(replayed)
        assert coalesced.slo == replayed.slo
        assert coalesced.counters["events_coalesced"] == len(
            trace.mutations()
        )
        assert coalesced.counters["replans_avoided"] == (
            len(trace.mutations()) - len(net.mutations())
        )

    @settings(max_examples=10, deadline=None)
    @given(case=coalescing_cases())
    def test_taut_budget_coalescing_is_deterministic(self, case):
        """Under a taut budget the equivalence above cannot be stated
        independently, but the replay contract still holds: identical
        inputs give byte-identical event logs."""
        seed, horizon, mutations, listeners, window = case
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        first = _run(instance, trace, budget=2, coalesce_window=window)
        second = _run(instance, trace, budget=2, coalesce_window=window)
        assert first.event_log == second.event_log
        assert first.program == second.program

    def test_insert_remove_within_window_cancels(self):
        instance = _initial_instance()
        trace = MutationTrace(
            horizon=32,
            events=(
                MutationEvent(time=4.0, kind="page_insert",
                              page_id=99, expected_time=4),
                MutationEvent(time=5.0, kind="page_remove", page_id=99),
            ),
        )
        report = _run(instance, trace, coalesce_window=4)
        assert 99 not in report.catalog
        assert report.decisions == ()  # nothing survived the fold
        assert report.counters["events_coalesced"] == 2
        assert report.counters["replans_avoided"] == 2

    def test_retunes_within_window_collapse_to_last(self):
        instance = _initial_instance()
        page = next(
            p.page_id for g in instance.groups for p in g.pages
        )
        trace = MutationTrace(
            horizon=32,
            events=(
                MutationEvent(time=4.0, kind="page_retune",
                              page_id=page, expected_time=4),
                MutationEvent(time=5.0, kind="page_retune",
                              page_id=page, expected_time=8),
                MutationEvent(time=6.0, kind="page_retune",
                              page_id=page, expected_time=4),
            ),
        )
        report = _run(instance, trace, coalesce_window=6)
        assert report.catalog[page] == 4
        assert len(report.decisions) == 1
        assert report.decisions[0].kind == "page_retune"
        assert report.counters["replans_avoided"] == 2

    def test_trailing_window_flushes_after_the_horizon(self):
        instance = _initial_instance()
        trace = MutationTrace(
            horizon=16,
            events=(
                MutationEvent(time=14.0, kind="page_insert",
                              page_id=99, expected_time=8),
            ),
        )
        report = _run(instance, trace, coalesce_window=1000)
        assert report.catalog[99] == 8
        assert report.counters["events_coalesced"] == 1

    def test_window_must_be_non_negative(self):
        instance = _initial_instance()
        trace = generate_mutation_trace(instance, seed=0, horizon=16)
        with pytest.raises(SimulationError, match="coalesce_window"):
            LiveBroadcastService(
                instance, trace, budget=AMPLE_BUDGET, coalesce_window=-1
            )


class TestMeasurementBackends:
    def test_dispatch_matches_direct_calls(self):
        from repro.sim.clients import measure_program, measure_with_backend

        instance = _initial_instance()
        program = get_scheduler("pamad")(instance, 2).program
        scalar = measure_with_backend(
            program, instance, num_requests=400, seed=3, backend="scalar"
        )
        reference = measure_program(
            program, instance, num_requests=400, seed=3
        )
        assert repr(scalar) == repr(reference)
        # The batch backend drew a second, numpy request stream; it is
        # gone, and asking for it says so.
        with pytest.raises(SimulationError, match="batch.*removed"):
            measure_with_backend(
                program, instance, num_requests=400, seed=3, backend="batch"
            )

    def test_unknown_backend_is_rejected(self):
        from repro.sim.clients import measure_with_backend

        instance = _initial_instance()
        program = get_scheduler("pamad")(instance, 2).program
        with pytest.raises(SimulationError, match="backend"):
            measure_with_backend(program, instance, backend="bogus")


def _outcome_key(outcome):
    """Deterministic identity of a cell outcome (wall times excluded)."""
    if isinstance(outcome, CellResult):
        point = outcome.point
        return (
            "ok",
            point.algorithm,
            point.channels,
            point.analytic_delay,
            point.simulated_delay,
            point.miss_ratio,
            point.cycle_length,
            outcome.attempts,
        )
    return (
        "fail",
        outcome.algorithm,
        outcome.channels,
        outcome.error_type,
        outcome.attempts,
        outcome.circuit_open,
    )


def _grid_specs(count=8, num_requests=120):
    instance = _initial_instance()
    specs = []
    for index in range(count):
        algorithm = "pamad" if index % 2 == 0 else "m-pb"
        specs.append(CellSpec(
            algorithm=algorithm,
            scheduler=get_scheduler(algorithm),
            channels=1 + index % 4,
            instance=instance,
            num_requests=num_requests,
            seed=4_000 + index,
        ))
    return specs


class TestChunkedSweepExecution:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_chunked_pool_is_list_identical_to_serial(self, workers):
        """The pool and its lazy submission window never change which
        outcomes come back, for every pool width."""
        specs = _grid_specs()
        serial, _ = run_cells(specs, workers=1, mode="serial")
        pooled, report = run_cells(specs, workers=workers, mode="thread")
        assert [_outcome_key(o) for o in pooled] == [
            _outcome_key(o) for o in serial
        ]
        assert report.fallback is False

    def test_chunked_process_pool_matches_serial(self):
        # The run must really use the pool and the shm post: a silent
        # serial fallback would make both sides the same code.
        specs = _grid_specs()
        serial, _ = run_cells(specs, workers=1, mode="serial")
        pooled, report = run_cells(specs, workers=3, mode="process")
        assert [_outcome_key(o) for o in pooled] == [
            _outcome_key(o) for o in serial
        ]
        assert report.mode == "process"
        assert report.fallback is False
        assert report.transport == "shm"

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_open_breaker_short_circuits_unsubmitted_cells(self, mode):
        """Cells behind an open circuit are never executed (in pool
        modes, never submitted) — they fail structurally with zero
        attempts instead of burning pool work."""
        def explode(instance, channels):
            raise ValueError("scheduler crash")

        instance = _initial_instance()
        specs = [
            CellSpec(
                algorithm="explode",
                scheduler=explode,
                channels=1 + index % 3,
                instance=instance,
                num_requests=50,
                seed=index,
            )
            for index in range(12)
        ]
        policy = ExecutionPolicy(
            retries=0,
            backoff=0.0,
            breaker_threshold=3,
        )
        outcomes, report = run_cells(
            specs, workers=2, mode=mode, policy=policy
        )
        assert report.mode == mode
        assert all(isinstance(o, CellFailure) for o in outcomes)
        skipped = [o for o in outcomes if o.attempts == 0]
        assert report.breaker_trips == 1
        assert report.short_circuited == len(skipped) > 0
        assert all(o.circuit_open for o in skipped)
        assert all(o.error_type == "CircuitOpen" for o in skipped)
        assert report.cell_failures == len(specs)


class TestServeManifest:
    def test_live_manifest_records_serving_parameters_and_counters(self):
        from repro.engine.facade import BroadcastEngine

        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance, seed=3, horizon=48, mutations=6, listeners=40
        )
        result = BroadcastEngine().live(
            instance,
            trace,
            budget=AMPLE_BUDGET,
            coalesce_window=2,
        )
        manifest = result.manifest.to_dict()
        assert manifest["parameters"]["coalesce_window"] == 2
        counters = manifest["service"]["counters"]
        assert counters["batched_listeners"] == counters["listeners"] > 0
        assert counters["events_coalesced"] == 6
        assert counters["replans_avoided"] >= 0


class TestServingCli:
    def test_live_flags_report_serving_counters(self, capsys):
        from repro.cli import main

        code = main([
            "live", "--sizes", "2,3,2", "--times", "2,4,8",
            "--budget", "12", "--seed", "3", "--mutations", "6",
            "--listeners", "30", "--coalesce-window", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving:" in out
        assert "re-plans avoided" in out

    def test_live_flags_match_event_by_event_output_shape(self, capsys):
        from repro.cli import main

        assert main([
            "live", "--sizes", "2,3,2", "--times", "2,4,8",
            "--budget", "12", "--seed", "3", "--mutations", "6",
            "--listeners", "30",
        ]) == 0
        plain = capsys.readouterr().out
        assert "serving:" not in plain
