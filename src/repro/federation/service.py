"""Sharded multi-station federation over the live broadcast runtime.

:class:`FederatedBroadcastService` splits one catalog + mutation trace
across N station shards and replays each shard through its own
:class:`~repro.live.service.LiveBroadcastService`.  The replay is two
deterministic phases:

1. **Routing** — one pass over the global trace.  A
   :class:`~repro.federation.ring.ShardRing` pins each ladder group to a
   shard; one :class:`~repro.live.admission.AdmissionController` over a
   :class:`~repro.live.catalog.LiveCatalog` ledger per shard judges
   every catalog mutation against the *federation's* Theorem-3.1
   headroom (home shard first, spill to the least-loaded shard with
   room, one global FIFO queue, reject last); a page lives on the
   shard whose ledger holds it, and listeners follow their page.
   Popularity-drift rebalancing runs in the same pass on the same
   ledgers: when a shard's fractional load exceeds
   ``rebalance_threshold`` times the federation mean, up to
   ``max_pages_moved`` pages migrate to the least-loaded shard —
   emitted as a ``page_remove``/``page_insert`` pair at the next slot,
   the Farach-Colton-style reallocation budget.

   The router is columnar: catalog events (original plus injected
   drains/moves) walk the control loop one at a time, but the listener
   runs between them are routed in vectorised passes over
   :meth:`~repro.live.mutations.MutationTrace.columns` — a dense
   page→shard lookup table filled from the shard ledgers once and
   patched for the pages each catalog event touched, orphans detected
   by mask and resolved through the (memoised) ring.  Per-listener
   Python work drops to zero.  Its oracle,
   :func:`repro.oracles.route_sequential`, walks every event, listener
   arrivals included, through the same control loop; tests hold the
   two to identical routing and byte-identical reports.

2. **Shard replay** — every shard's routed sub-trace replays through a
   :class:`~repro.live.service.LiveBroadcastService` on a *warm*
   per-shard engine (kept module-global, so bench repetitions and
   repeated ``run()`` calls in one process reuse each shard's program
   cache; results are unchanged because schedulers are deterministic
   and cached programs are copied before use).  Sub-traces are
   *columnar*: one stable argsort of the shard column groups the
   listener rows by shard into one :class:`ShardPlan` per shard, and
   the shard task stably merges its slice with its catalog events on
   ``(time, kind, page_id)`` through
   :meth:`~repro.live.mutations.MutationTrace.presorted` — no re-sort,
   no duplicate scan, no JSON fingerprint (the content digest comes
   from :func:`~repro.live.mutations.fingerprint_columns`), and no
   listener event object: the batched replay reads only the columns
   and the catalog events, and ``events`` materialises only when
   something asks for it.

   Fan-out transports (recorded as ``federation.transport``, manifest
   schema v9):

   * ``inline`` — serial/thread replay: each plan's column slices pass
     by reference.
   * ``shm`` — process pools: the shard-grouped listener columns are
     posted once into ``multiprocessing.shared_memory``; each worker
     attaches and slices its shard's rows.  Falls back to ``pickle``
     when shared memory is unavailable.
   * ``pickle`` — each plan's column slices and catalog events are
     pickled with it.

   Pass a persistent :class:`~repro.engine.executor.TaskPool` to
   :meth:`FederatedBroadcastService.run` to keep pool workers (and the
   warm engines and shared-memory attachments they hold) alive across
   runs.  Fan-out never changes results: outcomes are collected in
   shard order and are bit-identical to a serial replay.

Every phase draws randomness from nothing but the ring seed and the
trace, so two runs of the same inputs produce byte-identical reports —
the federation inherits the live layer's replay-determinism contract.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field
from typing import Mapping, Sequence, TYPE_CHECKING

import numpy as np

from repro.core.errors import ReproError, SimulationError
from repro.core.pages import ProblemInstance
from repro.engine.executor import (
    ExecutionPolicy,
    TaskPool,
    _from_shm,
    _ShmPost,
    run_tasks,
)
from repro.federation.ring import ShardRing, place_catalog
from repro.live.admission import AdmissionController, AdmissionDecision
from repro.live.catalog import LiveCatalog
from repro.live.mutations import MutationEvent, MutationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.facade import BroadcastEngine

__all__ = [
    "FEDERATION_TRANSPORTS",
    "FederatedBroadcastService",
    "FederationReport",
    "RoutedTrace",
    "ShardPlan",
    "replay_shard_task",
]

#: Shard fan-out transports recorded in ``federation.transport``.
FEDERATION_TRANSPORTS = ("inline", "shm", "pickle")

#: ``LiveBroadcastService`` counters aggregated across shards.
_AGGREGATED_COUNTERS = (
    "mutations",
    "incremental_repairs",
    "full_replans",
    "fastpath_replans",
    "slo_replans",
    "queue_drains",
    "listeners",
    "misses",
    "batched_listeners",
    "events_coalesced",
    "replans_avoided",
)

#: Dense page→shard lookup tables are capped at this many entries
#: (64 MiB of int64); catalogs with sparser page-id spaces fall back to
#: per-run dictionary resolution, which is slower but allocation-safe.
_LOCATION_LUT_LIMIT = 8_388_608


def _event_sort_key(event: MutationEvent) -> tuple:
    return (event.time, event.kind, event.page_id)


def _admission_block(controller: AdmissionController) -> dict:
    """The ``federation.admission`` block: the controller's summary with
    the shard count after the queue depth and the spill counter last."""
    block = controller.as_dict()
    verdicts = {
        name: block.pop(name)
        for name in ("admitted", "drained", "queued", "rejected")
    }
    return {
        **block,
        "shards": len(controller.ledgers),
        **verdicts,
        "spilled": int(controller.counters["spilled"]),
    }


# ----------------------------------------------------------------------
# Shard plans (the fan-out payloads)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """One shard's routed workload — the unit the fan-out executes.

    The shard's listener rows ride either inline as ``columns`` (its
    ``(times, page_ids, expected)`` slices, passed by reference on
    serial/thread replay and pickled at about their bytes on process
    pools) or in a shared-memory post ``shm = (name, size)`` holding the
    whole federation's shard-grouped columns.  ``catalog_events`` (a few
    hundred at most) are sorted by ``(time, kind, page_id)``.  The
    worker builds the columnar sub-trace with
    :func:`_subtrace_from_plan`.
    """

    shard: int
    initial: tuple[tuple[int, int], ...]
    budget: int
    admission: bool
    queue_limit: int
    slo_window: int
    target_miss_rate: float
    replan_cooldown: int
    horizon: int
    meta: Mapping[str, object]
    catalog_events: tuple[MutationEvent, ...]
    columns: tuple | None = None
    shm: tuple[str, int] | None = None


# ----------------------------------------------------------------------
# Sub-trace assembly (runs in the shard task)
# ----------------------------------------------------------------------


def _assemble_subtrace(
    horizon: int,
    meta: Mapping[str, object],
    catalog_events: Sequence[MutationEvent],
    lt,
    lp,
    le,
) -> MutationTrace:
    """Build one shard's columnar sub-trace without re-validating.

    ``lt``/``lp``/``le`` are the shard's listener times, page ids and
    expected times in trace order; ``catalog_events`` must already be
    sorted by ``(time, kind, page_id)``.  The stable merge reproduces
    the order the validating constructor would compute: at a shared
    timestamp ``"listener"`` sorts before every catalog kind, so each
    catalog event lands *after* all listeners at or before its time
    (``searchsorted`` side ``right``).  The merged columns go through
    :meth:`~repro.live.mutations.MutationTrace.presorted`, which builds
    no listener event and computes the fingerprint from the columns.
    """
    lc = len(catalog_events)
    n = int(lt.shape[0]) + lc
    is_listener = np.ones(n, dtype=bool)
    m_times = np.empty(n, dtype=np.float64)
    m_pages = np.empty(n, dtype=np.int64)
    m_expected = np.empty(n, dtype=np.int64)
    if lc:
        ct = np.fromiter(
            (event.time for event in catalog_events), np.float64, lc
        )
        positions = np.searchsorted(lt, ct, side="right")
        positions += np.arange(lc, dtype=positions.dtype)
        is_listener[positions] = False
        m_times[positions] = ct
        m_pages[positions] = np.fromiter(
            (event.page_id for event in catalog_events), np.int64, lc
        )
        m_expected[positions] = np.fromiter(
            (
                -1 if event.expected_time is None else event.expected_time
                for event in catalog_events
            ),
            np.int64,
            lc,
        )
    m_times[is_listener] = lt
    m_pages[is_listener] = lp
    m_expected[is_listener] = le
    return MutationTrace.presorted(
        horizon,
        (m_times, is_listener, m_pages, m_expected),
        catalog_events,
        meta,
    )


def _subtrace_from_plan(plan: ShardPlan) -> MutationTrace:
    """Build one shard's columnar sub-trace from its plan."""
    if plan.shm is None:
        lt, lp, le = plan.columns
    else:
        times, pages, expected, bounds = _from_shm(*plan.shm)
        lo, hi = bounds[plan.shard], bounds[plan.shard + 1]
        lt, lp, le = times[lo:hi], pages[lo:hi], expected[lo:hi]
    return _assemble_subtrace(
        plan.horizon, plan.meta, plan.catalog_events, lt, lp, le
    )


# ----------------------------------------------------------------------
# Warm shard engines
# ----------------------------------------------------------------------

#: Per-shard engines kept warm for the life of the process (parent for
#: serial/thread replay, each pool worker for process replay).  Reuse
#: is a pure wall-clock win: program-cache keys are content fingerprints
#: and cached programs are copied before the live service edits them,
#: so a warm engine returns exactly what a cold one would compute.
_WARM_ENGINES: dict[int, "BroadcastEngine"] = {}


def _warm_engine(shard: int) -> "BroadcastEngine":
    engine = _WARM_ENGINES.get(shard)
    if engine is None:
        from repro.engine.facade import BroadcastEngine

        engine = BroadcastEngine()
        _WARM_ENGINES[shard] = engine
    return engine


def replay_shard_task(plan: ShardPlan) -> dict:
    """Replay one shard to completion (the executor task entry point).

    Builds the shard's sub-trace and its
    :class:`~repro.live.service.LiveBroadcastService` on the shard's
    warm engine and returns the report's manifest-ready dict (plus the
    shard id) — never the live objects, so the return value pickles back
    across the pool without dragging program grids along.
    """
    from repro.live.service import LiveBroadcastService

    trace = _subtrace_from_plan(plan)
    engine = _warm_engine(plan.shard)
    service = LiveBroadcastService(
        dict(plan.initial),
        trace,
        budget=plan.budget,
        engine=engine,
        admission=plan.admission,
        queue_limit=plan.queue_limit,
        slo_window=plan.slo_window,
        target_miss_rate=plan.target_miss_rate,
        replan_cooldown=plan.replan_cooldown,
    )
    report = service.run()
    summary = report.as_dict()
    summary["shard"] = plan.shard
    return summary


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


@dataclass
class RoutedTrace:
    """Phase-1 output: where every event goes, plus the control trail.

    Attributes:
        controller: The admission controller, final ledgers.
        decisions: Every global admission verdict, in event order.
        rebalances: ``(time, page_id, source, target)`` per move.
        routing: Router accounting counters.
        catalog_events: Per-shard catalog events (original admissions
            plus injected drains/moves), in emit order.
        listener_shard: One entry per parent-trace event — the shard
            each listener was routed to, ``-1`` at non-listener
            positions.
    """

    controller: AdmissionController
    decisions: list[AdmissionDecision]
    rebalances: list[tuple[float, int, int, int]]
    routing: dict[str, int]
    catalog_events: dict[int, list[MutationEvent]]
    listener_shard: "np.ndarray"


class _RouterState:
    """The catalog control path of the router and its oracle.

    Admission verdicts, queue drains and drift rebalancing live here so
    the columnar router and the per-event reference in
    :mod:`repro.oracles` cannot drift apart — they differ only in how
    listener arrivals are resolved to shards.  Dedup (``used_keys``)
    covers catalog and injected events only: listeners are unique by
    the parent trace's own invariant, so keeping one key per routed
    listener (the old behaviour) would cost O(events) memory for no
    protection.
    """

    def __init__(self, service: "FederatedBroadcastService") -> None:
        self.service = service
        self.controller = AdmissionController(
            {
                shard: LiveCatalog(pages)
                for shard, pages in service.partition.items()
            },
            service.budget,
            queue_limit=service.queue_limit,
            enabled=service.admission,
        )
        self.catalog_events: dict[int, list[MutationEvent]] = {
            s: [] for s in service.ring.shards
        }
        self.used_keys: dict[int, set[tuple]] = {
            s: set() for s in service.ring.shards
        }
        self.decisions: list[AdmissionDecision] = []
        self.rebalances: list[tuple[float, int, int, int]] = []
        self.deferred_pages: set[int] = set()
        self.routing = {
            "listeners_routed": 0,
            "orphan_listeners": 0,
            "drain_events": 0,
            "drains_deferred": 0,
            "moves_emitted": 0,
            "moves_skipped_budget": 0,
            "moves_skipped_guard": 0,
        }

    def emit(self, shard: int, event: MutationEvent) -> bool:
        key = (event.time, event.kind, event.page_id)
        if key in self.used_keys[shard]:
            return False
        self.used_keys[shard].add(key)
        self.catalog_events[shard].append(event)
        return True

    def next_slot(self, now: float) -> float | None:
        """The first integer slot strictly after ``now`` (in-horizon).

        Router-injected catalog events (queue drains, rebalance moves)
        land one slot late so they always *follow* every original event
        of the triggering slot in sub-trace sort order — the walk order
        and the replay order stay aligned.
        """
        slot = float(math.floor(now)) + 1.0
        return slot if slot < self.service.trace.horizon else None

    def drain(self, now: float) -> None:
        controller = self.controller
        slot = self.next_slot(now)
        if slot is None:
            # End-of-horizon triggers can fire repeatedly while the same
            # inserts sit in the queue; count each *page* once instead
            # of re-adding the whole queue depth per trigger.
            self.deferred_pages.update(
                event.page_id for event in controller.queued
            )
            return
        for decision in controller.drain(slot):
            self.decisions.append(decision)
            assert decision.shard is not None
            emitted = self.emit(
                decision.shard,
                MutationEvent(
                    time=slot,
                    kind="page_insert",
                    page_id=decision.page_id,
                    expected_time=controller.ledgers[
                        decision.shard
                    ].expected_time(decision.page_id),
                ),
            )
            if emitted:
                self.routing["drain_events"] += 1

    def rebalance(self, now: float) -> None:
        service = self.service
        controller = self.controller
        if not service.rebalance_threshold or service.shards < 2:
            return
        slot = self.next_slot(now)
        if slot is None:
            return
        ledgers = controller.ledgers
        loads = {s: controller.channel_load(s) for s in ledgers}
        mean = sum(loads.values()) / len(loads)
        if mean <= 0.0:
            return
        source = max(loads, key=lambda s: (loads[s], -s))
        if loads[source] <= service.rebalance_threshold * mean:
            return
        target = min(loads, key=lambda s: (loads[s], s))
        moved = 0
        # Heaviest pages first (smallest expected time), page id as
        # the tie-break — a deterministic pick that sheds the most
        # load per unit of reallocation budget.
        candidates = sorted(
            ledgers[source].pages().items(),
            key=lambda item: (item[1], item[0]),
        )
        for page_id, expected in candidates:
            if moved >= service.max_pages_moved:
                self.routing["moves_skipped_budget"] += 1
                break
            if len(ledgers[source]) <= 1:
                self.routing["moves_skipped_guard"] += 1
                break
            if ledgers[target].required_after(add=expected) > service.budget:
                self.routing["moves_skipped_budget"] += 1
                continue
            remove = MutationEvent(
                time=slot, kind="page_remove", page_id=page_id
            )
            insert = MutationEvent(
                time=slot,
                kind="page_insert",
                page_id=page_id,
                expected_time=expected,
            )
            if (
                (slot, "page_remove", page_id) in self.used_keys[source]
                or (slot, "page_insert", page_id) in self.used_keys[target]
            ):
                self.routing["moves_skipped_guard"] += 1
                continue
            self.emit(source, remove)
            self.emit(target, insert)
            ledgers[source].remove(page_id)
            ledgers[target].insert(page_id, expected)
            self.rebalances.append((slot, page_id, source, target))
            self.routing["moves_emitted"] += 1
            moved += 1
            if (
                controller.channel_load(source)
                <= service.rebalance_threshold * mean
            ):
                break

    def handle_catalog(self, event: MutationEvent) -> None:
        """Decide one original catalog event and run its side effects."""
        controller = self.controller
        if event.kind == "page_insert":
            home = self.service._effective_owner(
                int(event.expected_time or 0)
            )
            decision = controller.decide_insert(event, home)
            self.decisions.append(decision)
            if decision.verdict == "admitted":
                assert decision.shard is not None
                self.emit(decision.shard, event)
                self.rebalance(event.time)
        elif event.kind == "page_remove":
            decision = controller.decide_remove(event)
            self.decisions.append(decision)
            if decision.verdict == "admitted":
                assert decision.shard is not None
                self.emit(decision.shard, event)
                self.drain(event.time)
        elif event.kind == "page_retune":
            decision = controller.decide_retune(event)
            self.decisions.append(decision)
            if decision.verdict == "admitted":
                assert decision.shard is not None
                self.emit(decision.shard, event)
                self.drain(event.time)
                self.rebalance(event.time)
        else:  # pragma: no cover - routers never send listeners here
            raise SimulationError(
                f"listener event reached the catalog path: {event}"
            )

    def finish(self) -> None:
        self.routing["drains_deferred"] = len(self.deferred_pages)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FederationReport:
    """Outcome of one :meth:`FederatedBroadcastService.run`.

    Attributes:
        shards: Shard count.
        budget: Per-shard channel budget.
        horizon: Slots replayed.
        seed: Ring placement seed.
        trace_fingerprint: Content digest of the global trace.
        ring_fingerprint: Content digest of the ring's point table.
        group_assignment: ``expected_time -> shard`` effective pinning
            (ring plus empty-shard seeding overrides).
        admission: Global admission summary block.
        decisions: Every global admission verdict, in event order.
        rebalances: ``(time, page_id, source, target)`` for every
            drift-rebalance move, in decision order.
        routing: Router accounting (listeners routed, drains emitted,
            moves skipped against the reallocation budget, ...).
        shard_reports: Per-shard ``LiveReport.as_dict()`` summaries
            (plus ``"shard"``), ascending shard order.
        counters: Shard counters summed across the federation.
        transport: How sub-traces crossed to the shard replays
            (``inline`` / ``shm`` / ``pickle``); manifest schema v9.
        executor: The fan-out's executor block (mode, fallback, ...).
    """

    shards: int
    budget: int
    horizon: int
    seed: int
    trace_fingerprint: str
    ring_fingerprint: str
    group_assignment: Mapping[int, int]
    admission: Mapping[str, object]
    decisions: tuple[AdmissionDecision, ...]
    rebalances: tuple[tuple[float, int, int, int], ...]
    routing: Mapping[str, int]
    shard_reports: tuple[Mapping[str, object], ...]
    counters: Mapping[str, int]
    transport: str = "inline"
    executor: Mapping[str, object] = field(default_factory=dict)

    @property
    def pages_moved(self) -> int:
        return len(self.rebalances)

    @property
    def final_valid(self) -> bool:
        return all(r["final_valid"] for r in self.shard_reports)

    @property
    def listeners(self) -> int:
        return int(self.counters["listeners"])

    @property
    def misses(self) -> int:
        return int(self.counters["misses"])

    def miss_rate(self) -> float:
        listeners = self.listeners
        return (self.misses / listeners) if listeners else 0.0

    def as_dict(self) -> dict:
        """The manifest ``federation`` block (schema v9).

        Only content appears here, never which implementation computed
        it: the per-event reference router in :mod:`repro.oracles` must
        reproduce this block byte for byte (tests and the CI smoke job
        compare the two).
        """
        return {
            "shards": self.shards,
            "budget": self.budget,
            "seed": self.seed,
            "transport": self.transport,
            "ring_fingerprint": self.ring_fingerprint,
            "trace_fingerprint": self.trace_fingerprint,
            "group_assignment": {
                str(group): shard
                for group, shard in sorted(self.group_assignment.items())
            },
            "admission": dict(self.admission),
            "pages_moved": self.pages_moved,
            "rebalances": [
                {
                    "time": time,
                    "page_id": page_id,
                    "source": source,
                    "target": target,
                }
                for time, page_id, source, target in self.rebalances
            ],
            "routing": {k: int(v) for k, v in sorted(self.routing.items())},
            "counters": {
                k: int(v) for k, v in sorted(self.counters.items())
            },
            "final_valid": self.final_valid,
            "shard_reports": [dict(r) for r in self.shard_reports],
        }


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------


class FederatedBroadcastService:
    """Route a mutation trace across N station shards and replay them.

    Args:
        initial: Catalog on air at ``t=0`` — a
            :class:`~repro.core.pages.ProblemInstance` or a plain
            ``page_id -> expected_time`` mapping.  Must span at least
            ``shards`` distinct ladder groups, because groups are the
            pinning granularity (the ring never splits one).
        trace: The global mutation/listener timeline to route.
        shards: Station shard count.
        budget: *Per-shard* channel budget; defaults to the maximum
            Theorem-3.1 requirement over the initial shard partitions
            (every shard taut at t=0).
        seed: Ring placement seed.
        replicas: Virtual ring points per shard.
        rebalance_threshold: Drift trigger — a shard whose fractional
            load exceeds this multiple of the federation mean is
            rebalanced (``0`` disables rebalancing; meaningful values
            are > 1).
        max_pages_moved: Reallocation budget per rebalance trigger.
        admission: Toggle global admission control (shard services
            inherit the flag).
        queue_limit: Global FIFO insert-queue capacity (shard services
            get the same local capacity as a safety net).
        slo_window / target_miss_rate / replan_cooldown: Forwarded to
            every shard's :class:`~repro.live.service.LiveBroadcastService`.
        batch_listeners: Only ``True`` (a no-op; shards always batch)
            is accepted, because the benchmark still passes it; the
            keyword goes with the next benchmark change.
    """

    def __init__(
        self,
        initial: ProblemInstance | Mapping[int, int],
        trace: MutationTrace,
        *,
        shards: int,
        budget: int | None = None,
        seed: int = 0,
        replicas: int = 64,
        rebalance_threshold: float = 0.0,
        max_pages_moved: int = 4,
        admission: bool = True,
        queue_limit: int = 16,
        slo_window: int = 64,
        target_miss_rate: float = 0.05,
        replan_cooldown: int = 8,
        batch_listeners: bool = True,
    ) -> None:
        if batch_listeners is not True:
            raise ReproError(
                "batch_listeners must be True: every shard replays its "
                f"listeners batched, got {batch_listeners!r}"
            )
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        if rebalance_threshold and rebalance_threshold <= 1.0:
            raise ReproError(
                "rebalance_threshold must be > 1 (or 0 to disable), "
                f"got {rebalance_threshold}"
            )
        if max_pages_moved < 0:
            raise ReproError(
                f"max_pages_moved must be >= 0, got {max_pages_moved}"
            )
        catalog = (
            LiveCatalog(initial).pages()
            if isinstance(initial, ProblemInstance)
            else {int(k): int(v) for k, v in initial.items()}
        )
        if not catalog:
            raise ReproError("federation needs a non-empty catalog")
        groups = sorted({t for t in catalog.values()})
        if shards > len(groups):
            raise ReproError(
                f"shards ({shards}) exceed the catalog's distinct ladder "
                f"groups ({len(groups)}); groups are the pinning "
                "granularity, so reduce --shards or widen the ladder"
            )
        self.trace = trace
        self.shards = shards
        self.seed = int(seed)
        self.ring = ShardRing(shards, seed=seed, replicas=replicas)
        self.rebalance_threshold = float(rebalance_threshold)
        self.max_pages_moved = int(max_pages_moved)
        self.admission = admission
        self.queue_limit = int(queue_limit)
        self.slo_window = int(slo_window)
        self.target_miss_rate = float(target_miss_rate)
        self.replan_cooldown = int(replan_cooldown)

        self._group_overrides, self.partition = place_catalog(
            catalog, self.ring
        )
        self.group_assignment = {
            group: self._effective_owner(group) for group in groups
        }
        if budget is None:
            budget = max(
                LiveCatalog(pages).required_channels()
                for pages in self.partition.values()
            )
        if budget < 1:
            raise SimulationError(f"budget must be >= 1, got {budget}")
        self.budget = int(budget)
        self._max_initial_page = max(catalog)
        self._report: FederationReport | None = None

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _effective_owner(self, group: int) -> int:
        override = self._group_overrides.get(group)
        return override if override is not None else self.ring.owner(group)

    # ------------------------------------------------------------------
    # Phase 1: routing
    # ------------------------------------------------------------------

    def route(self) -> RoutedTrace:
        """Phase 1: vectorised listener runs between catalog events.

        Catalog events walk the control loop one at a time (shared
        :class:`_RouterState`); the listener runs between them resolve
        against a dense page→shard table filled from the shard ledgers
        once and then patched for just the pages the catalog events
        since the last run touched, so a million listeners between two
        mutations cost two ``take``\\ s and a mask.  Trace sort order
        guarantees listeners at time ``t`` precede catalog events at
        ``t``, so run boundaries land exactly where the sequential walk
        would put them.
        """
        state = _RouterState(self)
        events = self.trace.events
        times, is_listener, page_ids, expected = self.trace.columns()
        count = len(events)
        listener_shard = np.full(count, -1, dtype=np.int64)
        max_page = self._max_initial_page
        if count:
            max_page = max(max_page, int(page_ids.max()))
        dense = max_page < _LOCATION_LUT_LIMIT
        loc = (
            np.full(max_page + 1, -1, dtype=np.int64) if dense else None
        )
        locate = state.controller.locate
        if dense:
            for shard, ledger in state.controller.ledgers.items():
                loc[np.fromiter(ledger.pages(), np.int64, len(ledger))] = (
                    shard
                )
        # Pages only change shard through a decision or a move, so a
        # refresh re-locates just the pages those named since the last.
        seen_decisions = seen_moves = 0

        def refresh() -> None:
            nonlocal seen_decisions, seen_moves
            touched = [
                decision.page_id
                for decision in state.decisions[seen_decisions:]
            ]
            touched.extend(
                move[1] for move in state.rebalances[seen_moves:]
            )
            seen_decisions = len(state.decisions)
            seen_moves = len(state.rebalances)
            for page_id in touched:
                shard = locate(page_id)
                loc[page_id] = -1 if shard is None else shard

        def route_run(lo: int, hi: int) -> None:
            pids = page_ids[lo:hi]
            if dense:
                refresh()
                shards_run = loc[pids]
            else:
                unique, inverse = np.unique(pids, return_inverse=True)
                owners = np.fromiter(
                    (
                        -1 if (owner := locate(p)) is None else owner
                        for p in unique.tolist()
                    ),
                    np.int64,
                    unique.size,
                )
                shards_run = owners[inverse]
            orphan = shards_run < 0
            if orphan.any():
                exp = expected[lo:hi][orphan]
                values, inverse = np.unique(exp, return_inverse=True)
                # The expected column stores ``None`` as ``-1``; the
                # sequential fallback is ``int(expected_time or 1)``,
                # which maps both None and 0 to group 1.
                owners = np.fromiter(
                    (
                        self._effective_owner(int(v) if v > 0 else 1)
                        for v in values.tolist()
                    ),
                    np.int64,
                    values.size,
                )
                shards_run[orphan] = owners[inverse]
                state.routing["orphan_listeners"] += int(orphan.sum())
            listener_shard[lo:hi] = shards_run
            state.routing["listeners_routed"] += hi - lo

        cursor = 0
        for cat_index in np.flatnonzero(~is_listener).tolist():
            if cat_index > cursor:
                route_run(cursor, cat_index)
            state.handle_catalog(events[cat_index])
            cursor = cat_index + 1
        if cursor < count:
            route_run(cursor, count)
        state.finish()
        return RoutedTrace(
            controller=state.controller,
            decisions=state.decisions,
            rebalances=state.rebalances,
            routing=state.routing,
            catalog_events=state.catalog_events,
            listener_shard=listener_shard,
        )

    # ------------------------------------------------------------------
    # Phase 2: shard replay
    # ------------------------------------------------------------------

    def _subtrace_meta(self, shard: int) -> dict:
        return {
            "generator": "federation.router",
            "shard": shard,
            "shards": self.shards,
            "parent_fingerprint": self.trace.fingerprint(),
        }

    def _plan_args(self, shard: int) -> dict:
        return {
            "shard": shard,
            "initial": tuple(sorted(self.partition[shard].items())),
            "budget": self.budget,
            "admission": self.admission,
            "queue_limit": self.queue_limit,
            "slo_window": self.slo_window,
            "target_miss_rate": self.target_miss_rate,
            "replan_cooldown": self.replan_cooldown,
        }

    def _shard_plans(
        self, routed: RoutedTrace, shm: bool = False
    ) -> tuple[list[ShardPlan], _ShmPost | None]:
        """Split the listeners by shard once; one plan per shard.

        One stable argsort of the shard column groups the parent's
        listener rows by shard (trace order kept within a shard), so
        each shard's listeners are one contiguous slice of a single
        gather per column: shard ``s`` owns rows ``bounds[s]:bounds[s +
        1]``.  With ``shm`` the grouped columns are posted once into
        shared memory and every plan names the post (the caller closes
        it); otherwise each plan carries its own slices.
        """
        times, _, page_ids, expected = self.trace.columns()
        shard_col = routed.listener_shard
        # Catalog rows carry shard -1: they sort first and are dropped.
        counts = np.bincount(shard_col + 1, minlength=self.shards + 1)
        order = np.argsort(shard_col.astype(np.int16), kind="stable")
        order = order[counts[0]:]
        bounds = [0, *np.cumsum(counts[1:]).tolist()]
        lt, lp, le = times[order], page_ids[order], expected[order]
        post = _ShmPost((lt, lp, le, bounds)) if shm else None
        ref = None if post is None else (post.name, post.size)
        plans = [
            ShardPlan(
                horizon=self.trace.horizon,
                meta=self._subtrace_meta(shard),
                catalog_events=tuple(
                    sorted(routed.catalog_events[shard], key=_event_sort_key)
                ),
                columns=None if ref else tuple(
                    column[bounds[shard]:bounds[shard + 1]]
                    for column in (lt, lp, le)
                ),
                shm=ref,
                **self._plan_args(shard),
            )
            for shard in self.ring.shards
        ]
        return plans, post

    def run(
        self,
        *,
        workers: int = 1,
        mode: str = "serial",
        policy: ExecutionPolicy | None = None,
        telemetry=None,
        pool: TaskPool | None = None,
    ) -> FederationReport:
        """Route, then replay every shard (once per service instance)."""
        return self._replay(
            self.route(),
            workers=workers,
            mode=mode,
            policy=policy,
            telemetry=telemetry,
            pool=pool,
        )

    def _replay(
        self,
        routed: RoutedTrace,
        *,
        workers: int = 1,
        mode: str = "serial",
        policy: ExecutionPolicy | None = None,
        telemetry=None,
        pool: TaskPool | None = None,
    ) -> FederationReport:
        """Phase 2: replay every shard of ``routed``.

        ``workers``/``mode``/``policy`` drive the executor fan-out; a
        persistent :class:`~repro.engine.executor.TaskPool` may be
        passed instead (its mode/width/policy then apply, and its
        workers stay warm across runs).  The report is identical for
        every combination (shard replays are pure), so ``mode="serial"``
        is the reference and pools are a pure wall-clock optimisation.

        Transport: process fan-out ships listeners through one
        shared-memory post, or per-plan pickles when the block cannot be
        made; serial and thread replay pass each shard's column slices
        inline.  The transport that actually ran is recorded in the
        report.
        """
        if self._report is not None:
            raise SimulationError(
                "this federation already ran; build a fresh service "
                "to replay again"
            )
        effective_mode = pool.mode if pool is not None else mode
        effective_workers = (
            pool.workers if pool is not None else workers
        )
        pooled = (
            effective_mode == "process"
            and effective_workers > 1
            and len(self.ring.shards) > 1
        )
        transport = "shm" if pooled else "inline"
        post: _ShmPost | None = None
        try:
            try:
                plans, post = self._shard_plans(routed, shm=pooled)
            except (OSError, pickle.PicklingError):
                transport = "pickle"
                plans, post = self._shard_plans(routed)
            if pool is not None:
                outcomes, report = pool.run(
                    replay_shard_task,
                    plans,
                    policy=policy,
                    telemetry=telemetry,
                )
            else:
                outcomes, report = run_tasks(
                    replay_shard_task,
                    plans,
                    workers=workers,
                    mode=mode,
                    policy=policy,
                    telemetry=telemetry,
                )
        finally:
            if post is not None:
                post.close()
        shard_reports: list[dict] = []
        for plan, outcome in zip(plans, outcomes):
            if isinstance(outcome, dict):
                shard_reports.append(outcome)
            else:
                raise SimulationError(
                    f"shard {plan.shard} replay failed: "
                    f"{outcome.error_type}: {outcome.message}"
                )
        counters = {name: 0 for name in _AGGREGATED_COUNTERS}
        for summary in shard_reports:
            for name in _AGGREGATED_COUNTERS:
                counters[name] += int(summary["counters"][name])
        executor_block = report.as_dict()
        executor_block["workers"] = max(1, int(effective_workers))
        executor_block["transport"] = transport
        self._report = FederationReport(
            shards=self.shards,
            budget=self.budget,
            horizon=self.trace.horizon,
            seed=self.seed,
            trace_fingerprint=self.trace.fingerprint(),
            ring_fingerprint=self.ring.fingerprint(),
            group_assignment=dict(self.group_assignment),
            admission=_admission_block(routed.controller),
            decisions=tuple(routed.decisions),
            rebalances=tuple(routed.rebalances),
            routing=routed.routing,
            shard_reports=tuple(shard_reports),
            counters=counters,
            transport=transport,
            executor=executor_block,
        )
        return self._report
