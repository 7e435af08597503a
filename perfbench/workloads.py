"""The four benchmark workloads.

Each workload makes its inputs from the workload seed (outside every
timer), hands the program only those inputs, and times operations until
the requested measuring time is spent.  Every operation's output is
checked; a failing check counts as a failed operation.

* ``fed_listen`` — one million-listener trace replayed by an 8-shard
  federation, over and over (listener routing and replay).
* ``fed_churn`` — a distinct catalog-churn trace per operation through a
  4-shard federation (admission, repair, re-planning, rebalancing).
* ``control_session`` — closed-loop control-plane sessions over the
  NDJSON unix socket, journaled with ``fsync="always"``.
* ``plan_sweep`` — the paper's Figure 5: PAMAD/m-PB/OPT sweeps over the
  four Figure-3 distributions on a process pool.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The 320-page, 8-rung ladder both federation workloads run on.
LADDER = (4, 8, 16, 32, 64, 128, 256, 512)

#: Full-size parameters, and the tiny ones the smoke test runs.
SIZES = {
    "full": {
        "fed_listen": {"listeners": 1_000_000, "mutations": 100},
        "fed_churn": {"listeners": 1_000, "mutations": 250},
        "control_session": {"writes": 64, "mutations": 16},
        "plan_sweep": {"points": 6, "requests": 3_000, "n": 1_000},
    },
    "tiny": {
        "fed_listen": {"listeners": 3_000, "mutations": 12},
        "fed_churn": {"listeners": 300, "mutations": 40},
        "control_session": {"writes": 6, "mutations": 2},
        "plan_sweep": {"points": 3, "requests": 200, "n": 120},
    },
}

HORIZON = 256
EVENTS_PER_WRITE = 16


@dataclass
class Timed:
    """What one timed phase measured."""

    unit: str
    latencies: list[float] = field(default_factory=list)
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    facts: Counter = field(default_factory=Counter)
    op_walls: list[tuple[int, float]] = field(default_factory=list)
    #: Request kind per operation (control plane only).
    kinds: dict[int, str] = field(default_factory=dict)
    #: Per-sample series: latency by request kind, PAMAD delays, ...
    series: dict[str, list[float]] = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors[reason] += 1

    def sample(self, name: str, values) -> None:
        self.series.setdefault(name, []).extend(values)


#: The calibration loop's median time on the reference host (2-vCPU
#: x86_64 VM, Python 3.11, numpy 2.4).  Gated times are scaled by
#: reference / measured, so a shared host that slows every process
#: alike does not read as a regression.
REFERENCE_CALIBRATION_MS = 3.0


class HostProbe:
    """Times a fixed loop of program-independent work between operations.

    One sample is a pure-Python loop, a numpy sort, an fsync'd 256-byte
    append and 20 unix-socket round trips: the kinds of work the
    workloads wait on.  The median over the run says how fast the shared
    host ran while the workload did; every sample is taken outside the
    operation timers.
    """

    EVERY_S = 0.25

    def __init__(self, workdir: Path) -> None:
        import numpy

        self.data = numpy.random.default_rng(0).random(100_000)
        self.samples: list[float] = []
        self.path = workdir / "probe.bin"
        self._next_busy = 0.0

    def sample(self, count: int = 10) -> None:
        import socket

        import numpy

        for _ in range(count):
            started = time.perf_counter()
            total = 0
            for value in range(20_000):
                total += value * value
            numpy.sort(self.data)
            with open(self.path, "ab") as handle:
                handle.write(b"x" * 256)
                handle.flush()
                os.fsync(handle.fileno())
            left, right = socket.socketpair()
            with left, right:
                for _ in range(20):
                    left.sendall(b"y" * 512)
                    right.recv(4096)
            self.samples.append(time.perf_counter() - started)

    def between_ops(self, busy: float) -> None:
        """Sample once per ``EVERY_S`` of timed work."""
        if busy >= self._next_busy:
            self.sample(3)
            self._next_busy = busy + self.EVERY_S

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3


def nproc() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def ladder_instance(n_per_group: int = 40):
    from repro.core.pages import instance_from_counts

    return instance_from_counts((n_per_group,) * len(LADDER), LADDER)


def reset_warm_engines() -> None:
    """Drop the federation's process-wide warm engines (cold caches)."""
    import repro.federation.service as federation

    getattr(federation, "_WARM_ENGINES", {}).clear()


def open_op(tracer, op: int):
    """Start operation ``op``'s root span (when tracing)."""
    if tracer is None:
        return None
    tracer.op = op
    return tracer.begin("op")


def close_op(tracer, index) -> None:
    if tracer is not None:
        tracer.end(index)
        tracer.harvest()
        tracer.op = None


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------


def listener_trace(instance, seed: int, listeners: int, mutations: int):
    """A seeded churn trace with a vectorised listener population.

    The catalog mutations come from the program's own generator; the
    listeners follow the same rules (uniform arrival in the horizon,
    a page drawn uniformly from the catalog in force at arrival, the
    deadline promised then) but are drawn with numpy, because the
    generator's per-listener loop costs ~20 s per million.
    """
    import numpy as np

    from repro.live.mutations import MutationEvent, MutationTrace
    from repro.workload.mutations import generate_mutation_trace

    base = generate_mutation_trace(
        instance, seed=seed, horizon=HORIZON, mutations=mutations,
        listeners=0,
    )
    shadow = {page.page_id: page.expected_time for page in instance.pages()}
    times, catalogs = [0.0], [dict(shadow)]
    for event in base.events:
        if event.kind == "page_remove":
            del shadow[event.page_id]
        else:
            shadow[event.page_id] = event.expected_time
        if times[-1] == event.time:
            catalogs[-1] = dict(shadow)
        else:
            times.append(event.time)
            catalogs.append(dict(shadow))
    rng = np.random.default_rng(seed)
    arrival = np.round(rng.uniform(0.0, HORIZON - 0.001, listeners), 3)
    epoch = np.searchsorted(np.asarray(times), arrival, side="right") - 1
    draw = rng.random(listeners)
    pages = np.empty(listeners, np.int64)
    promised = np.empty(listeners, np.int64)
    for index, catalog in enumerate(catalogs):
        mask = epoch == index
        ids = np.asarray(sorted(catalog), np.int64)
        deadlines = np.asarray([catalog[i] for i in ids.tolist()], np.int64)
        pick = (draw[mask] * len(ids)).astype(np.int64)
        pages[mask] = ids[pick]
        promised[mask] = deadlines[pick]
    order = np.lexsort((pages, arrival))
    arrival, pages, promised = arrival[order], pages[order], promised[order]
    keep = np.ones(len(arrival), bool)
    keep[1:] = (arrival[1:] != arrival[:-1]) | (pages[1:] != pages[:-1])
    events = [
        MutationEvent(t, "listener", p, e)
        for t, p, e in zip(
            arrival[keep].tolist(),
            pages[keep].tolist(),
            promised[keep].tolist(),
        )
    ]
    trace = MutationTrace(
        horizon=HORIZON,
        events=tuple(base.events) + tuple(events),
        meta=dict(base.meta, listeners=listeners, generator="perfbench"),
    )
    # Memoised on the frozen trace, as every replay of it would.
    trace.fingerprint()
    trace.columns()
    return trace


def churn_trace(instance, seed: int, listeners: int, mutations: int,
                horizon: int = HORIZON):
    from repro.workload.mutations import generate_mutation_trace

    trace = generate_mutation_trace(
        instance, seed=seed, horizon=horizon, mutations=mutations,
        listeners=listeners,
    )
    trace.fingerprint()
    trace.columns()
    return trace


def derived_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


# ----------------------------------------------------------------------
# Federation workloads
# ----------------------------------------------------------------------


def _federation(instance, trace, shards: int):
    from repro.federation.service import FederatedBroadcastService

    return FederatedBroadcastService(
        instance,
        trace,
        shards=shards,
        seed=0,
        rebalance_threshold=1.5,
        max_pages_moved=4,
        batch_listeners=True,
    )


def listener_count(trace) -> int:
    return int(trace.columns()[1].sum())


def _check_federation(report, listeners: int) -> str | None:
    if not report.final_valid:
        return "report not final_valid"
    if report.listeners != listeners:
        return "listeners served != listeners in trace"
    if report.routing["listeners_routed"] != listeners:
        return "listeners routed != listeners in trace"
    if report.routing["orphan_listeners"] > listeners:
        return "more orphans than listeners"
    return None


def _federation_facts(timed: Timed, report) -> None:
    facts = timed.facts
    facts["listeners"] += report.listeners
    facts["misses"] += report.misses
    facts["pages_moved"] += report.pages_moved
    facts["rebalances"] += len({(t, s) for t, _, s, _ in report.rebalances})
    facts["incremental_repairs"] += int(report.counters["incremental_repairs"])
    for name in ("admitted", "queued", "rejected"):
        facts[name] += int(report.admission.get(name, 0))
    facts[f"mode:{report.executor.get('mode')}"] += 1
    facts[f"transport:{report.transport}"] += 1


class FedListen:
    name = "fed_listen"
    unit = "listeners"
    host_corrected = True

    def __init__(self, seed: int, size: str) -> None:
        params = SIZES[size][self.name]
        self.instance = ladder_instance()
        self.trace = listener_trace(
            self.instance, seed, params["listeners"], params["mutations"]
        )
        self.listeners = listener_count(self.trace)
        self.reference: str | None = None

    def input_digest(self) -> str:
        return self.trace.fingerprint()

    def setup_once(self) -> float:
        reset_warm_engines()
        started = time.perf_counter()
        report = _federation(self.instance, self.trace, 8).run()
        elapsed = time.perf_counter() - started
        self.reference = json.dumps(report.as_dict(), sort_keys=True)
        return elapsed

    def run(self, seconds: float, tracer=None, probe=None) -> Timed:
        timed = Timed(unit=self.unit)
        op = 0
        while not timed.attempted or timed.busy < seconds:
            if probe is not None:
                probe.between_ops(timed.busy)
            timed.attempted += 1
            span = open_op(tracer, op)
            started = time.perf_counter()
            try:
                report = _federation(self.instance, self.trace, 8).run()
            except Exception as error:  # noqa: BLE001 - counted
                timed.latencies.append(time.perf_counter() - started)
                close_op(tracer, span)
                timed.fail(f"{type(error).__name__}: {error}")
                op += 1
                continue
            elapsed = time.perf_counter() - started
            close_op(tracer, span)
            timed.latencies.append(elapsed)
            timed.op_walls.append((op, elapsed))
            timed.work += self.listeners
            problem = _check_federation(report, self.listeners)
            if problem is None and (
                json.dumps(report.as_dict(), sort_keys=True)
                != self.reference
            ):
                problem = "replay not byte-identical"
            if problem:
                timed.fail(problem)
            _federation_facts(timed, report)
            op += 1
        return timed


class FedChurn:
    name = "fed_churn"
    unit = "mutations"
    host_corrected = True

    def __init__(self, seed: int, size: str) -> None:
        self.params = SIZES[size][self.name]
        self.seed = seed
        self.instance = ladder_instance()
        # Set-up replays one fixed trace, so its cost does not depend on
        # which traffic the seed drew.
        self.setup_trace = self._trace(-1, seed=0)

    def _trace(self, index: int, seed: int | None = None):
        return churn_trace(
            self.instance,
            derived_seed(self.seed if seed is None else seed, index),
            self.params["listeners"],
            self.params["mutations"],
        )

    def input_digest(self) -> str:
        return self._trace(0).fingerprint()

    def setup_once(self) -> float:
        reset_warm_engines()
        started = time.perf_counter()
        _federation(self.instance, self.setup_trace, 4).run()
        return time.perf_counter() - started

    def run(self, seconds: float, tracer=None, probe=None) -> Timed:
        timed = Timed(unit=self.unit)
        # Every phase meets the same trace sequence with cold caches.
        reset_warm_engines()
        op = 0
        while not timed.attempted or timed.busy < seconds:
            if probe is not None:
                probe.between_ops(timed.busy)
            trace = self._trace(op)  # outside the timer
            listeners = listener_count(trace)
            mutations = len(trace.events) - listeners
            timed.attempted += 1
            span = open_op(tracer, op)
            started = time.perf_counter()
            try:
                report = _federation(self.instance, trace, 4).run()
            except Exception as error:  # noqa: BLE001 - counted
                timed.latencies.append(time.perf_counter() - started)
                close_op(tracer, span)
                timed.fail(f"{type(error).__name__}: {error}")
                op += 1
                continue
            elapsed = time.perf_counter() - started
            close_op(tracer, span)
            timed.latencies.append(elapsed)
            timed.op_walls.append((op, elapsed))
            timed.work += mutations
            problem = _check_federation(report, listeners)
            if problem:
                timed.fail(problem)
            _federation_facts(timed, report)
            op += 1
        return timed


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------


class ControlSession:
    """Closed-loop control-plane sessions through the stock client."""

    name = "control_session"
    unit = "requests"
    host_corrected = True

    def __init__(self, seed: int, size: str, workdir: Path,
                 params: dict | None = None) -> None:
        self.params = params or SIZES[size][self.name]
        self.seed = seed
        self.instance = ladder_instance()
        self.catalog = {p.page_id: p.expected_time for p in self.instance.pages()}
        self.workdir = workdir
        self._dirs = 0

    def script(self, index: int) -> list:
        """One session's requests (built outside the timers)."""
        import random

        from repro.api.types import (
            CreateServiceRequest,
            ErrorBudgetQuery,
            FinishService,
            MutationBatch,
            SloQuery,
        )

        writes = self.params["writes"]
        horizon = self.params.get("horizon", HORIZON)
        trace = churn_trace(
            self.instance,
            derived_seed(self.seed, index),
            listeners=writes * EVENTS_PER_WRITE - self.params["mutations"],
            mutations=self.params["mutations"],
            horizon=horizon,
        )
        events = list(trace.events)
        rng = random.Random(derived_seed(self.seed, index))
        name = f"s{index}"
        script: list = [
            CreateServiceRequest(name=name, catalog=self.catalog,
                                 horizon=horizon)
        ]
        for start in range(0, len(events), EVENTS_PER_WRITE):
            script.append(MutationBatch(
                service=name,
                events=tuple(events[start:start + EVENTS_PER_WRITE]),
            ))
            script.append(SloQuery(service=name,
                                   expected_time=rng.choice(LADDER),
                                   pages=rng.randint(1, 4)))
            script.append(ErrorBudgetQuery(service=name))
        script.append(FinishService(service=name))
        return script

    def input_digest(self) -> str:
        from repro.api.codec import encode_line

        text = "".join(encode_line(m) for m in self.script(0))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"ctl{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    async def _serve(self, body):
        from repro.control.journal import Journal
        from repro.control.plane import ControlPlane, ControlPlaneServer

        directory = self._fresh_dir()
        # A relative path keeps the socket name short in deep checkouts.
        socket_path = os.path.relpath(directory / "plane.sock")
        journal = Journal.open(directory / "journal.ndjson", fsync="always")
        try:
            server = ControlPlaneServer(ControlPlane(journal))
            bound = await server.start_unix(socket_path)
            async with bound:
                return await body(server, socket_path)
        finally:
            journal.close()
            shutil.rmtree(directory, ignore_errors=True)

    async def _shutdown(self, server, socket_path) -> None:
        from repro.api.types import Shutdown
        from repro.control.plane import ControlPlaneClient

        client = await ControlPlaneClient.connect_unix(socket_path)
        try:
            await client.request(Shutdown())
        finally:
            await client.close()
        await server.wait_closed()

    def setup_once(self) -> float:
        from repro.api.types import CreateServiceRequest, ServiceCreated
        from repro.control.plane import ControlPlaneClient

        async def body(server, socket_path):
            started = time.perf_counter()
            client = await ControlPlaneClient.connect_unix(socket_path)
            reply = await client.request(CreateServiceRequest(
                name="setup", catalog=self.catalog, horizon=HORIZON))
            elapsed = time.perf_counter() - started
            await client.close()
            if not isinstance(reply, ServiceCreated):
                raise RuntimeError(f"set-up create failed: {reply!r}")
            await self._shutdown(server, socket_path)
            return elapsed

        return asyncio.run(self._serve(body))

    def run(self, seconds: float, tracer=None, probe=None) -> Timed:
        from repro.control.plane import ControlPlaneClient

        timed = Timed(unit=self.unit)
        state = {"op": 0, "session": 0, "probe": probe}

        async def body(server, socket_path):
            client = await ControlPlaneClient.connect_unix(socket_path)
            try:
                while not timed.attempted or timed.busy < seconds:
                    script = self.script(state["session"])
                    state["session"] += 1
                    client = await self._session(
                        client, socket_path, script, timed, tracer, state)
            finally:
                await client.close()
            await self._shutdown(server, socket_path)

        asyncio.run(self._serve(body))
        return timed

    async def _session(self, client, socket_path, script, timed, tracer,
                       state):
        from repro.api.types import ApiError
        from repro.control.plane import ControlPlaneClient

        for message in script:
            if state["probe"] is not None:
                state["probe"].between_ops(timed.busy)
            op = state["op"]
            state["op"] += 1
            kind = _request_kind(message)
            timed.kinds[op] = kind
            timed.attempted += 1
            index = None
            if tracer is not None:
                tracer.op = op
                index = tracer.begin("control.request", {"type": kind})
            started = time.perf_counter()
            try:
                reply = await client.request(message)
            except Exception as error:  # noqa: BLE001 - counted
                elapsed = time.perf_counter() - started
                if index is not None:
                    tracer.end(index)
                    tracer.op = None
                timed.latencies.append(elapsed)
                timed.fail(f"{kind}: {type(error).__name__}: {error}")
                # The stream cannot be resynced; reconnect for the
                # next request, as any client would have to.
                await client.close()
                client = await ControlPlaneClient.connect_unix(socket_path)
                continue
            elapsed = time.perf_counter() - started
            if index is not None:
                tracer.end(index)
                tracer.op = None
            timed.latencies.append(elapsed)
            timed.op_walls.append((op, elapsed))
            timed.work += 1
            timed.sample(kind, [elapsed])
            expected = _EXPECTED[type(message).__name__]
            if isinstance(reply, ApiError) or type(reply).__name__ != expected:
                timed.fail(f"{kind}: unexpected {type(reply).__name__}")
                continue
            _control_facts(timed, reply)
        return client


_EXPECTED = {
    "CreateServiceRequest": "ServiceCreated",
    "MutationBatch": "MutationBatchResult",
    "SloQuery": "SloVerdict",
    "ErrorBudgetQuery": "ErrorBudgetReport",
    "FinishService": "ServiceManifest",
}

_KINDS = {
    "CreateServiceRequest": "create",
    "MutationBatch": "write",
    "SloQuery": "read",
    "ErrorBudgetQuery": "read",
    "FinishService": "finish",
}


def _request_kind(message) -> str:
    return _KINDS[type(message).__name__]


def _control_facts(timed: Timed, reply) -> None:
    facts = timed.facts
    name = type(reply).__name__
    if name == "MutationBatchResult":
        facts["admitted"] += reply.admitted
        facts["queued"] += reply.queued
        facts["rejected"] += reply.rejected
        facts["listeners"] += reply.listeners
        facts["misses"] += reply.misses
    elif name == "ServiceManifest":
        facts["finish_bytes_max"] = max(
            facts["finish_bytes_max"],
            len(json.dumps(reply.manifest, sort_keys=True)),
        )
        service = reply.manifest.get("service") or {}
        counters = service.get("counters") or {}
        facts["incremental_repairs"] += int(
            counters.get("incremental_repairs", 0))


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------

DISTRIBUTIONS = ("normal", "l-skewed", "s-skewed", "uniform")


class PlanSweep:
    """The Figure-5 reproduction on a fresh pooled engine per operation."""

    name = "plan_sweep"
    unit = "cells"
    #: The single-thread calibration, taken in the parent between
    #: ~14 s pooled operations, does not track the pool's speed: on 15
    #: seeds it doubled the spread of the raw figures (0.05 to 0.10, and
    #: 0.23 on one five-seed set), so this workload reports them raw.
    host_corrected = False

    def __init__(self, seed: int, size: str) -> None:
        from repro.core.bounds import minimum_channels
        from repro.engine.executor import default_channel_points
        from repro.workload.generator import PaperParameters, paper_instance

        self.params = SIZES[size][self.name]
        self.seed = seed
        self.size = size
        parameters = PaperParameters(n=self.params["n"])
        self.grids = []
        for distribution in DISTRIBUTIONS:
            instance = paper_instance(distribution, parameters)
            n_min = minimum_channels(instance)
            points = default_channel_points(n_min, self.params["points"])
            self.grids.append((distribution, instance, points))
        self.workers = nproc()

    def input_digest(self) -> str:
        """The instances are the paper's; the seed draws the requests."""
        text = json.dumps([self.seed, self.params,
                           [(d, list(p)) for d, _, p in self.grids]])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def setup_once(self) -> float:
        """A fresh pooled engine and its first (small) pooled sweep."""
        from repro.core.pages import instance_from_counts
        from repro.engine import BroadcastEngine

        small = instance_from_counts([3, 5, 3], [2, 4, 8])
        started = time.perf_counter()
        engine = BroadcastEngine(workers=self.workers)
        engine.sweep(small, algorithms=("pamad", "m-pb", "opt"),
                     channel_points=(1, 2, 3, 4), num_requests=200,
                     seed=self.seed)
        return time.perf_counter() - started

    def run(self, seconds: float, tracer=None, probe=None) -> Timed:
        from repro.analysis.sweep import sweep_table
        from repro.engine import BroadcastEngine

        sys.path.insert(0, str(ROOT / "benchmarks"))
        from fig5_checks import assert_fig5_shape

        timed = Timed(unit=self.unit)
        op = 0
        while not timed.attempted or timed.busy < seconds:
            if probe is not None:
                probe.between_ops(timed.busy)
            timed.attempted += 1
            results = []
            span = open_op(tracer, op)
            started = time.perf_counter()
            try:
                engine = BroadcastEngine(workers=self.workers)
                for _, instance, points in self.grids:
                    results.append(engine.sweep(
                        instance,
                        algorithms=("pamad", "m-pb", "opt"),
                        channel_points=points,
                        num_requests=self.params["requests"],
                        seed=self.seed,
                        workers=self.workers,
                    ))
            except Exception as error:  # noqa: BLE001 - counted
                timed.latencies.append(time.perf_counter() - started)
                close_op(tracer, span)
                timed.fail(f"{type(error).__name__}: {error}")
                op += 1
                continue
            elapsed = time.perf_counter() - started
            close_op(tracer, span)
            timed.latencies.append(elapsed)
            timed.op_walls.append((op, elapsed))
            problem = None
            for (distribution, _, _), result in zip(self.grids, results):
                timed.work += len(result.points)
                executor = result.manifest.executor
                timed.facts[f"mode:{executor.get('mode')}"] += 1
                timed.facts[f"transport:{executor.get('transport')}"] += 1
                timed.facts[f"compute:{executor.get('compute_backend')}"] += 1
                pamad = [p for p in result.points if p.algorithm == "pamad"]
                timed.facts["pamad_cells"] += len(pamad)
                timed.sample("pamad_delay", [p.analytic_delay for p in pamad])
                timed.sample("pamad_miss", [p.miss_ratio for p in pamad])
                if self.size != "full":
                    continue  # the shape claims hold at paper scale only
                # On the model AvgD (Eq. 2-7): the Monte-Carlo estimate
                # of 3,000 requests moves OPT by ~6% at l-skewed, 3
                # channels, past the check's 25% slack on some seeds.
                try:
                    assert_fig5_shape(sweep_table(
                        result.points, title="", metric="analytic_delay"))
                except AssertionError as error:
                    problem = f"{distribution}: Figure-5 shape: {error}"
            if problem:
                timed.fail(problem)
            op += 1
        return timed


def build(name: str, seed: int, size: str, workdir: Path):
    if name == "fed_listen":
        return FedListen(seed, size)
    if name == "fed_churn":
        return FedChurn(seed, size)
    if name == "control_session":
        return ControlSession(seed, size, workdir)
    if name == "plan_sweep":
        return PlanSweep(seed, size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fed_listen", "fed_churn", "control_session", "plan_sweep")
