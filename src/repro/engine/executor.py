"""Sweep cell execution — serial, threaded, or across a process pool.

A sweep is a grid of independent (scheduler, channel-count) *cells*;
each cell schedules (unless the engine's cache already holds the
program) and then Monte-Carlo measures the result.  Cells carry their
own derived seeds, so the outcome of a cell is a pure function of its
spec — which is what makes fanning them across a
:mod:`concurrent.futures` pool safe: results are collected back in
submission order and are bit-identical to a serial run.

The process pool is the default for ``workers > 1`` (scheduling and
replay are CPU-bound pure Python; threads only help on the margins),
with automatic serial fallback when the pool cannot be built or the
cell specs cannot be pickled (e.g. a scheduler registered as a lambda).

Execution is *hardened*: a raising scheduler never poisons the rest of
the grid.  Cell-level exceptions cross the pool boundary as values (the
worker wraps them), so the parent can distinguish them from pool
infrastructure failures; a failing cell is retried with exponential
backoff up to :attr:`ExecutionPolicy.retries` times, a per-future
timeout bounds how long the parent waits in pool modes, and a
per-algorithm circuit breaker stops burning attempts on a scheduler
that keeps crashing — subsequent cells of that algorithm short-circuit
to a structured :class:`CellFailure` instead of executing.  Failed
cells come back as :class:`CellFailure` entries in the result list, in
grid order, alongside the successful :class:`CellResult` entries.

Pool transport is *chunked and lazy*: :attr:`ExecutionPolicy.chunk_size`
cells ride in one future, so the (identical) ``ProblemInstance`` payload
ships once per chunk instead of once per cell, and chunks are
submitted in waves of at most ``workers`` — never all up front — so a
circuit that opens mid-grid short-circuits every not-yet-submitted cell
without burning pool work.  On process pools the shared instance is
*posted once per run* into a :mod:`multiprocessing.shared_memory` block
(:attr:`ExecutionPolicy.transport` ``"shm"``, the default); chunk
payloads then carry only the block's name and each worker attaches and
unpickles it once, caching by name — so chunk *specs* stop re-shipping
the instance.  Schedules still carry theirs: every fresh cell's
:class:`CellResult` and every cache hit's :class:`CachedSchedule`
pickles its schedule's ``instance`` (~24 KB at the paper's n=1000).
``"pickle"`` restores the per-chunk copy, and any
shared-memory failure degrades to it silently (recorded in the report).
Programs cross the pool as packed int64 grids
(:meth:`~repro.core.program.BroadcastProgram.__getstate__`): the
nested-list grid and the appearance index stay behind and rebuild
lazily on first use, so a result's wire size is about its packed grid
plus the instance.
When a timeout is set, workers also post each finished cell into a
shared progress map, so a timed-out chunk *harvests* the cells that did
complete — only the genuinely unfinished cells burn retries.  Cells can
also opt into the vectorised ``batch`` measurement backend via
:attr:`ExecutionPolicy.measure_backend` (recorded in manifests; see
:func:`repro.sim.clients.measure_with_backend`).  Chunking, waves,
transport and backend never change *which* results come back: outcomes
are bit-identical to a ``workers=1`` serial run of the same policy.

:func:`run_tasks` is the generic sibling for pure functions of one
payload (the federation's shard replays): a one-shot :class:`TaskPool`,
which callers can also hold open so warm workers survive across runs.
The placement and delay kernels have one implementation (numpy), so
workers need no per-process setup; manifests record it as
``compute_backend: "python"``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory

from repro.core.backend import resolve_backend
from repro.core.errors import ReproError
from repro.core.pages import ProblemInstance
from repro.engine.cache import CachedSchedule
from repro.engine.registry import Scheduler
from repro.sim.clients import MEASUREMENT_BACKENDS, measure_with_backend

__all__ = [
    "SweepPoint",
    "default_channel_points",
    "CellSpec",
    "CellResult",
    "CellFailure",
    "TaskFailure",
    "TaskPool",
    "ExecutionPolicy",
    "ExecutionReport",
    "run_cells",
    "run_tasks",
    "EXECUTOR_MODES",
    "EXECUTOR_TRANSPORTS",
]

EXECUTOR_MODES = ("serial", "thread", "process")

#: Chunk-payload transports for process pools.  ``"shm"`` posts the
#: shared instance into one ``multiprocessing.shared_memory`` block per
#: run; ``"pickle"`` ships a copy inside every chunk.  Serial and thread
#: execution pass objects by reference (reported as ``"inline"``).
EXECUTOR_TRANSPORTS = ("shm", "pickle")


@dataclass(frozen=True)
class SweepPoint:
    """One measured (algorithm, channel-count) cell of a sweep.

    Attributes:
        algorithm: Registry name of the scheduler.
        channels: ``N_real`` given to it.
        analytic_delay: Exact expected AvgD of the generated program.
        simulated_delay: Monte-Carlo AvgD (paper methodology).
        miss_ratio: Fraction of simulated requests past their deadline.
        cycle_length: Major-cycle length of the generated program.
        elapsed_seconds: Wall time to schedule (the OPT-is-slow point).
            On an engine cache hit this replays the originally measured
            time, so repeated sweeps stay bit-identical.
    """

    algorithm: str
    channels: int
    analytic_delay: float
    simulated_delay: float
    miss_ratio: float
    cycle_length: int
    elapsed_seconds: float


def default_channel_points(n_min: int, max_points: int = 12) -> list[int]:
    """Channel counts to sweep: 1 .. n_min, geometrically thinned.

    Small counts are where the curves move (the paper's "1/5 of the
    minimum" observation), so points are dense at the low end —
    geometric spacing from 1 to ``n_min`` with both endpoints included.
    """
    if n_min < 1:
        raise ReproError(f"n_min must be >= 1, got {n_min}")
    if n_min <= max_points:
        return list(range(1, n_min + 1))
    points = {1, n_min}
    factor = n_min ** (1.0 / (max_points - 1))
    value = 1.0
    while len(points) < max_points:
        value *= factor
        candidate = min(n_min, max(1, round(value)))
        points.add(candidate)
        if candidate >= n_min:
            break
    return sorted(points)


@dataclass(frozen=True)
class CellSpec:
    """Everything one sweep cell needs, resolved up front in the parent.

    ``seed`` is the cell's fully derived RNG seed (the sweep-level
    formula lives in the facade), and ``cached`` carries a cache hit so
    workers skip scheduling entirely.
    """

    algorithm: str
    scheduler: Scheduler
    channels: int
    instance: ProblemInstance
    num_requests: int
    seed: int
    cached: CachedSchedule | None = None


@dataclass(frozen=True)
class CellResult:
    """One executed cell: the sweep point plus cache-insertion payload.

    ``schedule`` is populated only for freshly computed cells — cache
    hits return ``None`` there so nothing is pickled back needlessly.
    ``attempts`` counts executions including retries (1 = first try).
    """

    point: SweepPoint
    schedule: object | None
    elapsed_seconds: float
    attempts: int = 1


@dataclass(frozen=True)
class CellFailure:
    """A cell that produced no result, as structured data.

    Attributes:
        algorithm: Registry name of the scheduler that failed.
        channels: The cell's channel count.
        error_type: Exception class name (or ``"TimeoutError"``).
        message: The exception message (first line of context).
        attempts: Executions burnt on this cell (0 when the circuit
            breaker skipped it entirely).
        circuit_open: True when the per-algorithm breaker suppressed
            execution or retries for this cell.
    """

    algorithm: str
    channels: int
    error_type: str
    message: str
    attempts: int
    circuit_open: bool = False

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "channels": self.channels,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "circuit_open": self.circuit_open,
        }


@dataclass(frozen=True)
class ExecutionPolicy:
    """Hardening knobs for a cell grid run.

    Attributes:
        timeout: Per-future wait bound in seconds for pool modes
            (``None`` = wait forever).  With ``chunk_size > 1`` one
            future carries a whole chunk, so the budget covers the
            chunk; a timed-out chunk fails every cell it carried
            (retried individually per ``retries``).  Serial execution
            cannot be preempted, so the timeout is ignored there.  A
            timed-out worker may still be running; its result is simply
            no longer awaited.
        retries: Extra attempts after a failed first execution.  Pool
            retries are resubmitted as single-cell futures.
        backoff: Base of the exponential backoff sleep between attempts
            (``backoff * 2**(attempt-1)`` seconds).
        breaker_threshold: Consecutive final failures of one algorithm
            that open its circuit; further cells of that algorithm are
            failed structurally instead of executed/retried (in pool
            modes, without even being submitted).  ``0`` disables the
            breaker.
        chunk_size: Cells per pool future.  The shared
            ``ProblemInstance`` ships once per chunk, so large grids of
            cheap cells stop paying per-cell pickling; ``1`` restores
            the one-future-per-cell transport.  Results are identical
            for every value.
        measure_backend: ``"scalar"`` (the reference
            :func:`~repro.sim.clients.measure_program` loop) or
            ``"batch"`` (the vectorised
            :func:`~repro.analysis.vectorized.batch_measure` pass).
            Backends draw different RNG streams, so manifests record
            which one ran.
        transport: Chunk-payload transport for process pools.  ``"shm"``
            (default) posts the shared ``ProblemInstance`` once into a
            shared-memory block that workers attach by name; ``"pickle"``
            ships a pickled copy per chunk.  Ignored outside process
            mode; shared-memory failures degrade to ``"pickle"``
            silently (the report records what actually ran).
    """

    timeout: float | None = None
    retries: int = 1
    backoff: float = 0.05
    breaker_threshold: int = 3
    chunk_size: int = 1
    measure_backend: str = "scalar"
    transport: str = "shm"

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ReproError(
                f"timeout must be positive or None, got {self.timeout}"
            )
        if self.retries < 0:
            raise ReproError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ReproError(f"backoff must be >= 0, got {self.backoff}")
        if self.breaker_threshold < 0:
            raise ReproError(
                f"breaker_threshold must be >= 0, got "
                f"{self.breaker_threshold}"
            )
        if self.chunk_size < 1:
            raise ReproError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.measure_backend not in MEASUREMENT_BACKENDS:
            raise ReproError(
                f"unknown measure_backend {self.measure_backend!r}; "
                f"choose from {', '.join(MEASUREMENT_BACKENDS)}"
            )
        if self.transport not in EXECUTOR_TRANSPORTS:
            raise ReproError(
                f"unknown transport {self.transport!r}; choose from "
                f"{', '.join(EXECUTOR_TRANSPORTS)}"
            )


@dataclass
class ExecutionReport:
    """Accounting of one :func:`run_cells` call.

    ``as_dict`` is the manifest's ``executor`` block (minus ``workers``,
    which the facade adds).
    """

    mode: str
    requested_mode: str
    fallback: bool = False
    retries: int = 0
    cell_failures: int = 0
    breaker_trips: int = 0
    timeouts: int = 0
    chunk_size: int = 1
    measure_backend: str = "scalar"
    short_circuited: int = 0
    transport: str = "inline"
    harvested: int = 0

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "fallback": self.fallback,
            "retries": self.retries,
            "cell_failures": self.cell_failures,
            "breaker_trips": self.breaker_trips,
            "timeouts": self.timeouts,
            "chunk_size": self.chunk_size,
            "measure_backend": self.measure_backend,
            "short_circuited": self.short_circuited,
            "transport": self.transport,
            "harvested": self.harvested,
            "compute_backend": resolve_backend(),
        }


@dataclass(frozen=True)
class _CellError:
    """A cell exception shipped across the pool boundary as a value.

    Keeping scheduler/measurement exceptions as *values* is what lets
    the parent tell them apart from pool infrastructure failures (which
    raise out of ``future.result`` and trigger the serial fallback).
    """

    error_type: str
    message: str
    trace: str = ""


def execute_cell(spec: CellSpec, backend: str = "scalar") -> CellResult:
    """Run one cell to completion (schedule unless cached, then measure)."""
    if spec.cached is not None:
        schedule = spec.cached.schedule
        elapsed = spec.cached.elapsed_seconds
        fresh = False
    else:
        started = time.perf_counter()
        schedule = spec.scheduler(spec.instance, spec.channels)
        elapsed = time.perf_counter() - started
        fresh = True
    measurement = measure_with_backend(
        schedule.program,
        spec.instance,
        num_requests=spec.num_requests,
        seed=spec.seed,
        backend=backend,
    )
    point = SweepPoint(
        algorithm=spec.algorithm,
        channels=spec.channels,
        analytic_delay=schedule.average_delay,
        simulated_delay=measurement.average_delay,
        miss_ratio=measurement.miss_ratio,
        cycle_length=schedule.program.cycle_length,
        elapsed_seconds=elapsed,
    )
    return CellResult(
        point=point,
        schedule=schedule if fresh else None,
        elapsed_seconds=elapsed,
    )


def _guarded_execute(
    spec: CellSpec, backend: str = "scalar"
) -> CellResult | _CellError:
    """Worker entry point: cell exceptions become picklable values."""
    try:
        return execute_cell(spec, backend)
    except Exception as error:  # noqa: BLE001 - the guard is the point
        return _CellError(
            error_type=type(error).__name__,
            message=str(error),
            trace=traceback.format_exc(limit=8),
        )


@dataclass(frozen=True)
class _ChunkCell:
    """One cell's chunk payload — everything but the shared instance."""

    algorithm: str
    scheduler: Scheduler
    channels: int
    num_requests: int
    seed: int
    cached: CachedSchedule | None = None


@dataclass(frozen=True)
class _ChunkSpec:
    """A batch of cells sharing one ``ProblemInstance``.

    The instance rides either inline (``instance``, pickled with the
    chunk on process pools) or by reference to a shared-memory block
    (``shm_name``/``shm_size``) the parent posted once for the whole
    run.  ``indices`` are the cells' grid positions — the keys workers
    use to post per-cell results into ``progress`` so a timed-out chunk
    can be harvested.
    """

    instance: ProblemInstance | None
    backend: str
    cells: tuple[_ChunkCell, ...]
    indices: tuple[int, ...] = ()
    shm_name: str | None = None
    shm_size: int = 0
    progress: object | None = None


class _ShmPost:
    """One object pickled once into a shared-memory block.

    Workers attach by name (:func:`_from_shm`) and unpickle straight out
    of the mapped buffer — the payload crosses the process boundary once
    per worker instead of once per task.  The parent owns the block's
    lifetime: :meth:`close` unlinks it after the pool has drained.  The
    sweep posts its shared ``ProblemInstance``; the federation posts its
    shard-grouped listener columns.
    """

    def __init__(self, obj: object) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.size = len(payload)
        self.block = shared_memory.SharedMemory(
            create=True, size=max(1, self.size)
        )
        self.block.buf[: self.size] = payload

    @property
    def name(self) -> str:
        return self.block.name

    def close(self) -> None:
        try:
            self.block.close()
            self.block.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


#: Worker-side cache of the last object unpickled from shared memory,
#: keyed by block name.  A new name evicts the previous attachment:
#: warm :class:`TaskPool` workers outlive runs, and every post is
#: unlinked when its run ends.
_SHM_ATTACHED: dict[str, object] = {}


def _from_shm(name: str, size: int):
    """Attach, unpickle and cache a posted object (once per worker)."""
    if name not in _SHM_ATTACHED:
        block = shared_memory.SharedMemory(name=name)
        view = block.buf[:size]
        try:
            obj = pickle.loads(view)
        finally:
            view.release()
            block.close()
        _SHM_ATTACHED.clear()
        _SHM_ATTACHED[name] = obj
    return _SHM_ATTACHED[name]


def _chunk_cell(spec: CellSpec) -> _ChunkCell:
    return _ChunkCell(
        algorithm=spec.algorithm,
        scheduler=spec.scheduler,
        channels=spec.channels,
        num_requests=spec.num_requests,
        seed=spec.seed,
        cached=spec.cached,
    )


def _cell_spec(cell: _ChunkCell, instance: ProblemInstance) -> CellSpec:
    return CellSpec(
        algorithm=cell.algorithm,
        scheduler=cell.scheduler,
        channels=cell.channels,
        instance=instance,
        num_requests=cell.num_requests,
        seed=cell.seed,
        cached=cell.cached,
    )


def _guarded_execute_chunk(
    chunk: _ChunkSpec,
) -> list[CellResult | _CellError]:
    """Worker entry point for a chunk: per-cell failures stay values.

    Each finished cell is also posted into the shared ``progress`` map
    (when the parent supplied one) so that a chunk whose *later* cells
    blow the timeout budget does not forfeit the earlier results.
    """
    if chunk.shm_name is not None:
        instance = _from_shm(chunk.shm_name, chunk.shm_size)
    else:
        instance = chunk.instance
    progress = chunk.progress
    values: list[CellResult | _CellError] = []
    for position, cell in enumerate(chunk.cells):
        value = _guarded_execute(_cell_spec(cell, instance), chunk.backend)
        values.append(value)
        if progress is not None:
            try:
                progress[chunk.indices[position]] = value
            except (OSError, EOFError):  # manager gone; keep computing
                progress = None
    return values


class _CircuitBreaker:
    """Consecutive-failure breaker, one circuit per algorithm name."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._consecutive: dict[str, int] = {}
        self._open: set[str] = set()
        self.trips = 0

    def is_open(self, algorithm: str) -> bool:
        return algorithm in self._open

    def record_success(self, algorithm: str) -> None:
        self._consecutive[algorithm] = 0

    def record_failure(self, algorithm: str) -> None:
        if not self.threshold or algorithm in self._open:
            return
        count = self._consecutive.get(algorithm, 0) + 1
        self._consecutive[algorithm] = count
        if count >= self.threshold:
            self._open.add(algorithm)
            self.trips += 1


def _backoff_sleep(policy: ExecutionPolicy, attempt: int) -> None:
    if policy.backoff > 0:
        time.sleep(policy.backoff * 2 ** (attempt - 1))


def _note(telemetry, name: str, amount: int = 1) -> None:
    if telemetry is not None and amount:
        telemetry.incr(name, amount)


def _finalize(
    spec: CellSpec,
    error: _CellError,
    attempts: int,
    circuit_open: bool,
    breaker: _CircuitBreaker,
    report: ExecutionReport,
    telemetry,
) -> CellFailure:
    """Record a cell's final failure and build its structured result."""
    report.cell_failures += 1
    _note(telemetry, "executor.cell_failures")
    breaker_was_open = breaker.is_open(spec.algorithm)
    breaker.record_failure(spec.algorithm)
    return CellFailure(
        algorithm=spec.algorithm,
        channels=spec.channels,
        error_type=error.error_type,
        message=error.message,
        attempts=attempts,
        circuit_open=circuit_open or breaker_was_open,
    )


def _run_serial(
    specs: list[CellSpec],
    policy: ExecutionPolicy,
    report: ExecutionReport,
    telemetry,
) -> list[CellResult | CellFailure]:
    breaker = _CircuitBreaker(policy.breaker_threshold)
    outcomes: list[CellResult | CellFailure] = []
    for spec in specs:
        if breaker.is_open(spec.algorithm):
            report.short_circuited += 1
            outcomes.append(
                _finalize(
                    spec,
                    _CellError(
                        "CircuitOpen",
                        f"circuit open for {spec.algorithm!r}; cell skipped",
                    ),
                    attempts=0,
                    circuit_open=True,
                    breaker=breaker,
                    report=report,
                    telemetry=telemetry,
                )
            )
            continue
        attempts = 0
        while True:
            attempts += 1
            value = _guarded_execute(spec, policy.measure_backend)
            if isinstance(value, CellResult):
                breaker.record_success(spec.algorithm)
                outcomes.append(replace(value, attempts=attempts))
                break
            if attempts > policy.retries:
                outcomes.append(
                    _finalize(
                        spec, value, attempts, False,
                        breaker, report, telemetry,
                    )
                )
                break
            report.retries += 1
            _note(telemetry, "executor.retries")
            _backoff_sleep(policy, attempts)
    report.breaker_trips = breaker.trips
    _note(telemetry, "executor.breaker_trips", breaker.trips)
    return outcomes


def _chunk_specs(
    specs: list[CellSpec], chunk_size: int
) -> list[tuple[int, list[CellSpec]]]:
    """Slice the grid into consecutive chunks sharing one instance.

    Chunks never mix instances (the whole point is pickling the shared
    payload once), so a boundary between different instance objects
    closes the current chunk early.
    """
    chunks: list[tuple[int, list[CellSpec]]] = []
    i = 0
    while i < len(specs):
        j = i + 1
        while (
            j < len(specs)
            and j - i < chunk_size
            and specs[j].instance is specs[i].instance
        ):
            j += 1
        chunks.append((i, specs[i:j]))
        i = j
    return chunks


def _await_value(
    future: Future,
    policy: ExecutionPolicy,
    report: ExecutionReport,
    telemetry,
    what: str,
):
    """Wait on a pool future, converting a timeout into a value."""
    try:
        return future.result(timeout=policy.timeout)
    except FuturesTimeoutError:
        future.cancel()
        report.timeouts += 1
        _note(telemetry, "executor.timeouts")
        return _CellError(
            "TimeoutError",
            f"{what} exceeded the {policy.timeout}s budget",
        )


def _run_pool(
    specs: list[CellSpec],
    workers: int,
    mode: str,
    policy: ExecutionPolicy,
    report: ExecutionReport,
    telemetry,
) -> list[CellResult | CellFailure]:
    pool_cls = ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
    breaker = _CircuitBreaker(policy.breaker_threshold)
    outcomes: list[CellResult | CellFailure | None] = [None] * len(specs)
    chunks = _chunk_specs(specs, policy.chunk_size)
    next_chunk = 0
    # (future, [(grid index, spec), ...]) in submission order; results
    # are processed head-of-line so outcome content matches serial runs.
    in_flight: deque[tuple[Future, list[tuple[int, CellSpec]]]] = deque()

    # Zero-copy transport: the shared instance is posted once per run;
    # chunks carry only the block's name.  Any shared-memory failure
    # flips the run back to pickled chunks (recorded in the report).
    use_shm = mode == "process" and policy.transport == "shm"
    posts: dict[int, _ShmPost] = {}
    report.transport = "pickle" if mode == "process" else "inline"

    # Progress map for timeout harvesting: workers post each finished
    # cell so a timed-out chunk only forfeits the unfinished ones.
    # Threads share the parent's memory (a plain dict suffices);
    # processes need a manager proxy, which is only worth its server
    # process when a timeout can actually strand results.
    manager = None
    progress = None
    if policy.timeout is not None:
        if mode == "process":
            try:
                manager = multiprocessing.Manager()
                progress = manager.dict()
            except OSError:  # pragma: no cover - no manager, no harvest
                manager = None
        else:
            progress = {}

    def _post(instance: ProblemInstance) -> _ShmPost | None:
        nonlocal use_shm
        post = posts.get(id(instance))
        if post is None:
            try:
                post = _ShmPost(instance)
            except (OSError, pickle.PicklingError):
                use_shm = False  # degrade this run to pickled chunks
                return None
            posts[id(instance)] = post
        return post

    try:
        with pool_cls(max_workers=min(workers, len(chunks))) as pool:

            def submit_wave() -> None:
                # Lazy submission: keep at most `workers` chunks in
                # flight so a circuit opened by an earlier result
                # short-circuits later cells *before* they ever reach
                # the pool.
                nonlocal next_chunk
                while next_chunk < len(chunks) and len(in_flight) < workers:
                    start, chunk = chunks[next_chunk]
                    next_chunk += 1
                    live: list[tuple[int, CellSpec]] = []
                    for offset, spec in enumerate(chunk):
                        if breaker.is_open(spec.algorithm):
                            report.short_circuited += 1
                            outcomes[start + offset] = _finalize(
                                spec,
                                _CellError(
                                    "CircuitOpen",
                                    f"circuit open for {spec.algorithm!r};"
                                    " cell not submitted",
                                ),
                                attempts=0,
                                circuit_open=True,
                                breaker=breaker,
                                report=report,
                                telemetry=telemetry,
                            )
                        else:
                            live.append((start + offset, spec))
                    if live:
                        instance = live[0][1].instance
                        post = _post(instance) if use_shm else None
                        if post is not None:
                            report.transport = "shm"
                        payload = _ChunkSpec(
                            instance=None if post is not None else instance,
                            backend=policy.measure_backend,
                            cells=tuple(
                                _chunk_cell(spec) for _, spec in live
                            ),
                            indices=tuple(index for index, _ in live),
                            shm_name=(
                                post.name if post is not None else None
                            ),
                            shm_size=post.size if post is not None else 0,
                            progress=progress,
                        )
                        in_flight.append(
                            (
                                pool.submit(
                                    _guarded_execute_chunk, payload
                                ),
                                live,
                            )
                        )

            submit_wave()
            while in_flight:
                future, live = in_flight.popleft()
                values = _await_value(
                    future, policy, report, telemetry,
                    f"chunk of {len(live)} cell(s)",
                )
                if isinstance(values, _CellError):
                    # The chunk timed out; harvest the cells its worker
                    # had already finished — only the unfinished rest
                    # share the failure (and its retry budget below).
                    finished: dict = {}
                    if progress is not None:
                        try:
                            finished = dict(progress.copy())
                        except (OSError, EOFError):  # pragma: no cover
                            finished = {}
                    timeout_error = values
                    values = [
                        finished.get(index, timeout_error)
                        for index, _ in live
                    ]
                    salvaged = sum(
                        1 for value in values
                        if value is not timeout_error
                    )
                    report.harvested += salvaged
                    _note(telemetry, "executor.harvested", salvaged)
                for (index, spec), value in zip(live, values):
                    # A circuit that opened while this chunk was in
                    # flight disables retries; its result is still
                    # accepted.
                    circuit_open = breaker.is_open(spec.algorithm)
                    attempts = 1
                    while True:
                        if isinstance(value, CellResult):
                            breaker.record_success(spec.algorithm)
                            outcomes[index] = replace(
                                value, attempts=attempts
                            )
                            break
                        if circuit_open or attempts > policy.retries:
                            outcomes[index] = _finalize(
                                spec, value, attempts, circuit_open,
                                breaker, report, telemetry,
                            )
                            break
                        report.retries += 1
                        _note(telemetry, "executor.retries")
                        _backoff_sleep(policy, attempts)
                        retry = pool.submit(
                            _guarded_execute, spec, policy.measure_backend
                        )
                        value = _await_value(
                            retry, policy, report, telemetry, "cell"
                        )
                        attempts += 1
                submit_wave()
    finally:
        for post in posts.values():
            post.close()
        if manager is not None:
            manager.shutdown()
    report.breaker_trips = breaker.trips
    _note(telemetry, "executor.breaker_trips", breaker.trips)
    return outcomes


@dataclass(frozen=True)
class TaskFailure:
    """A :func:`run_tasks` payload that produced no result.

    Attributes:
        index: Position of the payload in the submitted sequence.
        error_type: Exception class name (or ``"TimeoutError"``).
        message: The exception message.
        attempts: Executions burnt on this payload.
    """

    index: int
    error_type: str
    message: str
    attempts: int

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


def _guarded_call(fn, payload) -> object:
    """Task worker entry point: exceptions become picklable values."""
    try:
        return fn(payload)
    except Exception as error:  # noqa: BLE001 - the guard is the point
        return _CellError(
            error_type=type(error).__name__,
            message=str(error),
            trace=traceback.format_exc(limit=8),
        )


def _run_tasks_serial(
    fn,
    payloads: list,
    policy: ExecutionPolicy,
    report: ExecutionReport,
    telemetry,
) -> list:
    outcomes: list = []
    for index, payload in enumerate(payloads):
        attempts = 0
        while True:
            attempts += 1
            value = _guarded_call(fn, payload)
            if not isinstance(value, _CellError):
                outcomes.append(value)
                break
            if attempts > policy.retries:
                report.cell_failures += 1
                _note(telemetry, "executor.cell_failures")
                outcomes.append(
                    TaskFailure(
                        index=index,
                        error_type=value.error_type,
                        message=value.message,
                        attempts=attempts,
                    )
                )
                break
            report.retries += 1
            _note(telemetry, "executor.retries")
            _backoff_sleep(policy, attempts)
    return outcomes


def _drain_task_futures(
    pool,
    fn,
    payloads: list,
    policy: ExecutionPolicy,
    report: ExecutionReport,
    telemetry,
) -> list:
    """Submit every payload to ``pool`` and harvest results in order."""
    outcomes: list = [None] * len(payloads)
    futures = [
        pool.submit(_guarded_call, fn, payload) for payload in payloads
    ]
    for index, future in enumerate(futures):
        value = _await_value(
            future, policy, report, telemetry, f"task {index}"
        )
        attempts = 1
        while (
            isinstance(value, _CellError)
            and attempts <= policy.retries
        ):
            report.retries += 1
            _note(telemetry, "executor.retries")
            _backoff_sleep(policy, attempts)
            retry = pool.submit(_guarded_call, fn, payloads[index])
            value = _await_value(
                retry, policy, report, telemetry, f"task {index}"
            )
            attempts += 1
        if isinstance(value, _CellError):
            report.cell_failures += 1
            _note(telemetry, "executor.cell_failures")
            outcomes[index] = TaskFailure(
                index=index,
                error_type=value.error_type,
                message=value.message,
                attempts=attempts,
            )
        else:
            outcomes[index] = value
    return outcomes


class TaskPool:
    """A :func:`run_tasks` executor pool that lives across calls.

    :func:`run_tasks` is a one-shot ``TaskPool``; callers that fan out
    repeatedly over the same task family (the federation's warm shard
    pool, bench repetitions) instead hold one so workers — and whatever
    warm per-process state they have accumulated (attached shared-memory
    posts, per-shard engines and their program caches) — survive across
    calls.  Worker exceptions come back as :class:`TaskFailure` values
    in payload order, retries follow :attr:`ExecutionPolicy.retries`
    with exponential backoff, waits honour
    :attr:`ExecutionPolicy.timeout`, and pool-infrastructure failures
    rebuild the pool once, then fall back to a serial rerun of the batch
    (the report records the fallback).  Results are bit-identical
    across modes for pure ``fn``.

    Usable as a context manager; :meth:`close` shuts the workers down
    and waits for them to exit.
    """

    def __init__(
        self,
        workers: int,
        mode: str = "process",
        *,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        if mode not in EXECUTOR_MODES:
            raise ReproError(
                f"unknown executor mode {mode!r}; choose from "
                f"{', '.join(EXECUTOR_MODES)}"
            )
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.mode = mode
        self.policy = policy or ExecutionPolicy()
        self._pool = None
        self._closed = False

    def _ensure_pool(self):
        if self._pool is None:
            pool_cls = (
                ProcessPoolExecutor
                if self.mode == "process"
                else ThreadPoolExecutor
            )
            self._pool = pool_cls(max_workers=self.workers)
        return self._pool

    def _discard_pool(self, wait: bool = False) -> None:
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=wait, cancel_futures=True)
            except Exception:  # pragma: no cover - teardown best effort
                pass
            self._pool = None

    def run(
        self,
        fn,
        payloads,
        *,
        policy: ExecutionPolicy | None = None,
        telemetry=None,
    ) -> tuple[list, ExecutionReport]:
        """Fan ``fn`` across ``payloads`` on the persistent pool.

        Same contract and return shape as :func:`run_tasks`; serial
        mode (or a single payload) bypasses the pool entirely.
        """
        if self._closed:
            raise ReproError("TaskPool is closed")
        policy = policy or self.policy
        payloads = list(payloads)
        if self.mode == "serial" or self.workers <= 1 or len(payloads) <= 1:
            report = ExecutionReport(mode="serial", requested_mode=self.mode)
            return (
                _run_tasks_serial(fn, payloads, policy, report, telemetry),
                report,
            )
        report = ExecutionReport(
            mode=self.mode,
            requested_mode=self.mode,
            transport="pickle" if self.mode == "process" else "inline",
        )
        for attempt in range(2):
            try:
                return (
                    _drain_task_futures(
                        self._ensure_pool(),
                        fn,
                        payloads,
                        policy,
                        report,
                        telemetry,
                    ),
                    report,
                )
            except (
                pickle.PicklingError,
                AttributeError,
                TypeError,
                BrokenExecutor,
                OSError,
                RuntimeError,
            ):
                # A broken pool is rebuilt once (workers may have been
                # killed); a second infrastructure failure falls through
                # to the serial rerun.  Task-level exceptions are
                # already values and never land here.
                self._discard_pool()
                if attempt == 1:
                    break
        report = ExecutionReport(
            mode="serial", requested_mode=self.mode, fallback=True
        )
        return (
            _run_tasks_serial(fn, payloads, policy, report, telemetry),
            report,
        )

    def close(self) -> None:
        """Shut the workers down; the pool refuses further runs."""
        self._discard_pool(wait=True)
        self._closed = True

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_tasks(
    fn,
    payloads,
    *,
    workers: int = 1,
    mode: str = "serial",
    policy: ExecutionPolicy | None = None,
    telemetry=None,
) -> tuple[list, ExecutionReport]:
    """Fan a pure function across payloads on a one-shot :class:`TaskPool`.

    The generic sibling of :func:`run_cells` — the federation layer
    uses it to replay station shards in parallel.  The pool is sized
    ``min(workers, len(payloads))``, runs the batch once and is shut
    down before this returns; everything else (failures as
    :class:`TaskFailure` values in payload order, retries, timeouts,
    rebuild-then-serial fallback on pool-infrastructure failures such
    as unpicklable ``fn``/payloads or fork limits) is
    :meth:`TaskPool.run`.  Results are bit-identical across modes
    whenever ``fn`` is pure.

    Args:
        fn: A picklable pure function of one payload.
        payloads: The inputs, in the order results must come back.
        workers: Pool width; ``<= 1`` runs serially.
        mode: ``"serial"`` (default), ``"thread"``, or ``"process"``.
        policy: Hardening knobs; chunking/measure-backend fields are
            ignored (tasks ship one per future).
        telemetry: Optional counter sink (``executor.*`` names).

    Returns:
        ``(outcomes, report)`` — outcomes mix ``fn`` return values and
        :class:`TaskFailure` entries in payload order.
    """
    payloads = list(payloads)
    with TaskPool(
        max(1, min(workers, len(payloads))), mode, policy=policy
    ) as pool:
        return pool.run(fn, payloads, telemetry=telemetry)


def run_cells(
    specs: list[CellSpec],
    workers: int = 1,
    mode: str = "process",
    policy: ExecutionPolicy | None = None,
    telemetry=None,
) -> tuple[list[CellResult | CellFailure], ExecutionReport]:
    """Execute every cell, preserving spec order in the results.

    Args:
        specs: The grid, in the order results must come back.
        workers: Pool width; ``<= 1`` runs serially.
        mode: ``"process"`` (default), ``"thread"``, or ``"serial"``.
        policy: Hardening knobs (timeout / retries / breaker); defaults
            to :class:`ExecutionPolicy`'s defaults.
        telemetry: Optional object with an ``incr(name, amount)`` method
            (the engine's :class:`~repro.engine.telemetry.Telemetry`);
            receives ``executor.retries`` / ``executor.cell_failures`` /
            ``executor.breaker_trips`` / ``executor.timeouts`` counters.

    Returns:
        ``(outcomes, report)`` — outcomes mix :class:`CellResult` and
        :class:`CellFailure` in spec order; the report carries the mode
        actually used plus retry/failure/breaker accounting.

    Raises:
        ReproError: For unknown modes.  Cell-level exceptions (a raising
            scheduler, a measurement error) never propagate — they come
            back as :class:`CellFailure` entries.  Only
            pool-infrastructure failures (unpicklable specs, broken
            pools, fork limits) trigger the silent serial fallback,
            which reruns the full grid.
    """
    if mode not in EXECUTOR_MODES:
        raise ReproError(
            f"unknown executor mode {mode!r}; choose from "
            f"{', '.join(EXECUTOR_MODES)}"
        )
    policy = policy or ExecutionPolicy()
    if mode == "serial" or workers <= 1 or len(specs) <= 1:
        report = ExecutionReport(
            mode="serial",
            requested_mode=mode,
            chunk_size=policy.chunk_size,
            measure_backend=policy.measure_backend,
        )
        return _run_serial(specs, policy, report, telemetry), report
    report = ExecutionReport(
        mode=mode,
        requested_mode=mode,
        chunk_size=policy.chunk_size,
        measure_backend=policy.measure_backend,
    )
    try:
        return (
            _run_pool(specs, workers, mode, policy, report, telemetry),
            report,
        )
    except (
        pickle.PicklingError,
        AttributeError,
        TypeError,
        BrokenExecutor,
        OSError,
        RuntimeError,
    ):
        # Pool infrastructure failed (unpicklable scheduler, fork
        # limits, missing multiprocessing support); the cells
        # themselves are pure, so rerun the full grid serially with
        # fresh accounting.
        report = ExecutionReport(
            mode="serial",
            requested_mode=mode,
            fallback=True,
            chunk_size=policy.chunk_size,
            measure_backend=policy.measure_backend,
        )
        return _run_serial(specs, policy, report, telemetry), report
