"""Sweep cells and shard tasks on one executor: serial, threads or processes.

A sweep is a grid of independent (scheduler, channel-count) *cells*;
each cell schedules (unless the engine's cache already holds the
program) and then Monte-Carlo measures the result with
:func:`repro.sim.clients.measure_program`, the paper's seeded
3,000-request stream replayed in one vectorised pass.  Cells carry
their own derived seeds, so the outcome of a cell is a pure function
of its spec, which is what makes fanning them across a
:mod:`concurrent.futures` pool safe: results are collected back in
submission order and are bit-identical to a serial run.  The
federation's shard replays are the other task family: pure functions
of one payload each.

Both families run on :class:`TaskPool` and share its one attempt loop.
A task's exception crosses the pool boundary as a value (the worker
wraps it), so the parent can tell it apart from pool infrastructure
failures.  A failed task is retried with exponential backoff up to
:attr:`ExecutionPolicy.retries` times, and a per-task timeout bounds
how long the parent waits in pool modes.  Cells add one policy on top:
a per-algorithm circuit breaker stops burning attempts on a scheduler
that keeps crashing, so later cells of that algorithm short-circuit to
a structured :class:`CellFailure` instead of executing.  To let an open
circuit catch cells before they reach the pool, cells are submitted
lazily, at most ``workers`` in flight; shard tasks submit their whole
batch at once.  Pool infrastructure failures rebuild the pool once and
then fall back to a serial rerun of the whole batch.

Process runs of the sweep post the shared ``ProblemInstance`` once
into a :mod:`multiprocessing.shared_memory` block; each worker attaches
and unpickles it once, caching by name.  When the block cannot be
created the run degrades to pickling the instance with every cell, and
the report records the transport that ran.  Either way the instance
crosses the process boundary in no other pickle: a cell goes out, and
its :class:`CellResult` comes back, pickled with every reference to the
instance (its own field, a cache hit's schedule, a fresh schedule)
left as a persistent id, which each side resolves to its own copy.  A
fresh schedule thus reaches the engine's cache holding the caller's
instance object, as in a serial run.  Programs cross the pool as packed
int64 grids (:meth:`~repro.core.program.BroadcastProgram.__getstate__`):
the nested-list grid and the appearance index stay behind and are
built on first use.
"""

from __future__ import annotations

import functools
import io
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
from dataclasses import dataclass, replace
from multiprocessing import shared_memory

from repro.core.errors import ReproError
from repro.core.pages import ProblemInstance
from repro.engine.cache import CachedSchedule
from repro.engine.registry import Scheduler
from repro.sim.clients import measure_program

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
]

EXECUTOR_MODES = ("serial", "thread", "process")


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
    A process worker pickles the result without the cell's instance,
    and the parent puts its own instance object back in its place.
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
    """Hardening knobs for one executor run (sweep cells or tasks).

    Attributes:
        timeout: Per-task wait bound in seconds for pool modes (``None``
            = wait forever), counted from when the parent starts
            waiting for that task.  An expiry fails the attempt with a
            ``TimeoutError`` (retried per ``retries``).  A process pool
            holding a timed-out task is torn down with its workers
            terminated, and the tasks it still held move to a fresh
            pool.  A thread cannot be preempted: its pool is abandoned
            without joining the thread, which runs on in the background
            until its call returns.  Serial execution cannot be
            preempted either, so the timeout is ignored there.
        retries: Extra attempts after a failed first execution.
        backoff: Base of the exponential backoff sleep between attempts
            (``backoff * 2**(attempt-1)`` seconds).
        breaker_threshold: Consecutive final failures of one algorithm
            that open its circuit (sweep cells only); further cells of
            that algorithm are failed structurally instead of executed
            or retried (in pool modes, without even being submitted).
            ``0`` disables the breaker.
    """

    timeout: float | None = None
    retries: int = 1
    backoff: float = 0.05
    breaker_threshold: int = 3

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


@dataclass
class ExecutionReport:
    """Accounting of one executor run.

    ``transport`` is how shared data reached the workers: ``"shm"`` (one
    shared-memory post), ``"pickle"`` (a copy with every task) or
    ``"inline"`` (serial and thread runs pass objects by reference).
    ``as_dict`` is the manifest's ``executor`` block (minus ``workers``,
    which the caller adds).
    """

    mode: str
    requested_mode: str
    fallback: bool = False
    retries: int = 0
    cell_failures: int = 0
    breaker_trips: int = 0
    timeouts: int = 0
    short_circuited: int = 0
    transport: str = "inline"

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "fallback": self.fallback,
            "retries": self.retries,
            "cell_failures": self.cell_failures,
            "breaker_trips": self.breaker_trips,
            "timeouts": self.timeouts,
            "short_circuited": self.short_circuited,
            "transport": self.transport,
        }


@dataclass(frozen=True)
class _CellError:
    """A task exception shipped across the pool boundary as a value.

    Keeping scheduler/measurement exceptions as *values* is what lets
    the parent tell them apart from pool infrastructure failures (which
    raise out of ``future.result`` and trigger the pool rebuild).
    """

    error_type: str
    message: str
    trace: str = ""


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


def execute_cell(spec: CellSpec) -> CellResult:
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
    measurement = measure_program(
        schedule.program,
        spec.instance,
        num_requests=spec.num_requests,
        seed=spec.seed,
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


def _guarded_execute(spec: CellSpec) -> CellResult | _CellError:
    """Run one cell; its exceptions become picklable values."""
    return _guarded_call(execute_cell, spec)


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


#: The persistent id standing for a cell's instance in the pickles a
#: process cell and its result travel in.
_INSTANCE = "instance"


def _dumps(obj: object, instance: ProblemInstance) -> bytes:
    """Pickle ``obj`` with every reference to ``instance`` left out."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda item: (
        _INSTANCE if item is instance else None
    )
    pickler.dump(obj)
    return buffer.getvalue()


def _loads(data: bytes, instance: ProblemInstance):
    """Unpickle :func:`_dumps` output, putting ``instance`` back."""
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = lambda pid: instance
    return unpickler.load()


@dataclass(frozen=True)
class _ProcessCell:
    """A cell bound for a process worker, without its instance inside.

    ``spec`` is the :class:`CellSpec` pickled by :func:`_dumps`.  The
    instance is the shared-memory post ``shm`` names (its name and
    size) or, on the pickle transport, ``instance``.
    """

    spec: bytes
    shm: tuple[str, int] | None = None
    instance: ProblemInstance | None = None


def _ship_cells(
    specs: list[CellSpec], posts: dict[int, _ShmPost]
) -> tuple[list[_ProcessCell], bool]:
    """Pickle every cell for the pool; ``True`` when the posts carry the
    instances.

    Each distinct instance is posted once, and new posts are added to
    ``posts`` as they are made, so the caller can close every one of
    them even when a later post fails.  If a post cannot be made, every
    cell carries its instance instead.
    """
    try:
        for spec in specs:
            if id(spec.instance) not in posts:
                posts[id(spec.instance)] = _ShmPost(spec.instance)
        shared = True
    except OSError:
        shared = False
    payloads = []
    for spec in specs:
        post = posts[id(spec.instance)] if shared else None
        payloads.append(
            _ProcessCell(
                _dumps(spec, spec.instance),
                shm=None if post is None else (post.name, post.size),
                instance=None if shared else spec.instance,
            )
        )
    return payloads, shared


def _guarded_execute_chunk(
    cell: CellSpec | _ProcessCell,
) -> CellResult | _CellError | bytes:
    """Cell worker entry point: unpack a process cell, run guarded.

    A :class:`_ProcessCell` gets its instance back (from the post or
    its own field) and returns its :class:`CellResult` pickled by
    :func:`_dumps`, for the parent to finish with :func:`_loads`.  Only
    the cell itself is guarded: a post that cannot be attached raises
    out of the worker, a pool infrastructure failure that rebuilds the
    pool and then reruns the grid serially.  The benchmark's span
    tracer looks this entry point up by name.
    """
    if not isinstance(cell, _ProcessCell):
        return _guarded_execute(cell)
    instance = _from_shm(*cell.shm) if cell.shm else cell.instance
    result = _guarded_execute(_loads(cell.spec, instance))
    if isinstance(result, _CellError):
        return result
    return _dumps(result, instance)


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


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill a process pool's workers now, whatever they are running."""
    terminate = getattr(pool, "terminate_workers", None)
    if terminate is not None:  # Python 3.14+
        terminate()
        return
    for process in list((pool._processes or {}).values()):
        process.terminate()
    # The call queue's feeder thread may be blocked writing a payload
    # larger than the pipe buffer to the dead workers; with the parent's
    # read end closed too the write fails instead of blocking forever,
    # so the pool can be joined.  (CPython's own fix, gh-94777, is
    # missing from some 3.11 builds.)
    pool._call_queue._reader.close()


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


#: One payload's final state from the attempt loop: ``fn``'s value or
#: the last :class:`_CellError`, the executions burnt on it, and
#: whether an open circuit cut it short.
_Settled = tuple[object, int, bool]


class TaskPool:
    """An executor pool that lives across calls.

    :func:`run_tasks` and :func:`run_cells` are one-shot ``TaskPool``
    runs; callers that fan out repeatedly over the same task family (the
    federation's warm shard pool, bench repetitions) instead hold one so
    workers — and whatever warm per-process state they have accumulated
    (attached shared-memory posts, per-shard engines and their program
    caches) — survive across calls.  Worker exceptions come back as
    :class:`TaskFailure` values in payload order, retries follow
    :attr:`ExecutionPolicy.retries` with exponential backoff, waits
    honour :attr:`ExecutionPolicy.timeout` (a timed-out process pool is
    replaced by a fresh one), and pool-infrastructure failures rebuild
    the pool once, then fall back to a serial rerun of the batch (the
    report records the fallback).  Results are bit-identical across
    modes for pure ``fn``.

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

    def _discard_pool(
        self, wait: bool = False, terminate: bool = False
    ) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            if terminate:
                _terminate_workers(pool)
            # Joining a terminated pool only reaps its dead workers.
            pool.shutdown(wait=wait or terminate, cancel_futures=True)
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def _recycle(self, in_flight: deque, resubmit) -> None:
        """Replace the pool after a timeout; move its unfinished tasks.

        Process workers are terminated, so every task the old pool had
        not finished is resubmitted to a fresh one.  Threads cannot be
        stopped: tasks still queued move to the fresh pool, and tasks
        already running finish on the abandoned pool's threads.
        """
        process = self.mode == "process"
        moved = [
            position
            for position, (_, future) in enumerate(in_flight)
            if (not future.done() if process else future.cancel())
        ]
        self._discard_pool(terminate=process)
        for position in moved:
            index = in_flight[position][0]
            in_flight[position] = (index, resubmit(index))

    def _settle(
        self,
        call,
        payloads: list,
        policy: ExecutionPolicy,
        report: ExecutionReport,
        telemetry,
        circuits: list[str] | None,
    ) -> list[_Settled]:
        """The attempt loop: run every payload to its final value.

        ``call`` is the worker entry point: it returns a value or a
        :class:`_CellError`, and whatever it raises is a pool
        infrastructure failure.  Results are taken head-of-line in
        payload order, and a failed head is retried before the next one
        is looked at, so outcomes and accounting match a serial run.
        ``circuits`` (the cells' algorithm names) turns on the breaker
        and its lazy submission window; without it the whole batch is
        submitted at once.
        """
        serial = report.mode == "serial"
        keys = circuits or [None] * len(payloads)
        breaker = _CircuitBreaker(
            policy.breaker_threshold if circuits else 0
        )
        window = 1 if serial else (
            self.workers if circuits else len(payloads)
        )
        settled: list = [None] * len(payloads)
        in_flight: deque = deque()  # (index, future), submission order
        next_index = 0

        def submit(index: int) -> Future:
            if not serial:
                return self._ensure_pool().submit(call, payloads[index])
            future = Future()
            future.set_result(call(payloads[index]))
            return future

        def wait(index: int, future: Future):
            try:
                return future.result(timeout=policy.timeout)
            except FuturesTimeoutError:
                report.timeouts += 1
                _note(telemetry, "executor.timeouts")
                self._recycle(in_flight, submit)
                return _CellError(
                    "TimeoutError",
                    f"task {index} exceeded the {policy.timeout}s budget",
                )

        def fail(index: int, error: _CellError, attempts: int,
                 circuit_open: bool) -> _Settled:
            report.cell_failures += 1
            _note(telemetry, "executor.cell_failures")
            breaker.record_failure(keys[index])
            return error, attempts, circuit_open

        def top_up() -> None:
            # Cells behind an open circuit fail here, before they are
            # ever submitted.
            nonlocal next_index
            while next_index < len(payloads) and len(in_flight) < window:
                index = next_index
                next_index += 1
                if breaker.is_open(keys[index]):
                    report.short_circuited += 1
                    skipped = "cell skipped" if serial else (
                        "cell not submitted"
                    )
                    settled[index] = fail(
                        index,
                        _CellError(
                            "CircuitOpen",
                            f"circuit open for {keys[index]!r}; {skipped}",
                        ),
                        0,
                        True,
                    )
                else:
                    in_flight.append((index, submit(index)))

        top_up()
        while in_flight:
            index, future = in_flight.popleft()
            value = wait(index, future)
            # A circuit that opened while this task was in flight
            # disables its retries; a result is still accepted.
            circuit_open = breaker.is_open(keys[index])
            attempts = 1
            while (
                isinstance(value, _CellError)
                and not circuit_open
                and attempts <= policy.retries
            ):
                report.retries += 1
                _note(telemetry, "executor.retries")
                _backoff_sleep(policy, attempts)
                value = wait(index, submit(index))
                attempts += 1
            if isinstance(value, _CellError):
                settled[index] = fail(index, value, attempts, circuit_open)
            else:
                breaker.record_success(keys[index])
                settled[index] = (value, attempts, False)
            top_up()
        report.breaker_trips = breaker.trips
        _note(telemetry, "executor.breaker_trips", breaker.trips)
        return settled

    def _run(
        self,
        call,
        payloads: list,
        policy: ExecutionPolicy | None,
        telemetry,
        circuits: list[str] | None = None,
        serial_payloads: list | None = None,
    ) -> tuple[list[_Settled], ExecutionReport]:
        """Settle a batch on the pool, rebuilding it once if it breaks.

        Serial mode (or one worker, or a single payload) bypasses the
        pool entirely.  A second pool-infrastructure failure falls back
        to a serial rerun of the whole batch with fresh accounting.
        Serial runs take ``serial_payloads`` when given (the cells'
        plain specs, in place of their shared-memory posts).
        """
        if self._closed:
            raise ReproError("TaskPool is closed")
        policy = policy or self.policy
        fallback = False
        if self.mode != "serial" and self.workers > 1 and len(payloads) > 1:
            for _ in range(2):
                report = ExecutionReport(
                    mode=self.mode,
                    requested_mode=self.mode,
                    transport="pickle" if self.mode == "process" else "inline",
                )
                try:
                    return self._settle(
                        call, payloads, policy, report, telemetry, circuits
                    ), report
                except (
                    pickle.PicklingError,
                    AttributeError,
                    TypeError,
                    BrokenExecutor,
                    OSError,
                    RuntimeError,
                ):
                    # Unpicklable payloads, killed workers, fork limits,
                    # a post a worker cannot attach.  Task-level
                    # exceptions are already values and never land here.
                    self._discard_pool()
            fallback = True
        report = ExecutionReport(
            mode="serial", requested_mode=self.mode, fallback=fallback
        )
        if serial_payloads is not None:
            payloads = serial_payloads
        return self._settle(
            call, payloads, policy, report, telemetry, circuits
        ), report

    def run(
        self,
        fn,
        payloads,
        *,
        policy: ExecutionPolicy | None = None,
        telemetry=None,
    ) -> tuple[list, ExecutionReport]:
        """Fan ``fn`` across ``payloads`` on the persistent pool.

        Same contract and return shape as :func:`run_tasks`.
        """
        settled, report = self._run(
            functools.partial(_guarded_call, fn),
            list(payloads),
            policy,
            telemetry,
        )
        return [
            TaskFailure(index, value.error_type, value.message, attempts)
            if isinstance(value, _CellError)
            else value
            for index, (value, attempts, _) in enumerate(settled)
        ], report

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

    The federation layer uses it to replay station shards in parallel.
    The pool is sized ``min(workers, len(payloads))``, runs the batch
    once and is shut down before this returns; everything else
    (failures as :class:`TaskFailure` values in payload order, retries,
    timeouts, rebuild-then-serial fallback on pool-infrastructure
    failures such as unpicklable ``fn``/payloads or fork limits) is
    :meth:`TaskPool.run`.  Results are bit-identical across modes
    whenever ``fn`` is pure.

    Args:
        fn: A picklable pure function of one payload.
        payloads: The inputs, in the order results must come back.
        workers: Pool width; ``<= 1`` runs serially.
        mode: ``"serial"`` (default), ``"thread"``, or ``"process"``.
        policy: Timeout, retry and backoff knobs (the breaker applies
            to sweep cells only).
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

    A one-shot :class:`TaskPool` run of the cell family: the breaker
    and the lazy submission window are on, and process runs post each
    shared instance to shared memory (degrading to pickled payloads if
    the block cannot be made).  No process cell or result pickles the
    instance itself; a fresh schedule comes back holding the spec's own
    instance object.

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
        and transport actually used plus retry/failure/breaker
        accounting.

    Raises:
        ReproError: For unknown modes.  Cell-level exceptions (a raising
            scheduler, a measurement error) never propagate — they come
            back as :class:`CellFailure` entries.  Pool-infrastructure
            failures (unpicklable specs, broken pools, fork limits)
            rebuild the pool once, then rerun the full grid serially.
    """
    specs = list(specs)
    posts: dict[int, _ShmPost] = {}
    with TaskPool(
        max(1, min(workers, len(specs))), mode, policy=policy
    ) as pool:
        payloads: list = specs
        shared = False
        try:
            if mode == "process" and pool.workers > 1:
                try:
                    payloads, shared = _ship_cells(specs, posts)
                except (pickle.PicklingError, AttributeError, TypeError):
                    # An unpicklable cell: the pool fails on it too and
                    # the grid ends on its serial rerun.
                    pass
            settled, report = pool._run(
                _guarded_execute_chunk,
                payloads,
                None,
                telemetry,
                circuits=[spec.algorithm for spec in specs],
                serial_payloads=specs,
            )
        finally:
            for post in posts.values():
                post.close()
    if report.mode == "process" and shared:
        report.transport = "shm"
    return [
        CellFailure(
            algorithm=spec.algorithm,
            channels=spec.channels,
            error_type=value.error_type,
            message=value.message,
            attempts=attempts,
            circuit_open=circuit_open,
        )
        if isinstance(value, _CellError)
        else replace(
            _loads(value, spec.instance)
            if isinstance(value, bytes)
            else value,
            attempts=attempts,
        )
        for spec, (value, attempts, circuit_open) in zip(specs, settled)
    ], report
