"""Layer spans recorded from outside the program.

The benchmark never edits the program.  For a traced run it wraps the
public entry points of each layer (``federation``, ``live``,
``engine``, ``core``, ``baselines``, ``sim``, ``control``, ``api``) in
spans, keeps every span in memory and writes them out when the run
ends.  A span is ``(name, start, end, parent, op, attrs)``; a layer's
self time is its span minus the time its child spans cover.

Process pools fork after the wrappers are installed, so pool workers
inherit them.  A worker records its own spans and, after each cell it
ran, writes them to a file in the work directory; the parent reads
those files back after the operation (:meth:`Tracer.harvest`).
Worker spans are busy time on another core: they are reported per
layer but are never part of the parent's self-time sum.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span record field positions.
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """An in-memory span stack for one process."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.pid = self.parent_pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.worker_spans: list[list] = []
        self._flushes = 0

    # -- recording -----------------------------------------------------

    def _own_process(self) -> None:
        """After a fork, forget the parent's spans and open stack."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.stack = []
            self.counts = Counter()
            self.worker_spans = []
            self._flushes = 0

    def begin(self, name: str, attrs: dict | None = None) -> int:
        self._own_process()
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.op, attrs]
        )
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][NAME]!r} closed out of order"
            )

    def count(self, name: str, amount: int = 1) -> None:
        self._own_process()
        self.counts[name] += amount

    # -- pool workers ----------------------------------------------------

    def flush_worker(self) -> None:
        """Write a worker's closed spans to the work directory."""
        self._own_process()
        if os.getpid() == self.parent_pid or not self.spans:
            return
        self._flushes += 1
        path = self.workdir / f"spans-{os.getpid()}-{self._flushes}.json"
        payload = {
            "spans": [s[:3] + [s[PARENT], s[ATTRS]] for s in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        self.spans = []
        self.counts = Counter()

    def harvest(self) -> None:
        """Collect span files the pool workers wrote for this operation."""
        for path in sorted(self.workdir.glob("spans-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            offset = len(self.worker_spans)
            for name, start, end, parent, attrs in payload["spans"]:
                if parent >= 0:
                    parent += offset
                self.worker_spans.append(
                    [name, start, end, parent, self.op, attrs]
                )
            self.counts.update(payload["counts"])


def _is_repro_module(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` elsewhere.

    Functions imported by name (``from x import f``) live on in each
    importing module; all of them must see the wrapper, and pickling by
    reference must resolve to the very same object.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not _is_repro_module(module_name):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _traced(tracer: Tracer, original, name: str, attrs_of=None, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
        index = tracer.begin(name, attrs)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, index, result)
        return result

    return wrapper


def _patch_method(tracer, cls, attr, name, attrs_of=None, after=None):
    original = getattr(cls, attr)
    setattr(cls, attr, _traced(tracer, original, name, attrs_of, after))


def _patch_function(tracer, module, attr, name, attrs_of=None, after=None):
    """Wrap a module function everywhere it is bound, the scheduler
    registry's entries included."""
    original = getattr(module, attr)
    wrapper = _traced(tracer, original, name, attrs_of, after)
    replace_everywhere(original, wrapper)
    from repro.engine import registry

    entries = registry._DEFAULT_REGISTRY._entries
    for key, value in list(entries.items()):
        if value is original:
            entries[key] = wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points in spans, once per process."""
    import repro.api.codec as codec
    import repro.baselines.mpb as mpb
    import repro.baselines.opt as opt
    import repro.control.journal as journal
    import repro.control.plane as plane
    import repro.control.remediation as remediation
    import repro.core.pamad as pamad
    import repro.core.susc as susc
    import repro.engine.cache as cache
    import repro.engine.executor as executor
    import repro.engine.facade as facade
    import repro.federation.service as federation
    import repro.live.replan as replan
    import repro.live.service as live
    import repro.live.slo as slo
    import repro.sim.clients as clients

    # federation
    _patch_method(tracer, federation.FederatedBroadcastService, "run",
                  "federation.run")
    _patch_method(tracer, federation.FederatedBroadcastService, "route",
                  "federation.route")
    _patch_function(tracer, federation, "replay_shard_task",
                    "federation.shard",
                    attrs_of=lambda plan: {"shard": plan.shard})

    # live
    _patch_method(tracer, live.LiveBroadcastService, "run", "live.run")
    _patch_method(tracer, live.LiveBroadcastService, "offer", "live.offer")
    _patch_method(tracer, slo.SloTracker, "observe_batch", "live.slo_fold")

    def note_patch(tracer, index, result):
        tracer.count("replan.patch_attempts")
        if result is not None:
            tracer.count("replan.patched")

    _patch_method(tracer, replan.FastReplanner, "try_patch",
                  "live.try_patch", after=note_patch)

    # engine
    _patch_method(tracer, facade.BroadcastEngine, "schedule",
                  "engine.schedule")
    _patch_method(tracer, facade.BroadcastEngine, "sweep", "engine.sweep")
    original_get = cache.ProgramCache.get

    @functools.wraps(original_get)
    def counted_get(self, key):
        entry = original_get(self, key)
        tracer.count("engine.cache_hits" if entry is not None
                     else "engine.cache_misses")
        return entry

    cache.ProgramCache.get = counted_get

    def note_report(tracer, index, result):
        report = result[1]
        tracer.count("executor.retries", int(report.retries))
        tracer.count("executor.failures", int(report.cell_failures))
        tracer.spans[index][ATTRS] = {
            "mode": report.mode, "transport": report.transport,
        }

    _patch_function(tracer, executor, "run_cells", "executor.run",
                    after=note_report)
    _patch_function(tracer, executor, "run_tasks", "executor.run",
                    after=note_report)
    _patch_function(tracer, executor, "execute_cell", "executor.cell")
    chunk = executor._guarded_execute_chunk

    @functools.wraps(chunk)
    def flushed_chunk(spec):
        try:
            return chunk(spec)
        finally:
            tracer.flush_worker()

    replace_everywhere(chunk, flushed_chunk)
    guarded = executor._guarded_execute

    @functools.wraps(guarded)
    def flushed_cell(*args, **kwargs):
        try:
            return guarded(*args, **kwargs)
        finally:
            tracer.flush_worker()

    # Single-cell retries are submitted straight to the pool.
    replace_everywhere(guarded, flushed_cell)

    # core and baselines (module globals and registry entries alike)
    _patch_function(tracer, susc, "schedule_susc", "core.plan")
    _patch_function(tracer, pamad, "schedule_pamad", "core.plan")
    _patch_function(tracer, opt, "schedule_opt", "baselines.opt")
    _patch_function(tracer, mpb, "schedule_mpb", "baselines.mpb")

    # sim
    _patch_function(tracer, clients, "measure_with_backend", "sim.measure")
    _patch_function(tracer, clients, "measure_program", "sim.measure")

    # control
    _patch_method(tracer, plane.ControlPlane, "handle", "control.dispatch",
                  attrs_of=lambda self, message: {
                      "type": type(message).__name__})
    _patch_method(tracer, plane.ControlPlane, "handle_line",
                  "control.handle_line",
                  after=lambda tracer, index, result: tracer.count(
                      "api.response_bytes", len(result)))
    _patch_method(tracer, journal.Journal, "append",
                  "control.journal_append")
    _patch_method(tracer, remediation.RemediationEngine, "step",
                  "control.remediation")

    # api
    _patch_function(tracer, codec, "encode_line", "api.codec")
    _patch_function(tracer, codec, "decode_line", "api.codec")


# ----------------------------------------------------------------------
# Reading a trace
# ----------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    own = [s[END] - s[START] for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def by_op(spans: list[list]) -> dict[int, list[int]]:
    grouped: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[OP] is not None:
            grouped[span[OP]].append(index)
    return grouped


def write_trace(path: Path, tracer: Tracer, extra: dict) -> None:
    """Write every span (parent process and pool workers) as JSON."""
    payload = {
        "fields": ["name", "start", "end", "parent", "op", "attrs"],
        "spans": tracer.spans,
        "worker_spans": tracer.worker_spans,
        "counts": dict(tracer.counts),
        **extra,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
