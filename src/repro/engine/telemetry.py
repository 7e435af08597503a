"""Observability layer: counters, stage timers and JSON run manifests.

Every :class:`~repro.engine.facade.BroadcastEngine` call produces a
:class:`RunManifest` — a structured, JSON-serialisable record of what
ran (operation, scheduler(s), channels, instance fingerprint), how it
ran (executor mode, worker count, per-stage timings) and what the cache
did (hits/misses for the run and for the engine's lifetime).  Manifests
are the machine-readable audit trail of an engine process: the CLI can
write them next to results, and regression tooling can diff them.

Manifest schema (``manifest_version`` 9)::

    {
      "manifest_version": 9,
      "run_id": 3,                      # per-engine monotonic counter
      "operation": "sweep",             # plan | schedule | evaluate |
                                        #   sweep | resilience | live |
                                        #   control | federate
      "created_at": 1754512345.123,     # unix seconds (0.0 when the
                                        #   operation pins determinism)
      "instance": {
        "fingerprint": "a1b2...",       # canonical digest (cache key part)
        "groups": 8, "pages": 1000,
        "group_sizes": [...], "expected_times": [...]
      },
      "parameters": {...},              # operation-specific inputs
      "schedulers": ["pamad", "m-pb"],  # canonical registry names
      "channels": [1, 2, 4],            # count(s) the run touched
      "executor": {
        "mode": "process", "workers": 4, "fallback": false,
        "retries": 0,                   # cell re-executions performed
        "cell_failures": 0,             # cells that produced no result
        "breaker_trips": 0,             # per-algorithm circuits opened
        "timeouts": 0,                  # per-future timeout expiries
        "chunk_size": 1,                # cells per pool future (v4)
        "measure_backend": "scalar",    # scalar | batch (v4)
        "short_circuited": 0,           # cells never submitted (v4)
        "transport": "shm",             # shm | pickle | inline (v8)
        "harvested": 0,                 # cells saved from timed-out
                                        #   chunks (v8)
        "compute_backend": "python"     # kernels that ran; always python (v8)
      },
      "cache": {"run": {...}, "total": {...}},   # CacheStats dicts
      "timings": {"schedule": {"seconds": 0.81, "calls": 6}, ...},
      "counters": {"cells": 6, ...},
      "service": {...},                 # live-runtime block (v3): trace
                                        #   fingerprint, admission/SLO
                                        #   summaries, and (v4) the
                                        #   counters.batched_listeners /
                                        #   events_coalesced /
                                        #   replans_avoided serving-
                                        #   throughput fields;
                                        #   {} otherwise
      "control": {...},                 # control-plane block (v5):
                                        #   remediation policy, the
                                        #   detector->proposer->verifier
                                        #   records, session stream
                                        #   fingerprint; (v6) the
                                        #   "durability" sub-block:
                                        #   accepted-request count +
                                        #   request-stream fingerprint
                                        #   (what journal recovery must
                                        #   reproduce byte-for-byte);
                                        #   {} otherwise
      "federation": {...},              # federation block (v7): shard
                                        #   count, ring fingerprint,
                                        #   pages moved by the drift
                                        #   rebalancer, global admission
                                        #   counters, per-shard report
                                        #   summaries; (v9) the
                                        #   "transport" field: how shard
                                        #   sub-traces crossed to the
                                        #   replay workers (inline |
                                        #   shm | pickle); {} otherwise
      "results": {...}                  # operation-specific summary
    }

Version history — version 2 added the ``resilience`` operation and the
executor hardening keys (``retries`` / ``cell_failures`` /
``breaker_trips`` / ``timeouts``); version 3 added the ``live``
operation and the ``service`` block; version 4 added the chunked-
transport executor keys (``chunk_size`` / ``measure_backend`` /
``short_circuited``) and the serving-throughput counters inside the
``service`` block (``batched_listeners`` / ``events_coalesced`` /
``replans_avoided``); version 5 added the ``control`` operation and the
``control`` block (the :mod:`repro.control` plane's remediation trail);
version 6 added the ``durability`` sub-block inside ``control`` (the
write-ahead journal's crash-recovery trail); version 7 added the
``federate`` operation and the ``federation`` block (the sharded
multi-station layer's ring placement, global admission and drift-
rebalance trail); version 8 added the zero-copy-transport executor keys
(``transport`` / ``harvested`` / ``compute_backend``); version 9 added
the ``transport`` field inside the ``federation`` block (how shard
sub-traces reach the replay workers: ``inline`` by reference, ``shm``
via one shared-memory listener post, ``pickle`` per shard plan).
:meth:`RunManifest.from_dict` parses every version back to 1,
defaulting the keys each newer version introduced, so consumers can
rely on the version-9 shape either way.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.core.errors import ReproError
from repro.core.pages import ProblemInstance
from repro.engine.cache import CacheStats, instance_fingerprint

__all__ = [
    "MANIFEST_VERSION",
    "Telemetry",
    "RunManifest",
    "describe_instance",
]

MANIFEST_VERSION = 9

#: Executor-block keys added in manifest version 2, with their defaults
#: (applied when parsing version-1 documents).
_EXECUTOR_V2_DEFAULTS = {
    "retries": 0,
    "cell_failures": 0,
    "breaker_trips": 0,
    "timeouts": 0,
}

#: Executor-block keys added in manifest version 4 (chunked transport),
#: with their defaults (applied when parsing version-1..3 documents).
_EXECUTOR_V4_DEFAULTS = {
    "chunk_size": 1,
    "measure_backend": "scalar",
    "short_circuited": 0,
}

#: Executor-block keys added in manifest version 8 (zero-copy
#: transport), with their defaults (applied when parsing version-1..7
#: documents; ``transport`` defaults per mode — older process-pool runs
#: pickled chunk payloads, everything else passed objects inline).
_EXECUTOR_V8_DEFAULTS = {
    "harvested": 0,
    "compute_backend": "python",
}

#: ``service.counters`` keys added in manifest version 4 (serving
#: throughput), defaulted to zero for older ``live`` manifests.
_SERVICE_COUNTERS_V4 = (
    "batched_listeners",
    "events_coalesced",
    "replans_avoided",
)

#: ``control.durability`` default applied to version-5 ``control``
#: blocks (which predate the write-ahead journal).  ``fingerprint``
#: ``None`` marks "no durability trail recorded", distinct from a
#: session that journaled zero requests.
_CONTROL_DURABILITY_V6_DEFAULT = {"requests": 0, "fingerprint": None}


class Telemetry:
    """Accumulating counters and wall-clock stage timers.

    The engine owns one instance and snapshots it into every manifest;
    :meth:`snapshot` deltas let a single run report only its own share.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._timers: dict[str, dict[str, float]] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Bump a named counter."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def record_timing(self, name: str, seconds: float) -> None:
        """Fold an externally-measured duration into a named timer."""
        timer = self._timers.setdefault(name, {"seconds": 0.0, "calls": 0})
        timer["seconds"] += seconds
        timer["calls"] += 1

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the named timer."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record_timing(name, time.perf_counter() - started)

    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def timers(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "seconds": round(timer["seconds"], 6),
                "calls": int(timer["calls"]),
            }
            for name, timer in self._timers.items()
        }

    def snapshot(self) -> dict:
        """Both tables, as plain JSON-ready dicts."""
        return {"counters": self.counters(), "timers": self.timers()}

    @staticmethod
    def delta(
        after: Mapping[str, dict], before: Mapping[str, dict]
    ) -> dict:
        """Per-run share of two :meth:`snapshot` results."""
        counters = {
            name: value - before["counters"].get(name, 0)
            for name, value in after["counters"].items()
        }
        timers = {}
        for name, timer in after["timers"].items():
            prior = before["timers"].get(name, {"seconds": 0.0, "calls": 0})
            timers[name] = {
                "seconds": round(timer["seconds"] - prior["seconds"], 6),
                "calls": timer["calls"] - prior["calls"],
            }
        return {
            "counters": {k: v for k, v in counters.items() if v},
            "timers": {k: v for k, v in timers.items() if v["calls"]},
        }

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()


def describe_instance(instance: ProblemInstance) -> dict:
    """The instance block of a manifest (fingerprint + shape)."""
    return {
        "fingerprint": instance_fingerprint(instance),
        "groups": instance.h,
        "pages": instance.n,
        "group_sizes": list(instance.group_sizes),
        "expected_times": list(instance.expected_times),
    }


@dataclass(frozen=True)
class RunManifest:
    """One engine call, fully described (see the module docstring schema)."""

    run_id: int
    operation: str
    created_at: float
    instance: Mapping[str, object]
    parameters: Mapping[str, object]
    schedulers: tuple[str, ...]
    channels: tuple[int, ...]
    executor: Mapping[str, object]
    cache_run: CacheStats
    cache_total: CacheStats
    timings: Mapping[str, Mapping[str, float]]
    counters: Mapping[str, int]
    results: Mapping[str, object] = field(default_factory=dict)
    service: Mapping[str, object] = field(default_factory=dict)
    control: Mapping[str, object] = field(default_factory=dict)
    federation: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "operation": self.operation,
            "created_at": self.created_at,
            "instance": dict(self.instance),
            "parameters": dict(self.parameters),
            "schedulers": list(self.schedulers),
            "channels": list(self.channels),
            "executor": dict(self.executor),
            "cache": {
                "run": self.cache_run.as_dict(),
                "total": self.cache_total.as_dict(),
            },
            "timings": {k: dict(v) for k, v in self.timings.items()},
            "counters": dict(self.counters),
            "service": dict(self.service),
            "control": dict(self.control),
            "federation": dict(self.federation),
            "results": dict(self.results),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunManifest":
        """Parse a manifest document of any supported schema version.

        Accepts version 1 through 9 documents: the hardening keys
        missing from version-1 executor blocks default to zero, the
        ``service`` block missing below version 3 defaults to ``{}``,
        the version-4 chunked-transport executor keys and serving-
        throughput service counters default to their quiescent values,
        the version-5 ``control`` block defaults to ``{}``, a
        non-empty pre-v6 ``control`` block gains a defaulted
        ``durability`` sub-block, the version-7 ``federation`` block
        defaults to ``{}``, the version-8 zero-copy-transport
        executor keys default to what the older executors actually did
        (``transport`` ``"pickle"`` for process mode, ``"inline"``
        otherwise; ``compute_backend`` ``"python"``), and a non-empty
        pre-v9 ``federation`` block gains a ``transport`` field
        defaulted the same way (older federations pickled shard plans
        under process fan-out and passed them inline otherwise) — so
        consumers can rely on the version-9 shape either way.

        Raises:
            ReproError: For unknown (newer) versions or documents missing
                required keys.
        """
        version = payload.get("manifest_version")
        if not isinstance(version, int) or not 1 <= version <= MANIFEST_VERSION:
            raise ReproError(
                f"unsupported manifest_version {version!r}; this build "
                f"reads versions 1..{MANIFEST_VERSION}"
            )
        try:
            cache_block = payload.get("cache", {})
            executor = dict(payload["executor"])
            for key, default in _EXECUTOR_V2_DEFAULTS.items():
                executor.setdefault(key, default)
            for key, default in _EXECUTOR_V4_DEFAULTS.items():
                executor.setdefault(key, default)
            for key, default in _EXECUTOR_V8_DEFAULTS.items():
                executor.setdefault(key, default)
            executor.setdefault(
                "transport",
                "pickle" if executor.get("mode") == "process" else "inline",
            )
            service = dict(payload.get("service", {}))
            if "counters" in service:
                counters = dict(service["counters"])
                for key in _SERVICE_COUNTERS_V4:
                    counters.setdefault(key, 0)
                service["counters"] = counters
            control = dict(payload.get("control", {}))
            if control:
                control.setdefault(
                    "durability", dict(_CONTROL_DURABILITY_V6_DEFAULT)
                )
            federation = dict(payload.get("federation", {}))
            if federation:
                federation.setdefault(
                    "transport",
                    "pickle"
                    if executor.get("mode") == "process"
                    else "inline",
                )
            return cls(
                run_id=int(payload["run_id"]),
                operation=str(payload["operation"]),
                created_at=float(payload["created_at"]),
                instance=dict(payload["instance"]),
                parameters=dict(payload.get("parameters", {})),
                schedulers=tuple(payload.get("schedulers", ())),
                channels=tuple(
                    int(c) for c in payload.get("channels", ())
                ),
                executor=executor,
                cache_run=_cache_stats_from(cache_block.get("run", {})),
                cache_total=_cache_stats_from(cache_block.get("total", {})),
                timings={
                    str(k): dict(v)
                    for k, v in payload.get("timings", {}).items()
                },
                counters=dict(payload.get("counters", {})),
                results=dict(payload.get("results", {})),
                service=service,
                control=control,
                federation=federation,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(
                f"malformed manifest document: {error}"
            ) from error

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Parse a manifest from its JSON serialisation."""
        return cls.from_dict(json.loads(text))


def _cache_stats_from(block: Mapping[str, object]) -> CacheStats:
    return CacheStats(
        hits=int(block.get("hits", 0)),
        misses=int(block.get("misses", 0)),
        evictions=int(block.get("evictions", 0)),
        entries=int(block.get("entries", 0)),
    )
