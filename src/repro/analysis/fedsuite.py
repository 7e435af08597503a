"""The federation-scaling perf suite behind ``repro-air bench --suite fed``.

:mod:`repro.analysis.perfsuite` pins the scheduling core and
:mod:`repro.analysis.servesuite` pins single-station serving; this
module pins the *federation* win twice over:

* ``fed_scale_N`` — sharding one large catalog across N stations makes
  mutation-heavy replay dramatically cheaper, because every admitted
  mutation re-plans a ~K/N-page shard catalog instead of the full K
  pages (the paper's schedulers are super-linear in catalog size), and
  listener replay touches only the owning shard.  Each entry replays
  the *same* seeded mutation trace through
  :class:`~repro.federation.service.FederatedBroadcastService` twice —
  reference = 1 shard (the whole catalog behind one station, identical
  routing overhead), fast = N shards — so the ratio isolates the
  partitioning win from router cost.  Budgets are left at ``None``
  (each arm's own taut Theorem-3.1 minimum), the fair comparison: a
  fixed global budget would either starve the 1-shard arm or slacken
  the N-shard arms.
* ``fed_router_8`` — the hot-path win at fixed topology: the same
  listener-heavy 8-shard federation routed by the sequential reference
  (:func:`repro.oracles.federate_sequential`, one Python iteration per
  listener) versus the columnar router (vectorised listener passes,
  presorted zero-copy sub-trace assembly, columnar fingerprints).  In
  full mode the trace carries one million listeners, the headline
  serving-scale workload.

Every builder first replays its workload through *both* routers and
asserts the two :class:`~repro.federation.service.FederationReport`
documents are byte-identical — the suite refuses to time an
optimisation that changes answers.

The payload (``benchmarks/results/BENCH_fed.json``) follows the
BENCH_core contract — ratios not absolute times, best-of-N minimum
timing, ``quick``/full modes, per-entry ``floor`` gates — and is
validated and regression-gated by the same
:func:`~repro.analysis.perfsuite.validate_payload` /
:func:`~repro.analysis.perfsuite.compare_payloads` (parameterised by
schema).  Each entry's ``stats`` block carries the scaling headline
numbers (listeners/sec per arm, full re-plans per arm, pages moved,
the byte-identity verdict) quoted in README and DESIGN.
"""

from __future__ import annotations

import json
from typing import Callable

from repro import __version__
from repro.core.errors import SimulationError

__all__ = [
    "SCHEMA",
    "SUITE_ENTRIES",
    "run_suite",
]

SCHEMA = "repro-air/bench-fed/v1"

# name -> (floor, builder).  A builder maps quick -> (config, reference
# thunk, fast thunk, stats_fn); thunks are timed best-of-N and
# stats_fn(reference_s, fast_s) derives the stats block.
_Builder = Callable[[bool], tuple]


def _fed_workload(
    quick: bool,
    listeners: int | None = None,
    mutations: int | None = None,
):
    """A geometric ladder plus its seeded mutation/listener timeline."""
    from repro.core.pages import instance_from_counts
    from repro.workload.mutations import generate_mutation_trace

    group_size = 10 if quick else 40
    instance = instance_from_counts(
        (group_size,) * 8, (4, 8, 16, 32, 64, 128, 256, 512)
    )
    trace = generate_mutation_trace(
        instance,
        seed=11,
        horizon=128 if quick else 256,
        mutations=(
            mutations
            if mutations is not None
            else (60 if quick else 200)
        ),
        listeners=(
            listeners
            if listeners is not None
            else (800 if quick else 4_000)
        ),
    )
    trace.fingerprint()  # memoise outside the timers
    trace.columns()  # memoise the columnar view outside the timers too
    return instance, trace


def _assert_byte_identical(columnar, sequential, entry: str) -> None:
    """Refuse to time a router that changes a single report byte."""
    a = json.dumps(columnar.as_dict(), sort_keys=True)
    b = json.dumps(sequential.as_dict(), sort_keys=True)
    if a != b:
        raise SimulationError(
            f"{entry}: columnar and sequential routers disagree; "
            "refusing to benchmark an optimisation that changes answers"
        )


def _federation(instance, trace, shards: int):
    from repro.federation.service import FederatedBroadcastService

    return FederatedBroadcastService(
        instance,
        trace,
        shards=shards,
        budget=None,
        seed=0,
        rebalance_threshold=1.5,
        max_pages_moved=4,
        batch_listeners=True,
    )


def _build_scale(shards: int) -> _Builder:
    def build(quick: bool):
        from repro.federation import service as federation
        from repro.oracles import federate_sequential

        instance, trace = _fed_workload(quick)

        def replay(n: int, reference: bool = False):
            # A fresh service per call: replay is once-only by design.
            # Every replay starts on cold shard engines — this entry
            # pins the *partitioning* win on cold per-mutation
            # re-planning, and warm program caches would hide exactly
            # that cost (in both arms equally, collapsing the ratio to
            # ~1).
            federation._WARM_ENGINES.clear()
            service = _federation(instance, trace, n)
            if reference:
                return federate_sequential(service)
            return service.run()

        reference_probe = replay(1)
        fast_probe = replay(shards)
        _assert_byte_identical(
            fast_probe, replay(shards, reference=True), f"fed_scale_{shards}"
        )
        listeners = reference_probe.listeners
        config = {
            "shards": shards,
            "pages": instance.n,
            "groups": len(instance.groups),
            "mutations": len(trace.mutations()),
            "listeners": len(trace.listeners()),
            "horizon": trace.horizon,
            "budget": "per-arm Theorem-3.1 minimum",
            "rebalance_threshold": 1.5,
            "max_pages_moved": 4,
            "shard_engines": "cold",
        }

        def stats(reference_s: float, fast_s: float) -> dict:
            return {
                "listeners_per_second_reference": round(
                    listeners / reference_s
                ),
                "listeners_per_second_fast": round(listeners / fast_s),
                "full_replans_reference": reference_probe.counters[
                    "full_replans"
                ],
                "full_replans_fast": fast_probe.counters["full_replans"],
                "pages_moved": fast_probe.pages_moved,
                "byte_identical": True,
            }

        return config, lambda: replay(1), lambda: replay(shards), stats

    return build


def _build_router(shards: int) -> _Builder:
    """Sequential-router reference vs columnar hot path, same topology."""

    def build(quick: bool):
        from repro.oracles import federate_sequential

        # Listener-heavy, mutation-light: this entry isolates the
        # router, so per-mutation re-planning (already pinned by the
        # fed_scale entries) is kept off the critical path.
        instance, trace = _fed_workload(
            quick,
            listeners=150_000 if quick else 1_000_000,
            mutations=24 if quick else 96,
        )

        def replay(reference: bool):
            service = _federation(instance, trace, shards)
            if reference:
                return federate_sequential(service)
            return service.run()

        reference_probe = replay(True)
        fast_probe = replay(False)
        _assert_byte_identical(
            fast_probe, reference_probe, f"fed_router_{shards}"
        )
        listeners = fast_probe.listeners
        config = {
            "shards": shards,
            "pages": instance.n,
            "groups": len(instance.groups),
            "mutations": len(trace.mutations()),
            "listeners": len(trace.listeners()),
            "horizon": trace.horizon,
            "budget": "per-arm Theorem-3.1 minimum",
            "rebalance_threshold": 1.5,
            "max_pages_moved": 4,
            "shard_engines": "warm",
            "reference": "sequential router",
            "fast": "columnar router",
        }

        def stats(reference_s: float, fast_s: float) -> dict:
            return {
                "listeners_per_second_reference": round(
                    listeners / reference_s
                ),
                "listeners_per_second_fast": round(listeners / fast_s),
                "orphan_listeners": fast_probe.routing[
                    "orphan_listeners"
                ],
                "pages_moved": fast_probe.pages_moved,
                "byte_identical": True,
            }

        return (
            config,
            lambda: replay(True),
            lambda: replay(False),
            stats,
        )

    return build


SUITE_ENTRIES: dict[str, tuple[float, _Builder]] = {
    "fed_scale_2": (1.5, _build_scale(2)),
    "fed_scale_4": (2.5, _build_scale(4)),
    "fed_scale_8": (3.0, _build_scale(8)),
    "fed_router_8": (1.3, _build_router(8)),
}


def run_suite(quick: bool = False, repeats: int = 3) -> dict:
    """Time every suite entry; returns the BENCH_fed payload."""
    from repro.analysis.perfsuite import _best_of

    if repeats < 1:
        raise SimulationError(f"repeats must be >= 1, got {repeats}")
    benchmarks = {}
    for name, (floor, builder) in SUITE_ENTRIES.items():
        config, reference, fast, stats = builder(quick)
        # The builder already ran both arms once (warm + probe).
        reference_s = _best_of(reference, 1, repeats)
        fast_s = _best_of(fast, 1, repeats)
        benchmarks[name] = {
            "config": config,
            "reference_ms": round(reference_s * 1000.0, 4),
            "fast_ms": round(fast_s * 1000.0, 4),
            "speedup": round(reference_s / fast_s, 2),
            "floor": floor,
            "stats": stats(reference_s, fast_s),
        }
    return {
        "schema": SCHEMA,
        "version": __version__,
        "quick": quick,
        "repeats": repeats,
        "benchmarks": benchmarks,
    }
