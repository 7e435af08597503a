"""Simulation substrate: event loop, client replay, on-demand and hybrid."""

from repro.sim.adaptive import (
    AdaptiveScheduler,
    DeadlineDrift,
    EpochReport,
    run_adaptive_simulation,
)
from repro.sim.cache import CachingResult, ClientCache, simulate_caching
from repro.sim.clients import (
    MeasurementResult,
    measure_program,
    replay_requests,
)
from repro.sim.estimator import DeadlineEstimator, ProbingCollector
from repro.sim.events import EventLoop
from repro.sim.hybrid import HybridConfig, HybridResult, simulate_hybrid
from repro.sim.metrics import StreamingStats, TimeWeightedStats
from repro.sim.multipage import (
    SetRequestResult,
    average_completion_time,
    completion_time,
    measure_set_requests,
    sample_page_sets,
)
from repro.sim.ondemand import OnDemandServer, OnDemandStats

__all__ = [
    "AdaptiveScheduler",
    "CachingResult",
    "ClientCache",
    "DeadlineDrift",
    "DeadlineEstimator",
    "EpochReport",
    "EventLoop",
    "HybridConfig",
    "HybridResult",
    "MeasurementResult",
    "OnDemandServer",
    "OnDemandStats",
    "ProbingCollector",
    "SetRequestResult",
    "StreamingStats",
    "TimeWeightedStats",
    "average_completion_time",
    "completion_time",
    "measure_program",
    "measure_set_requests",
    "replay_requests",
    "run_adaptive_simulation",
    "sample_page_sets",
    "simulate_caching",
    "simulate_hybrid",
]
