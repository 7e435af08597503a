"""Reference implementations that the serving fast paths are tested against.

Nothing in the serving path imports this module: it holds the slow,
obviously-correct versions of computations the serving code performs
in a faster way, so tests (and the legacy bench suites, which refuse
to time a fast path that changes an answer) can compare the two.

* :func:`route_sequential` — the federation's per-event router.  Every
  event, listener arrivals included, walks the catalog control loop one
  Python iteration at a time; the columnar
  :meth:`~repro.federation.service.FederatedBroadcastService.route`
  must produce the same :class:`~repro.federation.service.RoutedTrace`.
* :func:`federate_sequential` — a full federation run whose routing
  phase is :func:`route_sequential`; its report must equal
  :meth:`~repro.federation.service.FederatedBroadcastService.run`'s
  byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.federation.service import (
    FederatedBroadcastService,
    FederationReport,
    RoutedTrace,
    _RouterState,
)

__all__ = ["federate_sequential", "route_sequential"]


def route_sequential(service: FederatedBroadcastService) -> RoutedTrace:
    """The reference pass: every event walks the control loop."""
    state = _RouterState(service)
    controller = state.controller
    routing = state.routing
    listener_shard = np.full(len(service.trace.events), -1, dtype=np.int64)
    for index, event in enumerate(service.trace.events):
        if event.kind == "listener":
            shard = controller.locate(event.page_id)
            if shard is None:
                shard = service._effective_owner(
                    int(event.expected_time or 1)
                )
                routing["orphan_listeners"] += 1
            listener_shard[index] = shard
            routing["listeners_routed"] += 1
        else:
            state.handle_catalog(event)
    state.finish()
    return RoutedTrace(
        controller=controller,
        decisions=state.decisions,
        rebalances=state.rebalances,
        routing=routing,
        catalog_events=state.catalog_events,
        listener_shard=listener_shard,
    )


def federate_sequential(
    service: FederatedBroadcastService, **run_kwargs
) -> FederationReport:
    """Run ``service`` with the reference router (once per service).

    ``run_kwargs`` are :meth:`FederatedBroadcastService.run`'s fan-out
    arguments (``workers``, ``mode``, ``policy``, ``telemetry``,
    ``pool``).
    """
    return service._replay(route_sequential(service), **run_kwargs)
