"""One hosted service: the typed-API surface over a live runtime.

A :class:`ServiceSession` binds together everything a named service on
the control plane owns:

* a private :class:`~repro.engine.facade.BroadcastEngine` (fresh cache
  and telemetry per service, the same isolation :meth:`engine.live`
  relies on for byte-identical replay);
* a :class:`~repro.live.service.LiveBroadcastService` driven through
  its online stepping surface (``start`` / ``offer`` / ``finish``);
* a :class:`~repro.control.remediation.RemediationEngine` stepped after
  every event;
* a running SHA-256 over the canonical event stream — the *stream
  fingerprint* recorded in the manifest, the analogue of a trace
  fingerprint for sessions that were never a trace object;
* a running SHA-256 over the canonical *request* stream (the create
  request plus every accepted mutation batch) — the durability trail
  recorded in the manifest's ``control.durability`` block (schema v6),
  which recovery from a write-ahead journal reproduces byte-for-byte.
  The plane hands each mutating request in with its canonical
  :func:`~repro.api.codec.encode_line` frame, the line the journal
  recorded, so the trail digests that line instead of encoding the
  request again.

What-ifs — an :class:`SloQuery` and every remediation candidate — are
priced on the catalog's ``expected_time -> page count`` histogram
(Theorem 3.1 and the PAMAD model read nothing else), never on a copy of
the page mapping.

The session answers the typed requests (:class:`MutationBatch`,
:class:`SloQuery`, :class:`ErrorBudgetQuery`, :class:`FinishService`)
with typed responses; the plane in :mod:`repro.control.plane` is a thin
dispatcher over these methods.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain, repeat

from repro.api.codec import encode_line
from repro.api.types import (
    CreateServiceRequest,
    ErrorBudgetReport,
    MutationBatch,
    MutationBatchResult,
    ServiceCreated,
    ServiceManifest,
    SloQuery,
    SloVerdict,
)
from repro.control.remediation import (
    RemediationEngine,
    plan_stats,
    queued_deadlines,
)
from repro.core.errors import ReproError
from repro.engine.facade import BroadcastEngine
from repro.engine.telemetry import RunManifest
from repro.live.mutations import MutationTrace
from repro.live.service import LiveBroadcastService

__all__ = ["ServiceSession"]

#: Encodes each streamed event for the stream fingerprint; the same
#: bytes as ``json.dumps(..., sort_keys=True)``, without building an
#: encoder per event.
_STREAM_ENCODER = json.JSONEncoder(sort_keys=True)


class ServiceSession:
    """A named live service hosted on the control plane.

    Args:
        request: The create request.
        line: ``request``'s canonical :func:`~repro.api.codec.encode_line`
            frame, the first entry of the durability trail.
    """

    def __init__(self, request: CreateServiceRequest, line: str) -> None:
        self.request = request
        self.engine = BroadcastEngine()
        self._cache_before = self.engine.cache.stats()
        self._telemetry_before = self.engine.telemetry.snapshot()
        self.live = LiveBroadcastService(
            dict(request.catalog),
            MutationTrace(
                horizon=request.horizon,
                events=(),
                meta={"generator": "control"},
            ),
            budget=request.budget,
            engine=self.engine,
            admission=request.admission,
            queue_limit=request.queue_limit,
            slo_window=request.slo_window,
            target_miss_rate=request.target_miss_rate,
            replan_cooldown=request.replan_cooldown,
            coalesce_window=request.coalesce_window,
        )
        self.remediation = RemediationEngine(
            request.name, self.live, request.remediation
        )
        self._stream = hashlib.sha256()
        self._events_streamed = 0
        self._events: list[object] = []
        self._requests = hashlib.sha256()
        self._requests.update(line.encode("utf-8"))
        self._requests_accepted = 1
        self.finished = False
        self.manifest: RunManifest | None = None
        self.live.start()
        # The initial plan's snapshot of the create catalog (kept by
        # the catalog until its first mutation): the manifest's instance.
        self._initial_instance = self.live.catalog.to_instance()

    def events_streamed(self) -> tuple:
        """Every event applied so far, in order (the snapshot source)."""
        return tuple(self._events)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def created(self) -> ServiceCreated:
        """The :class:`ServiceCreated` response for this session."""
        required = self.live.catalog.required_channels()
        assert self.live.program is not None
        return ServiceCreated(
            service=self.request.name,
            budget=self.live.budget,
            required_channels=required,
            algorithm="susc" if required <= self.live.budget else "pamad",
            cycle_length=self.live.program.cycle_length,
            pages=len(self.live.catalog),
        )

    def apply_batch(
        self, batch: MutationBatch, line: str
    ) -> MutationBatchResult:
        """Stream one batch of events through the service.

        ``line`` is the batch's canonical
        :func:`~repro.api.codec.encode_line` frame.  The whole batch is
        validated against the session clock and the horizon before any
        event is applied, so a bad batch is rejected atomically instead
        of leaving the service half-mutated.
        """
        if self.finished:
            raise ReproError(
                f"service {self.request.name!r} is already finished"
            )
        for event in batch.events:
            if event.time < self.live.now:
                raise ReproError(
                    f"event at t={event.time} is in the past; the "
                    f"session clock is at t={self.live.now}"
                )
            if event.time >= self.request.horizon:
                raise ReproError(
                    f"event at t={event.time} is beyond the service "
                    f"horizon {self.request.horizon}"
                )
        counters_before = dict(self.live.counters)
        admission_before = dict(self.live.admission.counters)
        records_before = len(self.remediation.records)
        for event in batch.events:
            self.live.offer(event)
            self.remediation.step()
            self._stream.update(
                _STREAM_ENCODER.encode(event.to_dict()).encode("utf-8")
            )
            self._events_streamed += 1
            self._events.append(event)
        # Digest the *logical* batch (request_id stripped): the
        # durability fingerprint identifies what was applied, not the
        # retry metadata it happened to arrive with.  Without an id the
        # wire line already is that batch's frame.
        if batch.request_id:
            line = encode_line(
                MutationBatch(service=batch.service, events=batch.events)
            )
        self._requests.update(line.encode("utf-8"))
        self._requests_accepted += 1

        def counter_delta(name: str) -> int:
            return self.live.counters[name] - counters_before[name]

        def admission_delta(name: str) -> int:
            return (
                self.live.admission.counters[name]
                - admission_before[name]
            )

        return MutationBatchResult(
            service=self.request.name,
            applied=len(batch.events),
            admitted=admission_delta("admitted"),
            queued=admission_delta("queued"),
            rejected=admission_delta("rejected"),
            listeners=counter_delta("listeners"),
            misses=counter_delta("misses"),
            replans=(
                counter_delta("full_replans")
                + counter_delta("fastpath_replans")
            ),
            remediations=len(self.remediation.records) - records_before,
        )

    def slo_query(self, query: SloQuery) -> SloVerdict:
        """Answer "is this deadline achievable under this budget?".

        The candidate load is the committed catalog, plus the admission
        queue's pending inserts (capacity already promised to them),
        plus ``query.pages`` hypothetical pages at the queried deadline.
        The verdict is Theorem 3.1 in exact arithmetic; when the budget
        falls short, ``predicted_delay`` prices the best PAMAD
        compromise at the budget via the Eq. 2/3/5/7 model.  Both read
        the catalog's deadline histogram plus the added pages' deadlines.
        """
        catalog = self.live.catalog
        queued = queued_deadlines(self.live)
        histogram = catalog.deadline_counts()
        for expected in queued:
            histogram[expected] = histogram.get(expected, 0) + 1
        if query.pages:
            histogram[query.expected_time] = (
                histogram.get(query.expected_time, 0) + query.pages
            )
        required, predicted_delay, _ = plan_stats(
            histogram, self.live.budget
        )
        achievable = required <= self.live.budget
        return SloVerdict(
            service=self.request.name,
            achievable=achievable,
            required_channels=required,
            budget=self.live.budget,
            headroom=self.live.budget - required,
            channel_load=catalog.channel_load(
                chain(queued, repeat(query.expected_time, query.pages))
            ),
            predicted_delay=predicted_delay,
            queued_pages=len(queued),
            reason="fits-budget" if achievable else "exceeds-budget",
        )

    def error_budget(self) -> ErrorBudgetReport:
        """Per-deadline-class error-budget breakdown from the tracker."""
        slo = self.live.slo
        target = slo.target_miss_rate
        per_class: dict[str, dict[str, float]] = {}
        for expected, stats in slo.per_class().items():
            if target > 0:
                remaining = 1.0 - stats["miss_rate"] / target
            else:
                remaining = 1.0 if stats["misses"] == 0 else -1.0
            per_class[str(expected)] = {
                "listeners": stats["listeners"],
                "misses": stats["misses"],
                "miss_rate": round(stats["miss_rate"], 6),
                "budget_remaining": round(remaining, 6),
            }
        return ErrorBudgetReport(
            service=self.request.name,
            listeners=slo.listeners,
            misses=slo.misses,
            miss_rate=slo.miss_rate,
            rolling_miss_rate=slo.rolling_miss_rate,
            target_miss_rate=target,
            window=slo.window,
            per_class=per_class,
        )

    def finish(self) -> ServiceManifest:
        """Close the session: final report plus the v6 manifest."""
        if self.finished:
            raise ReproError(
                f"service {self.request.name!r} is already finished"
            )
        report = self.live.finish()
        self.finished = True
        control_block = {
            **self.remediation.as_dict(),
            "stream": {
                "events": self._events_streamed,
                "fingerprint": self._stream.hexdigest()[:16],
            },
            # Schema v6: the durability trail.  A deterministic function
            # of the accepted request stream, so a session recovered
            # from a write-ahead journal reproduces it byte-for-byte.
            "durability": {
                "requests": self._requests_accepted,
                "fingerprint": self._requests.hexdigest()[:16],
            },
        }
        remediations = len(self.remediation.records)
        manifest = self.engine.control_manifest(
            instance=self._initial_instance,
            parameters={
                "request": self.request.to_dict(),
                "events_streamed": self._events_streamed,
            },
            channels=(self.live.budget,),
            results={
                "miss_rate": report.slo["miss_rate"],
                "listeners": report.counters["listeners"],
                "mutations": report.counters["mutations"],
                "full_replans": report.counters["full_replans"],
                "remediations": remediations,
                "remediations_applied": control_block["applied"],
                "final_valid": report.final_valid,
            },
            service=report.as_dict(),
            control=control_block,
            cache_before=self._cache_before,
            telemetry_before=self._telemetry_before,
        )
        self.manifest = manifest
        return ServiceManifest(
            service=self.request.name,
            manifest=manifest.to_dict(),
            summary={
                "horizon": report.horizon,
                "budget": report.budget,
                "listeners": report.counters["listeners"],
                "miss_rate": report.slo["miss_rate"],
                "remediations": remediations,
                "final_valid": report.final_valid,
            },
        )
