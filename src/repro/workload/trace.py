"""Request traces — record once, replay everywhere.

Comparing two schedulers on *independently sampled* request streams mixes
algorithmic differences with sampling noise.  The standard remedy is
common random numbers: record one request trace and replay it against
every program under comparison.  (The arrival times are fractions of the
cycle rather than absolute slots, so one trace is meaningful across
programs with different cycle lengths.)

Traces serialise to JSON Lines — one request per line — so large traces
stream without loading whole files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.core.errors import WorkloadError
from repro.core.pages import ProblemInstance
from repro.core.program import BroadcastProgram
from repro.workload.requests import Request

__all__ = ["RequestTrace", "record_trace", "replay_trace"]


@dataclass(frozen=True)
class _TraceEntry:
    """One recorded request: the page and its cycle-relative arrival."""

    page_id: int
    arrival_fraction: float


class RequestTrace:
    """An immutable, program-independent request trace."""

    def __init__(self, entries: Iterable[_TraceEntry]) -> None:
        self._entries = tuple(entries)
        for entry in self._entries:
            if not 0.0 <= entry.arrival_fraction < 1.0:
                raise WorkloadError(
                    f"arrival fraction {entry.arrival_fraction} outside "
                    "[0, 1)"
                )

    def __len__(self) -> int:
        return len(self._entries)

    def requests_for(
        self, program: BroadcastProgram
    ) -> Iterator[Request]:
        """Materialise the trace against a concrete program's cycle."""
        cycle = program.cycle_length
        for entry in self._entries:
            yield Request(
                page_id=entry.page_id,
                arrival=entry.arrival_fraction * cycle,
            )

    # ------------------------------------------------------------------
    # Serialisation (JSON Lines)
    # ------------------------------------------------------------------

    def dump(self, path: str | Path) -> None:
        """Write the trace as JSON Lines."""
        with open(path, "w") as handle:
            for entry in self._entries:
                handle.write(
                    json.dumps(
                        {"page": entry.page_id, "at": entry.arrival_fraction}
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: str | Path) -> "RequestTrace":
        """Read a trace written by :meth:`dump`."""
        entries = []
        with open(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    entries.append(
                        _TraceEntry(
                            page_id=int(data["page"]),
                            arrival_fraction=float(data["at"]),
                        )
                    )
                except (KeyError, ValueError, json.JSONDecodeError) as exc:
                    raise WorkloadError(
                        f"{path}:{line_number}: malformed trace line "
                        f"({exc})"
                    ) from None
        return cls(entries)


def record_trace(
    instance: ProblemInstance,
    num_requests: int,
    seed: int = 0,
    access_probabilities: Mapping[int, float] | None = None,
) -> RequestTrace:
    """Sample a reusable trace from an instance's access model.

    Args:
        instance: Pages requests may target.
        num_requests: Trace length.
        seed: RNG seed.
        access_probabilities: Optional non-uniform page weights.
    """
    if num_requests < 0:
        raise WorkloadError(
            f"num_requests must be non-negative, got {num_requests}"
        )
    rng = random.Random(seed)
    if access_probabilities is None:
        page_ids = [page.page_id for page in instance.pages()]
        chooser = lambda: rng.choice(page_ids)  # noqa: E731
    else:
        population = list(access_probabilities)
        cumulative = list(
            accumulate(access_probabilities[pid] for pid in population)
        )
        chooser = lambda: rng.choices(population, cum_weights=cumulative)[0]  # noqa: E731
    return RequestTrace(
        _TraceEntry(page_id=chooser(), arrival_fraction=rng.random())
        for _ in range(num_requests)
    )


def replay_trace(
    trace: RequestTrace,
    program: BroadcastProgram,
    instance: ProblemInstance,
):
    """Replay a trace against a program (common-random-numbers measure).

    Returns:
        The same :class:`~repro.sim.clients.MeasurementResult` as the
        seeded simulator, but driven by the shared trace.
    """
    from repro.sim.clients import replay_requests

    return replay_requests(
        program, instance, trace.requests_for(program)
    )
