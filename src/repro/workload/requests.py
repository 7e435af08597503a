"""Client request streams (Section 5's "number of requests").

The paper measures AvgD by replaying client requests against a broadcast
program: each request names one page (uniformly at random in the paper's
model — every page equally likely) and arrives at a uniformly random
instant of the major cycle.

This module generates those streams, plus a Zipf access model for the EXT3
extension (the paper's uniform-access assumption is the ``theta = 0``
special case).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

from repro.core.errors import WorkloadError
from repro.core.pages import ProblemInstance

__all__ = [
    "Request",
    "check_stream",
    "uniform_access_model",
    "zipf_access_model",
    "generate_requests",
]


@dataclass(frozen=True, slots=True)
class Request:
    """One client access: which page, and when the client tunes in.

    Attributes:
        page_id: The requested page.
        arrival: Arrival time in ``[0, cycle_length)`` — may be fractional
            (clients do not arrive aligned to slot boundaries).
    """

    page_id: int
    arrival: float


def uniform_access_model(instance: ProblemInstance) -> dict[int, float]:
    """The paper's access model: ``prob_access(p) = 1/n`` for every page."""
    probability = 1.0 / instance.n
    return {page.page_id: probability for page in instance.pages()}


def zipf_access_model(
    instance: ProblemInstance, theta: float = 0.8
) -> dict[int, float]:
    """Zipf-distributed access probabilities over pages.

    Pages are ranked in instance order (urgent groups first), and page of
    rank ``k`` gets probability proportional to ``1 / k^theta``.
    ``theta = 0`` recovers the paper's uniform model.

    Args:
        instance: The instance whose pages to weight.
        theta: Skew parameter; 0.8 is the broadcast-disks literature's
            customary value.
    """
    if theta < 0:
        raise WorkloadError(f"theta must be >= 0, got {theta}")
    weights = [
        1.0 / (rank**theta)
        for rank in range(1, instance.n + 1)
    ]
    total = sum(weights)
    return {
        page.page_id: weight / total
        for page, weight in zip(instance.pages(), weights)
    }


def check_stream(num_requests: int, cycle_length: int) -> None:
    """Refuse a negative stream length or a non-positive cycle.

    Raises:
        WorkloadError: On either.
    """
    if num_requests < 0:
        raise WorkloadError(
            f"num_requests must be non-negative, got {num_requests}"
        )
    if cycle_length <= 0:
        raise WorkloadError(
            f"cycle_length must be positive, got {cycle_length}"
        )


def generate_requests(
    instance: ProblemInstance,
    cycle_length: int,
    num_requests: int,
    rng: random.Random,
    access_probabilities: Mapping[int, float] | None = None,
) -> Iterator[Request]:
    """Generate a stream of client requests against a program.

    Args:
        instance: Pages a request may target.
        cycle_length: Major-cycle length of the program under test;
            arrivals are uniform over one cycle (the program repeats, so
            one cycle fully characterises steady state).
        num_requests: Stream length (paper default: 3000).
        rng: Seeded RNG — measurements are reproducible by construction.
        access_probabilities: Per-page access probabilities; defaults to
            the paper's uniform model.

    Yields:
        :class:`Request` objects.
    """
    check_stream(num_requests, cycle_length)
    if access_probabilities is None:
        pages: Sequence[int] = [page.page_id for page in instance.pages()]
        for _ in range(num_requests):
            yield Request(
                page_id=rng.choice(pages),
                arrival=rng.random() * cycle_length,
            )
    else:
        page_ids = list(access_probabilities)
        # ``choices`` accumulates ``weights`` on every call; passing the
        # sums once draws the same stream without the O(n) rebuild.
        cumulative = list(
            accumulate(access_probabilities[pid] for pid in page_ids)
        )
        for _ in range(num_requests):
            (page_id,) = rng.choices(page_ids, cum_weights=cumulative)
            yield Request(
                page_id=page_id,
                arrival=rng.random() * cycle_length,
            )
