"""Shared fixtures: the paper's canonical instances and helpers."""

from __future__ import annotations

import random
from multiprocessing import shared_memory

import pytest

from repro.core.pages import ProblemInstance, instance_from_counts
from repro.engine import executor


@pytest.fixture
def fig2_instance() -> ProblemInstance:
    """The Section 4.4 worked example: P=(3,5,3), t=(2,4,8)."""
    return instance_from_counts([3, 5, 3], [2, 4, 8])


@pytest.fixture
def sec31_instance() -> ProblemInstance:
    """The Section 3.1 example: P=(2,3), t=(2,4), N=2."""
    return instance_from_counts([2, 3], [2, 4])


@pytest.fixture
def single_group_instance() -> ProblemInstance:
    """Degenerate h=1 instance."""
    return instance_from_counts([4], [3])


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests that need randomness."""
    return random.Random(12345)


@pytest.fixture
def no_shared_memory(monkeypatch):
    """Make every shared-memory block creation raise ``OSError``."""
    real = shared_memory.SharedMemory

    def refuse(*args, create=False, **kwargs):
        if create:
            raise OSError(28, "No space left on device")
        return real(*args, create=create, **kwargs)

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)


@pytest.fixture
def shm_posts(monkeypatch) -> list[str]:
    """The names of the shared-memory posts made during the test.

    Checking exactly these (rather than diffing the ``/dev/shm``
    listing) keeps a leak check blind to other processes' blocks.
    """
    names: list[str] = []
    post_init = executor._ShmPost.__init__

    def record(self, obj):
        post_init(self, obj)
        names.append(self.name)

    monkeypatch.setattr(executor._ShmPost, "__init__", record)
    return names
