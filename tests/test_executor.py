"""The executor's one attempt loop, for both task families.

Sweep cells (:func:`run_cells`) and shard-style tasks
(:func:`run_tasks`) share :class:`TaskPool`'s attempt loop, so retry,
timeout and failure accounting must read the same in every mode: a
task that fails once is retried and recovers, a task that always fails
burns ``retries + 1`` attempts and is counted once, and a timed-out
task fails its attempt without holding the call for its full run time.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory

import pytest

import repro
from repro.core.pages import instance_from_counts
from repro.core.pamad import schedule_pamad
from repro.engine.executor import (
    CellFailure,
    CellResult,
    CellSpec,
    ExecutionPolicy,
    TaskFailure,
    run_cells,
    run_tasks,
)

FAMILIES = ("cells", "tasks")
MODES = ("serial", "thread", "process")
SLOW_SECONDS = 3.0


class _Script:
    """A picklable task body whose behaviour its kind names.

    As a cell's scheduler it is called with ``(instance, channels)``;
    as a task it is called with no arguments (see :func:`_call`).
    ``"flaky"`` fails on its first call only, remembered through a
    marker file so the memory crosses process boundaries.
    """

    def __init__(self, kind: str, marker) -> None:
        self.kind = kind
        self.marker = marker

    def __call__(self, *args):
        if self.kind == "boom":
            raise ValueError("deliberate crash")
        if self.kind == "flaky" and not self.marker.exists():
            self.marker.touch()
            raise RuntimeError("transient glitch")
        if self.kind == "slow":
            time.sleep(SLOW_SECONDS)
        return schedule_pamad(*args) if args else self.kind


def _call(script: _Script):
    return script()


def _run(family, mode, kinds, policy, tmp_path):
    scripts = [
        _Script(kind, tmp_path / f"marker-{index}")
        for index, kind in enumerate(kinds)
    ]
    if family == "tasks":
        return run_tasks(
            _call, scripts, workers=2, mode=mode, policy=policy
        )
    instance = instance_from_counts([3, 5, 3], [2, 4, 8])
    specs = [
        CellSpec(
            algorithm=script.kind,
            scheduler=script,
            channels=3,
            instance=instance,
            num_requests=50,
            seed=index,
        )
        for index, script in enumerate(scripts)
    ]
    return run_cells(specs, workers=2, mode=mode, policy=policy)


def _summary(outcome):
    """``("ok",)`` or ``(error_type, attempts)``, for either family."""
    if isinstance(outcome, (CellFailure, TaskFailure)):
        return (outcome.error_type, outcome.attempts)
    return ("ok",)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_retry_and_failure_accounting(family, mode, tmp_path):
    policy = ExecutionPolicy(retries=1, backoff=0.0)
    outcomes, report = _run(
        family, mode, ["ok", "flaky", "boom"], policy, tmp_path
    )
    assert [_summary(o) for o in outcomes] == [
        ("ok",), ("ok",), ("ValueError", 2),
    ]
    if family == "cells":
        assert [o.attempts for o in outcomes[:2]] == [1, 2]
        assert all(isinstance(o, CellResult) for o in outcomes[:2])
    else:
        assert outcomes[:2] == ["ok", "flaky"]
        assert outcomes[2].index == 2
    assert report.mode == mode
    assert report.fallback is False
    assert report.retries == 2  # flaky once, boom once
    assert report.cell_failures == 1
    assert report.timeouts == 0


def _children() -> set:
    return {child.pid for child in multiprocessing.active_children()}


@pytest.mark.parametrize("mode", ("thread", "process"))
@pytest.mark.parametrize("family", FAMILIES)
def test_timeout_bounds_the_call(family, mode, tmp_path, shm_posts):
    """A stuck task costs its timeout, not its run time.

    A process pool holding it is torn down and the retry runs on a
    fresh one; a stuck thread is abandoned (it cannot be preempted) and
    finishes in the background.
    """
    children_before = _children()
    policy = ExecutionPolicy(timeout=0.5, retries=1, backoff=0.0)
    started = time.perf_counter()
    outcomes, report = _run(
        family, mode, ["ok", "slow", "ok"], policy, tmp_path
    )
    elapsed = time.perf_counter() - started
    assert [_summary(o) for o in outcomes] == [
        ("ok",), ("TimeoutError", 2), ("ok",),
    ]
    assert report.mode == mode
    assert report.timeouts == 2
    assert report.retries == 1
    assert report.cell_failures == 1
    assert elapsed < 2.0
    if mode == "process":
        assert _children() <= children_before
    if family == "cells" and mode == "process":
        assert report.transport == "shm"
        assert len(shm_posts) == 1
        for name in shm_posts:  # the run's own post is unlinked
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


_BIG_PAYLOAD_PROBE = textwrap.dedent(
    """
    import json, sys, time
    from repro.engine.executor import ExecutionPolicy, run_tasks

    def body(payload):
        if payload == "slow":
            time.sleep(30.0)
        return len(payload)

    if __name__ == "__main__":
        payloads = ["slow", "slow"] + [b"x" * (1 << 20)] * 4
        policy = ExecutionPolicy(timeout=0.5, retries=0, backoff=0.0)
        started = time.perf_counter()
        outcomes, report = run_tasks(
            body, payloads, workers=2, mode="process", policy=policy
        )
        json.dump({
            "elapsed": time.perf_counter() - started,
            "outcomes": [
                o if isinstance(o, int) else o.error_type for o in outcomes
            ],
            "timeouts": report.timeouts,
        }, sys.stdout)
    """
)


def test_timeout_with_large_queued_payloads_returns(tmp_path):
    """Terminating workers mid-way through a queued 1 MB payload must
    not leave the pool unjoinable.

    Both workers are stuck, so the pool's feeder thread blocks writing
    a payload larger than the pipe buffer; the timeout must still tear
    the pool down.  Run in a child interpreter so that a hang fails the
    test instead of stalling the suite.
    """
    script = tmp_path / "probe.py"
    script.write_text(_BIG_PAYLOAD_PROBE)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
        check=True,
    )
    result = json.loads(done.stdout)
    assert result["outcomes"] == ["TimeoutError"] * 2 + [1 << 20] * 4
    assert result["timeouts"] == 2
    assert result["elapsed"] < 2.0
