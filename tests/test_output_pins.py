"""Byte pins for the live service and the federation's outputs.

Two families of runs are pinned:

* ``fed_churn``-shaped federations: the 320-page, 8-rung ladder catalog
  on 4 shards, a 250-mutation, 1,000-listener churn trace per seed, for
  three seeds, replayed serially and on a 2-thread pool.  Each run pins
  ``FederationReport.as_dict()`` (as the manifest writes it, key order
  kept) and the router's admission decisions as tuples, ``shard``,
  ``home`` and ``required_channels`` included.
* The live CLI's seed-7 run (``--sizes 3,5,3 --times 2,4,8 --seed 7
  --mutations 12 --listeners 30``) at coalescing windows 0, 1, 3 and 8:
  ``LiveReport.as_dict()`` plus ``event_log_json()``.

Those runs never spill, fill a queue or meet an unknown page, so two
taut families ride along: a 16-page ladder federation at its one-channel
floor (seed 28: spills, global queue, drains, rejections, unknown-page
removes, orphan listeners) and the live seed-5 run with 40 mutations and
a 2-deep queue (queue-full and unknown-page rejections, drains), each
with admission on and off.  One more live run (seed 18, 40 mutations,
20 listeners, a 2-deep queue) drains two pages at once where the first
placement re-plans the whole catalog — the drain order is visible there.

``fixtures/output_pins.json`` holds SHA-256 digests of those bytes,
recorded per interpreter (reports carry float sums, which differ
between CPython minor versions); an interpreter with no recording
skips.

Re-record after a deliberate output change with::

    PYTHONPATH=src python -m tests.test_output_pins
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.core.pages import instance_from_counts
from repro.engine import BroadcastEngine
from repro.federation import FederatedBroadcastService
from repro.workload.mutations import generate_mutation_trace

PINS = pathlib.Path(__file__).parent / "fixtures" / "output_pins.json"

LADDER = (4, 8, 16, 32, 64, 128, 256, 512)
FED_SEEDS = (1, 2, 3)
FED_MODES = ("serial", "thread")
LIVE_WINDOWS = (0, 1, 3, 8)


def _interpreter() -> str:
    return f"cpython-{sys.version_info[0]}.{sys.version_info[1]}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def federation_artifacts(
    seed: int, mode: str, pages: int = 40, **kwargs
) -> dict[str, str]:
    """One ``fed_churn``-shaped run's report and decision bytes."""
    instance = instance_from_counts((pages,) * len(LADDER), LADDER)
    trace = generate_mutation_trace(
        instance, seed=seed, horizon=256, mutations=250, listeners=1_000
    )
    service = FederatedBroadcastService(
        instance,
        trace,
        shards=4,
        seed=0,
        rebalance_threshold=1.5,
        max_pages_moved=4,
        **kwargs,
    )
    report = service.run(workers=2 if mode == "thread" else 1, mode=mode)
    decisions = [
        [
            d.time, d.kind, d.page_id, d.verdict, d.shard, d.home,
            d.required_channels, d.budget, d.reason,
        ]
        for d in report.decisions
    ]
    return {
        "report": json.dumps(report.as_dict(), indent=2),
        "decisions": json.dumps(decisions),
    }


def live_artifacts(
    window: int, seed: int = 7, mutations: int = 12, listeners: int = 30,
    **kwargs,
) -> dict[str, str]:
    """The live CLI's run at one coalescing window."""
    instance = instance_from_counts((3, 5, 3), (2, 4, 8))
    trace = generate_mutation_trace(
        instance, seed=seed, horizon=64, mutations=mutations,
        listeners=listeners,
    )
    report = BroadcastEngine().live(
        instance, trace, coalesce_window=window, **kwargs
    ).report
    return {
        "report": json.dumps(report.as_dict(), indent=2),
        "event_log": report.event_log_json(),
    }


def runs() -> dict[str, object]:
    """Every pinned run's artifact function, by name."""
    table: dict[str, object] = {}
    for seed in FED_SEEDS:
        for mode in FED_MODES:
            table[f"fed-seed{seed}-{mode}"] = (
                lambda s=seed, m=mode: federation_artifacts(s, m)
            )
    for window in LIVE_WINDOWS:
        table[f"live-window{window}"] = lambda w=window: live_artifacts(w)
    for admission in (True, False):
        arm = "on" if admission else "off"
        table[f"fed-taut-{arm}"] = lambda a=admission: federation_artifacts(
            28, "serial", pages=2, queue_limit=4, admission=a
        )
        for window in (0, 3):
            table[f"live-taut-window{window}-{arm}"] = (
                lambda w=window, a=admission: live_artifacts(
                    w, seed=5, mutations=40, listeners=60, queue_limit=2,
                    admission=a,
                )
            )
    table["live-drain-replan"] = lambda: live_artifacts(
        0, seed=18, mutations=40, listeners=20, queue_limit=2
    )
    return table


def digests(artifacts: dict[str, str]) -> dict[str, str]:
    return {key: _digest(value) for key, value in sorted(artifacts.items())}


def record(path: pathlib.Path = PINS) -> None:
    """(Re-)record this interpreter's pins into ``path``."""
    pins = json.loads(path.read_text()) if path.exists() else {}
    pins[_interpreter()] = {
        name: digests(build()) for name, build in runs().items()
    }
    path.write_text(json.dumps(pins, sort_keys=True, indent=2) + "\n")


RUNS = runs()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes_match_recorded_pins(name):
    recorded = json.loads(PINS.read_text()).get(_interpreter())
    if recorded is None:
        pytest.skip(f"no output pins recorded for {_interpreter()}")
    assert digests(RUNS[name]()) == recorded[name]


if __name__ == "__main__":
    record()
