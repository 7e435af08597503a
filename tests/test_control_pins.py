"""Byte pins for control-plane sessions: replies, journal, manifest.

Three sessions are pinned: the scripted fixture
``fixtures/control_session.ndjsonl`` and two generated sessions shaped
like the ``control_session`` benchmark workload (a 320-page ladder
catalog, 16-event mutation batches each followed by an ``SloQuery`` and
an ``ErrorBudgetQuery``, queued inserts, one unachievable query).  The
second runs on a budget two channels under the Theorem-3.1 floor, so the
remediation loop fires, and carries ``request_id`` tokens (one batch is
retransmitted) and a non-ASCII service name.

Two checks hold every session to its recorded bytes:

* ``fixtures/control_pins.json`` holds SHA-256 digests of every reply
  line, the journal file and the ``FinishService`` manifest, recorded
  per interpreter.  The journal holds only request frames, so its
  digest is checked on every interpreter; replies and manifests carry
  float sums, which differ between CPython 3.11 and 3.12, so they are
  checked where the recording's interpreter matches.
* In process, on every interpreter, each session is replayed a second
  time with the read path priced by the :mod:`repro.oracles` reference
  (a page-mapping copy and a fresh ``LiveCatalog`` per what-if) and its
  replies, journal and manifest must equal the served ones byte for
  byte.

Re-record after a deliberate output change with::

    PYTHONPATH=src python -m tests.test_control_pins
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.api import (
    CreateServiceRequest,
    ErrorBudgetQuery,
    FinishService,
    MutationBatch,
    RemediationPolicy,
    SloQuery,
    encode_line,
)
from repro.control import ControlPlane, RemediationEngine, ServiceSession
from repro.control.journal import Journal
from repro.core.pages import instance_from_counts
from repro.live.catalog import LiveCatalog
from repro.oracles import propose_reference, slo_verdict_reference
from repro.workload.mutations import generate_mutation_trace

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SESSION_SCRIPT = FIXTURES / "control_session.ndjsonl"
PINS = FIXTURES / "control_pins.json"

LADDER = (4, 8, 16, 32, 64, 128, 256, 512)
HORIZON = 256
EVENTS_PER_WRITE = 16


def _interpreter() -> str:
    return f"cpython-{sys.version_info[0]}.{sys.version_info[1]}"


def ladder_session_lines(
    seed: int,
    *,
    name: str,
    budget_offset: int = 0,
    writes: int = 8,
    request_ids: bool = False,
    remediation: RemediationPolicy = RemediationPolicy(),
) -> list[str]:
    """A ``control_session``-shaped script as canonical wire lines."""
    instance = instance_from_counts((40,) * len(LADDER), LADDER)
    catalog = {p.page_id: p.expected_time for p in instance.pages()}
    floor = LiveCatalog(catalog).required_channels()
    mutations = 16
    trace = generate_mutation_trace(
        instance,
        seed=seed,
        horizon=HORIZON,
        mutations=mutations,
        listeners=writes * EVENTS_PER_WRITE - mutations,
    )
    events = list(trace.events)
    rng = random.Random(seed)
    script: list[object] = [
        CreateServiceRequest(
            name=name,
            catalog=catalog,
            horizon=HORIZON,
            budget=floor + budget_offset,
            remediation=remediation,
        )
    ]
    for index, start in enumerate(range(0, len(events), EVENTS_PER_WRITE)):
        batch = MutationBatch(
            service=name,
            events=tuple(events[start:start + EVENTS_PER_WRITE]),
            request_id=f"w{index}" if request_ids else "",
        )
        script.append(batch)
        if request_ids and index == 1:
            script.append(batch)  # a retransmission: a dedup hit
        script.append(
            SloQuery(
                service=name,
                expected_time=rng.choice(LADDER),
                pages=rng.randint(0, 4),
            )
        )
        script.append(ErrorBudgetQuery(service=name))
    # Far past the floor: unachievable, with a positive model delay.
    script.append(SloQuery(service=name, expected_time=4, pages=64))
    script.append(FinishService(service=name))
    return [encode_line(message) for message in script]


def session_lines() -> dict[str, list[str]]:
    """Every pinned session's request lines, by session name."""
    return {
        "fixture": [
            line + "\n"
            for line in SESSION_SCRIPT.read_text().splitlines()
            if line.strip()
        ],
        "ladder-floor": ladder_session_lines(41, name="ladder"),
        "ladder-taut": ladder_session_lines(
            42,
            name="lädder-β",
            budget_offset=-2,
            request_ids=True,
            remediation=RemediationPolicy(
                miss_streak=2, cooldown=8, max_pages_moved=320
            ),
        ),
    }


def serve(lines: list[str], directory: pathlib.Path) -> dict[str, bytes]:
    """Serve ``lines`` on a journaled plane; the bytes it leaves."""
    journal_path = directory / "journal.ndjson"
    journal = Journal.open(journal_path, fsync="never")
    try:
        plane = ControlPlane(journal)
        replies = [plane.handle_line(line) for line in lines]
    finally:
        journal.close()
    manifest = plane.finished_manifests[-1].manifest
    return {
        "replies": "".join(replies).encode("utf-8"),
        "journal": journal_path.read_bytes(),
        "manifest": (
            json.dumps(dict(manifest), sort_keys=True, indent=2) + "\n"
        ).encode("utf-8"),
    }


def digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {
        key: hashlib.sha256(value).hexdigest()
        for key, value in sorted(artifacts.items())
    }


def record(path: pathlib.Path = PINS) -> None:
    """(Re-)record this interpreter's pins into ``path``."""
    import tempfile

    pins = json.loads(path.read_text()) if path.exists() else {}
    entry = {}
    for name, lines in session_lines().items():
        with tempfile.TemporaryDirectory() as scratch:
            entry[name] = digests(serve(lines, pathlib.Path(scratch)))
    pins[_interpreter()] = entry
    path.write_text(json.dumps(pins, sort_keys=True, indent=2) + "\n")


SESSIONS = session_lines()


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_bytes_match_recorded_pins(name, tmp_path):
    pins = json.loads(PINS.read_text())
    served = digests(serve(SESSIONS[name], tmp_path))
    # Request frames carry no float sums: one journal pin for all.
    journals = {entry[name]["journal"] for entry in pins.values()}
    assert journals == {served["journal"]}
    recorded = pins.get(_interpreter())
    if recorded is None:
        pytest.skip(
            f"replies and manifest pinned for {sorted(pins)} only; "
            "the oracle replay covers this interpreter"
        )
    assert served == recorded[name]


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_bytes_match_oracle_pricing(name, tmp_path, monkeypatch):
    (tmp_path / "served").mkdir()
    (tmp_path / "oracle").mkdir()
    served = serve(SESSIONS[name], tmp_path / "served")
    monkeypatch.setattr(ServiceSession, "slo_query", slo_verdict_reference)
    monkeypatch.setattr(RemediationEngine, "_propose", propose_reference)
    assert serve(SESSIONS[name], tmp_path / "oracle") == served


def test_ladder_sessions_reach_every_pinned_path(tmp_path):
    """The generated sessions queue inserts, refuse one query, remediate
    and hit the dedup window — the paths the pins are meant to hold."""
    for name in ("ladder-floor", "ladder-taut"):
        (tmp_path / name).mkdir()
        replies = [
            json.loads(line)
            for line in serve(SESSIONS[name], tmp_path / name)
            ["replies"].decode().splitlines()
        ]
        verdicts = [r["body"] for r in replies if r["type"] == "SloVerdict"]
        assert any(v["queued_pages"] > 0 for v in verdicts), name
        refused = [v for v in verdicts if not v["achievable"]]
        assert refused and refused[-1]["predicted_delay"] > 0, name
    control = replies[-1]["body"]["manifest"]["control"]
    assert control["records"], control
    assert control["durability"]["requests"] == 1 + 8


if __name__ == "__main__":
    record()
