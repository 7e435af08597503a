"""``repro.oracles`` stays out of the serving path.

The reference implementations exist for tests to compare against; a
serving module that imported one could route real traffic through it.
Only ``analysis/experiments.py`` may import it: the ABL4 ablation times
the two literal GetAvailableSlot probes of
:func:`repro.oracles.susc_reference` against each other, the paper's
§3.2 comparison, which the array kernel behind ``schedule_susc`` cannot
show.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ALLOWED = {"analysis/experiments.py"}


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name == "repro.oracles"
                or alias.name.startswith("repro.oracles.")
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom):
            # Relative imports are matched by name alone.
            module = node.module or ""
            if module.split(".")[-1] == "oracles" or (
                module in ("repro", "")
                and any(alias.name == "oracles" for alias in node.names)
            ):
                return True
    return False


def test_no_serving_module_imports_oracles():
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in ALLOWED
        and _imports_oracles(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_guard_sees_every_import_form():
    for source in (
        "import repro.oracles",
        "from repro.oracles import route_sequential",
        "from repro import oracles",
        "def f():\n    from repro.oracles import federate_sequential",
        "from ..oracles import route_sequential",
        "from . import oracles",
    ):
        assert _imports_oracles(ast.parse(source)), source
    assert not _imports_oracles(ast.parse("from repro import engine"))
    assert _imports_oracles(
        ast.parse((SRC / "analysis" / "experiments.py").read_text())
    )
