"""Micro-benchmark: one page's row patch against a whole-index rebuild.

Not a paper artefact — an engineering measurement.  Under catalog churn
the live service edits one page per admitted mutation; it keeps the
program's :class:`~repro.core.program.AppearanceIndex` current with
:meth:`~repro.core.program.AppearanceIndex.with_row` (slice and
concatenate the flat arrays around the page's new row) instead of
rebuilding it with :meth:`~repro.core.program.AppearanceIndex.
from_packed` (a stable argsort of the whole grid).  Both rows time the
same edit — one t=4 page moved to the next free offset of its ladder
— on an 11-channel, 512-slot SUSC program (the 176-page, 8-rung ladder
``(22,) * 8 x (4, 8, ..., 512)`` at its Theorem-3.1 minimum), and both
must produce the same index (pinned array for array by
``tests/test_page_patch.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_row_patch.py``.
"""

import numpy as np
import pytest

from repro.core.pages import instance_from_counts
from repro.core.program import FREE, AppearanceIndex
from repro.core.susc import schedule_susc


@pytest.fixture(scope="module")
def edit():
    """A grid, its index, a page and the page's cells after the edit."""
    instance = instance_from_counts(
        (22,) * 8, tuple(4 * 2**i for i in range(8))
    )
    program = schedule_susc(instance, 11).program
    grid = program.packed_grid().copy()
    index = AppearanceIndex.from_packed(grid)
    page_id = int(index.page_ids[index.page_ids.shape[0] // 16])
    channels, slots = index.row_cells(page_id)
    grid[channels, slots] = FREE
    # The page keeps its slots but moves to the free channel of each
    # column when one exists — a like-for-like row of the same size.
    free = grid == FREE
    open_columns = free[:, slots]
    channels = np.where(
        open_columns.any(axis=0), open_columns.argmax(axis=0), channels
    )
    grid[channels, slots] = page_id
    return grid, index, page_id, channels, slots


def test_micro_row_patch(benchmark, edit):
    grid, index, page_id, channels, slots = edit
    patched = benchmark(index.with_row, page_id, channels, slots)
    assert patched.page_ids.tolist() == index.page_ids.tolist()


def test_micro_full_rebuild(benchmark, edit):
    grid, index, page_id, channels, slots = edit
    rebuilt = benchmark(AppearanceIndex.from_packed, grid)
    patched = index.with_row(page_id, channels, slots)
    for name in ("offsets", "slots", "gaps", "cell_slots", "cell_channels"):
        assert getattr(rebuilt, name).tolist() == (
            getattr(patched, name).tolist()
        )
