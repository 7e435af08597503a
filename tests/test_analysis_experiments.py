"""Tests for the experiment registry (fast parameterisations only)."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.core.errors import ReproError


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        for key in ("FIG2", "THM31", "FIG3", "FIG4",
                    "FIG5A", "FIG5B", "FIG5C", "FIG5D"):
            assert key in EXPERIMENTS

    def test_ablations_and_extensions_registered(self):
        for key in (
            "ABL1", "ABL2", "ABL3", "ABL4", "ABL5",
            "EXT1", "EXT2", "EXT3", "EXT4", "EXT5",
            "EXT6", "EXT7", "EXT8", "EXT9",
        ):
            assert key in EXPERIMENTS

    def test_unknown_id_rejected(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            run_experiment("FIG99")

    def test_lookup_is_case_insensitive(self):
        tables = run_experiment("fig4")
        assert tables


class TestFig2:
    def test_reproduces_paper_numbers(self):
        from repro.analysis.report import format_value

        (table,) = run_experiment("FIG2")
        for quantity, paper, ours in table.rows:
            assert format_value(paper) == format_value(ours), quantity


class TestThm31:
    def test_examples_match_paper(self):
        (table,) = run_experiment("THM31")
        bounds = {row[0]: row[2] for row in table.rows}
        assert bounds["Sec 3.1 example: P=(2,3), t=(2,4)"] == 2
        assert bounds["Fig 2 example: P=(3,5,3), t=(2,4,8)"] == 4

    def test_uniform_defaults_near_paper_64(self):
        (table,) = run_experiment("THM31")
        bounds = {row[0]: row[2] for row in table.rows}
        assert abs(bounds["paper defaults, uniform"] - 64) <= 2


class TestFig3:
    def test_totals(self):
        (table,) = run_experiment("FIG3")
        totals = table.rows[-1]
        assert totals[0] == "total"
        assert all(value == 1000 for value in totals[2:])

    def test_small_override(self):
        (table,) = run_experiment("FIG3", n=100, h=4)
        assert len(table.rows) == 5  # 4 groups + total row


class TestFig4:
    def test_defaults_listed(self):
        (table,) = run_experiment("FIG4")
        values = dict(table.rows)
        assert values["n - total number"] == 1000
        assert values["number of requests"] == 3000


class TestFig5Fast:
    """Tiny parameterisation: 3 channel points, few requests."""

    def test_uniform_shape(self):
        (table,) = run_experiment(
            "FIG5D", num_requests=300, max_points=3,
            algorithms=("pamad", "m-pb"),
        )
        pamad = table.column("pamad")
        mpb = table.column("m-pb")
        channels = table.column("channels")
        assert channels[0] == 1
        # AvgD decreases with channels for both algorithms.
        assert pamad[0] > pamad[-1]
        assert mpb[0] > mpb[-1]
        # PAMAD dominates m-PB at every measured point.
        assert all(p <= m for p, m in zip(pamad, mpb))


class TestAblationsFast:
    def test_abl2_runs(self):
        (table,) = run_experiment("ABL2", channels=(5,))
        assert len(table.rows) == 1

    def test_abl3_even_spread_wins(self):
        (table,) = run_experiment("ABL3", channels=(5, 13))
        for row in table.rows:
            assert row[2] >= row[1]  # sequential >= even-spread


class TestExtensionsFast:
    def test_ext1_drop_congests_more(self):
        (table,) = run_experiment(
            "EXT1", channels=(8,), horizon=1000.0
        )
        row = table.rows[0]
        columns = list(table.columns)
        drop_util = row[columns.index("drop od-util")]
        pamad_util = row[columns.index("pamad od-util")]
        assert drop_util >= 0
        assert pamad_util >= 0

    def test_ext3_zipf_measurement(self):
        (table,) = run_experiment(
            "EXT3", channels=(5,), num_requests=300
        )
        assert len(table.rows) == 1

    def test_ext4_indexing(self):
        (table,) = run_experiment(
            "EXT4", channels=5, factors=(1, 4), pages_sampled=5
        )
        assert [row[0] for row in table.rows] == [1, 4]

    def test_ext5_failures(self):
        (table,) = run_experiment("EXT5", channels=5)
        assert all(row[1] == 5 - row[0] for row in table.rows)

    def test_ext6_adaptive(self):
        (table,) = run_experiment("EXT6", epochs=3)
        assert len(table.rows) == 3

    def test_ext7_multipage(self):
        (table,) = run_experiment(
            "EXT7", channels=5, set_sizes=(1, 2), num_requests=50
        )
        assert len(table.rows) == 2

    def test_ext8_objectives(self):
        (table,) = run_experiment("EXT8", channels=(8,))
        row = table.rows[0]
        assert row[1] < row[2]  # pamad AvgD < disks AvgD

    def test_ext9_caching(self):
        (table,) = run_experiment("EXT9", capacities=(10,))
        row = table.rows[0]
        assert row[2] >= row[1]  # pix hit >= lru hit

    def test_abl4_getslot(self):
        # The naive and the cursor-optimised literal probes must build
        # the same program on every instance: the column reads all yes.
        (table,) = run_experiment("ABL4")
        column = table.columns.index("identical program")
        assert [row[column] for row in table.rows] == [True] * 3
        body = table.render().splitlines()[3:]
        assert [line.split()[-1] for line in body] == ["yes"] * 3

    def test_abl5_online(self):
        (table,) = run_experiment("ABL5", channels=(5,))
        assert len(table.rows) == 1
