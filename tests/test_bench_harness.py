"""Tests for the Table-1 harness and the CLI entry point."""

import pytest

from repro.bench import Table1Row, render_table1, run_table1_row
from repro.bench.__main__ import main as cli_main
from repro.models import TandemParams


def small_params(jobs: int = 1) -> TandemParams:
    return TandemParams(
        jobs=jobs, cube_dim=2, msmq_servers=2, msmq_queues=2
    )


@pytest.fixture(scope="module")
def row():
    return run_table1_row(1, small_params())


class TestRow:
    def test_levels_consistent(self, row):
        assert len(row.unlumped_level_sizes) == 3
        assert len(row.lumped_level_sizes) == 3
        assert row.unlumped_overall >= row.lumped_overall

    def test_reduction_factors(self, row):
        assert row.overall_reduction > 1.0
        assert row.level_reduction(1) == 1.0
        assert row.level_reduction(2) > 1.0

    def test_memory_and_time_positive(self, row):
        assert row.md_memory_bytes > row.lumped_md_memory_bytes > 0
        assert row.generation_seconds > 0
        assert row.lump_seconds > 0

    def test_mdd_engine_matches_bfs(self, row):
        mdd_row = run_table1_row(1, small_params(), reach_engine="mdd")
        assert mdd_row.unlumped_overall == row.unlumped_overall
        assert mdd_row.lumped_overall == row.lumped_overall

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            run_table1_row(1, small_params(), reach_engine="psychic")

    def test_unknown_engine_rejected_before_compiling(self, monkeypatch):
        def no_build(params):
            raise AssertionError("the SAN was compiled")

        monkeypatch.setattr("repro.bench.table1.build_tandem", no_build)
        with pytest.raises(ValueError, match="nope"):
            run_table1_row(1, small_params(), reach_engine="nope")

    def test_exact_kind_runs(self):
        exact_row = run_table1_row(1, small_params(), kind="exact")
        assert exact_row.lumped_overall <= exact_row.unlumped_overall


class TestRender:
    def test_render_contains_all_parts(self, row):
        text = render_table1([row])
        assert "Unlumped state-space sizes" in text
        assert "reduction factors" in text
        assert "MD memory" in text
        assert str(row.unlumped_overall) in text

    def test_render_multiple_rows(self, row):
        other = Table1Row(
            jobs=2,
            unlumped_overall=100,
            unlumped_level_sizes=[2, 10, 5],
            md_nodes_per_level=[1, 2, 2],
            lumped_overall=20,
            lumped_level_sizes=[2, 5, 2],
            generation_seconds=1.0,
            md_memory_bytes=1000,
            lump_seconds=0.1,
            lumped_md_memory_bytes=100,
        )
        text = render_table1([row, other])
        assert text.count("\n\n") == 2


class TestCLI:
    def test_cli_runs_small_config(self, capsys, tmp_path):
        out_file = tmp_path / "table.txt"
        exit_code = cli_main(
            [
                "--jobs", "1",
                "--cube-dim", "2",
                "--msmq-servers", "2",
                "--msmq-queues", "2",
                "--output", str(out_file),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Unlumped state-space sizes" in captured.out
        assert out_file.read_text().startswith("Unlumped")

    def test_cli_rejects_bad_kind(self):
        with pytest.raises(SystemExit):
            cli_main(["--kind", "sideways"])

    def test_cli_symbolic_matches_explicit(self, capsys):
        args = [
            "--jobs", "1",
            "--cube-dim", "2",
            "--msmq-servers", "2",
            "--msmq-queues", "2",
        ]
        assert cli_main(args) == 0
        explicit = capsys.readouterr().out
        assert cli_main(args + ["--symbolic"]) == 0
        symbolic = capsys.readouterr().out

        def strip_times(text):
            return [
                line
                for line in text.splitlines()
                if " s " not in line and not line.endswith("KB")
                and "time" not in line
            ]

        assert strip_times(explicit)[:8] == strip_times(symbolic)[:8]
