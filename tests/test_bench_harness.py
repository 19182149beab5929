"""Tests for the Table-1 harness and the CLI entry point."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import lump_and_solve
from repro.bench import Table1Row, render_table1, run_table1_row
from repro.bench.__main__ import main as cli_main
from repro.matrixdiagram import md_stats
from repro.models import TandemParams, build_tandem, tandem_md_model
from repro.models.tandem import projected_event_model
from repro.statespace import reachable_bfs


def small_params(jobs: int = 1) -> TandemParams:
    return TandemParams(
        jobs=jobs, cube_dim=2, msmq_servers=2, msmq_queues=2
    )


@pytest.fixture(scope="module")
def row():
    return run_table1_row(1, small_params()).row


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
        """The row's symbolic (MDD) generation lists the same states as an
        explicit BFS of the SAN."""
        reach = reachable_bfs(build_tandem(small_params()).event_model)
        assert row.unlumped_overall == reach.num_states
        assert row.unlumped_level_sizes == list(reach.level_sizes())

    def test_exact_kind_runs(self):
        exact_row = run_table1_row(1, small_params(), kind="exact").row
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

    def test_cli_symbolic_matches_explicit(self, capsys):
        """The CLI's table equals the table rendered from the explicit (BFS)
        row, above the timings."""
        args = [
            "--jobs", "1",
            "--cube-dim", "2",
            "--msmq-servers", "2",
            "--msmq-queues", "2",
        ]
        assert cli_main(args) == 0
        symbolic = capsys.readouterr().out
        expected, _ = _bfs_oracle(small_params(), "ordinary")
        explicit = render_table1(
            [Table1Row(**expected, generation_seconds=0.0, lump_seconds=0.0)]
        )

        def strip_times(text):
            return [
                line
                for line in text.splitlines()
                if " s " not in line and not line.endswith("KB")
                and "time" not in line
            ]

        assert strip_times(explicit)[:8] == strip_times(symbolic)[:8]

    def test_cli_rejects_bad_kind(self):
        with pytest.raises(SystemExit):
            cli_main(["--kind", "sideways"])


# ----------------------------------------------------------------------
# the paper's figures, and the explicit (BFS) oracle
# ----------------------------------------------------------------------

#: Non-timing fields of a Table-1 row.
SIZE_FIELDS = [
    f.name
    for f in dataclasses.fields(Table1Row)
    if not f.name.endswith("_seconds")
]


def test_paper_j1_figures_pinned():
    """The J=1 row at the paper's configuration, as in results/table1.txt
    (the J=2 row is pinned in benchmarks/bench_table1.py, run in CI)."""
    row = run_table1_row(1).row
    assert row.unlumped_overall == 278_528
    assert row.unlumped_level_sizes == [3, 2304, 512]
    assert row.md_nodes_per_level == [1, 6, 4]
    assert row.lumped_overall == 3_040
    assert row.lumped_level_sizes == [3, 286, 35]


def _bfs_oracle(params, kind):
    """The row and robust solution built from an explicit BFS state space
    through the public model functions (independent of the symbolic
    generation, support projection and MDD level mapping)."""
    compiled = build_tandem(params)
    reach = reachable_bfs(compiled.event_model)
    event_model = projected_event_model(compiled, reach)
    reach = reachable_bfs(event_model)
    model = tandem_md_model(event_model, params, reachable=reach)
    solution = lump_and_solve(model, kind=kind, robust=True)
    lumped = solution.lumping.lumped
    unlumped_stats = md_stats(model.md)
    lumped_stats = md_stats(lumped.md)
    row = {
        "jobs": params.jobs,
        "unlumped_overall": reach.num_states,
        "unlumped_level_sizes": list(reach.level_sizes()),
        "md_nodes_per_level": list(unlumped_stats.nodes_per_level),
        "lumped_overall": len(lumped.reachable),
        "lumped_level_sizes": list(lumped.md.level_sizes),
        "md_memory_bytes": unlumped_stats.memory_bytes,
        "lumped_md_memory_bytes": lumped_stats.memory_bytes,
    }
    return row, solution


@pytest.mark.parametrize(
    "params, kind",
    [
        pytest.param(small_params(1), "ordinary", id="j1"),
        pytest.param(small_params(2), "ordinary", id="j2"),
        pytest.param(small_params(3), "ordinary", id="j3"),
        pytest.param(
            dataclasses.replace(
                small_params(2), hyper_service_rates=[1.0, 1.5, 2.25, 0.7]
            ),
            "ordinary",
            id="j2-asymmetric",
        ),
        pytest.param(small_params(1), "exact", id="j1-exact"),
    ],
)
def test_row_matches_bfs_oracle(params, kind):
    run = run_table1_row(params.jobs, params, kind=kind, robust=True)
    expected, solution = _bfs_oracle(params, kind)
    assert sorted(SIZE_FIELDS) == sorted(expected)
    assert {name: getattr(run.row, name) for name in SIZE_FIELDS} == expected
    assert run.solve_method == solution.solve_method
    assert np.array_equal(run.stationary, solution.stationary)
