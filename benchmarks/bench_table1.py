"""Table 1 regeneration (the paper's entire quantitative evaluation).

Runs the paper's pipeline for each J in the sweep, prints the three-part
table in the paper's layout, asserts the qualitative claims, and benchmarks
the compositional lumping step (the paper's "negligible time overhead").

Run with ``-s`` to see the rendered table; set ``REPRO_BENCH_JOBS=1,2`` (or
``1,2,3`` with patience) for the paper's full sweep.
"""

import pytest

from _config import bench_jobs
from repro.bench import render_table1, run_table1_row
from repro.lumping import compositional_lump

_ROWS_CACHE = {}


def _rows():
    if "rows" not in _ROWS_CACHE:
        _ROWS_CACHE["rows"] = [run_table1_row(j).row for j in bench_jobs()]
    return _ROWS_CACHE["rows"]


def test_table1_upper(benchmark):
    """Unlumped sizes and MD node counts: levels multiply out to (at
    least) the reachable count, and node counts stay tiny and constant."""
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    print("\n" + render_table1(rows))
    for row in rows:
        s1, s2, s3 = row.unlumped_level_sizes
        assert s1 * s2 * s3 >= row.unlumped_overall
        assert row.md_nodes_per_level[0] == 1
        # MDs stay tiny: a handful of nodes per level regardless of J.
        assert sum(row.md_nodes_per_level) <= 20


def test_table1_middle(benchmark):
    """Lumped sizes: large multiplicative reductions at levels 2 and 3,
    and the overall reduction roughly equals the product of the per-level
    reductions (the paper's observation)."""
    for row in benchmark.pedantic(_rows, rounds=1, iterations=1):
        assert row.level_reduction(1) == pytest.approx(1.0)
        assert row.level_reduction(2) > 4.0
        assert row.level_reduction(3) > 4.0
        product = row.level_reduction(2) * row.level_reduction(3)
        assert row.overall_reduction > 0.5 * product
        assert row.overall_reduction < 2.0 * product


def test_table1_lower(benchmark):
    """Times and memory: lumping costs less than generation, and the
    lumped MD uses several times less memory (paper: ~an order of
    magnitude)."""
    for row in benchmark.pedantic(_rows, rounds=1, iterations=1):
        assert row.lump_seconds < row.generation_seconds
        assert row.md_memory_bytes > 4 * row.lumped_md_memory_bytes


def test_paper_table1_j2_pinned():
    """The J=2 row at the paper's configuration, as in results/table1.txt
    (the J=1 row is pinned in tier-1, tests/test_bench_harness.py); runs
    in CI rather than tier-1 because it takes about half a minute."""
    row = run_table1_row(2).row
    assert row.unlumped_overall == 2_457_600
    assert row.unlumped_level_sizes == [6, 11520, 2112]
    assert row.md_nodes_per_level == [1, 6, 4]
    assert row.lumped_overall == 22_600
    assert row.lumped_level_sizes == [6, 1276, 135]


def test_lump_step_benchmark(benchmark, paper_tandem_j1):
    """Wall-clock of the compositional lumping step alone at J=1."""
    model = paper_tandem_j1["model"]
    result = benchmark(compositional_lump, model, "ordinary")
    assert result.lumped.md.level_size(2) < model.md.level_size(2)
