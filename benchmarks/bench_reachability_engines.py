"""Reachability engine comparison: explicit BFS (the tests' oracle) vs
saturation (the technique the paper credits for 10^1000-state MDs)."""

from repro.statespace import (
    reachable_bfs,
    reachable_mdd,
    symbolic_reachability,
)


def test_bfs(benchmark, small_tandem_bench):
    model = small_tandem_bench["event_model"]
    result = benchmark(reachable_bfs, model)
    assert result.num_states == small_tandem_bench["reach"].num_states


def test_saturation(benchmark, small_tandem_bench):
    model = small_tandem_bench["event_model"]
    result = benchmark(symbolic_reachability, model)
    assert result.num_states == small_tandem_bench["reach"].num_states


def test_all_engines_agree(small_tandem_bench):
    model = small_tandem_bench["event_model"]
    assert reachable_mdd(model).states == reachable_bfs(model).states
