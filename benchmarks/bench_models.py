"""Model pipeline benchmarks (Figures 4 and 5: the MSMQ and hypercube
subsystems) — compile, reachability (explicit BFS vs saturation), MD
build.
"""

import hashlib

from repro.models import TandemParams, build_tandem
from repro.statespace import (
    reachable_bfs,
    reachable_mdd,
    symbolic_reachability,
)


def _small_params():
    return TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)


def test_compile_tandem(benchmark):
    compiled = benchmark(build_tandem, _small_params())
    assert compiled.event_model.num_levels == 3


def test_reachability_bfs(benchmark, small_tandem_bench):
    model = small_tandem_bench["event_model"]
    reach = benchmark(reachable_bfs, model)
    assert reach.num_states == small_tandem_bench["reach"].num_states


def test_reachability_saturation(benchmark, small_tandem_bench):
    model = small_tandem_bench["event_model"]
    reach = benchmark(symbolic_reachability, model)
    assert reach.num_states == small_tandem_bench["reach"].num_states


def test_md_construction(benchmark, small_tandem_bench):
    model = small_tandem_bench["event_model"]
    md = benchmark(model.to_md)
    assert md.num_levels == 3


def test_reach_engines_agree(small_tandem_bench):
    model = small_tandem_bench["event_model"]
    assert reachable_bfs(model).states == reachable_mdd(model).states


def test_paper_tandem_j2_compile_digest():
    """The paper-scale J=2 compile is pinned like the smaller models in
    ``tests/test_san.py::TestCompileDigests`` (same digest encoding); it
    runs in CI rather than tier-1 because it takes seconds, not
    milliseconds."""
    compiled = build_tandem(TandemParams(jobs=2))
    model = compiled.event_model
    payload = (
        compiled.level_names,
        [level.labels for level in model.levels],
        [(event.name, event.weight, event.effects) for event in model.events],
        model.initial_state,
        compiled.dropped_transitions,
        compiled.stats,
    )
    assert hashlib.sha256(repr(payload).encode()).hexdigest() == (
        "42442d7314239beee689c78000e2e58c9aa2aff5a47d4f6b447df4a5ec653da1"
    )
