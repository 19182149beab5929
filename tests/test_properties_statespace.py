"""Property-based tests over randomly generated event models.

All reachability engines must agree with each other and with the flat
restriction of the MD; random per-level lumping maps must commute with
MDD-level mapping.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.matrixdiagram import flatten
from repro.statespace import (
    Event,
    EventModel,
    LevelSpace,
    reachable_bfs,
    reachable_mdd,
    symbolic_reachability,
)

SLOW = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def random_event_models(draw):
    """Small random event models: 2-3 levels, sizes 2-3, 1-4 events."""
    num_levels = draw(st.integers(2, 3))
    sizes = [draw(st.integers(2, 3)) for _ in range(num_levels)]
    num_events = draw(st.integers(1, 4))
    events = []
    for index in range(num_events):
        touched = draw(
            st.sets(
                st.integers(1, num_levels), min_size=1, max_size=num_levels
            )
        )
        effects = {}
        for level in touched:
            size = sizes[level - 1]
            table = {}
            num_sources = draw(st.integers(1, size))
            for source in range(num_sources):
                target = draw(st.integers(0, size - 1))
                factor = draw(
                    st.floats(
                        min_value=0.1, max_value=2.0, allow_nan=False
                    )
                )
                table[source] = [(target, factor)]
            effects[level] = table
        events.append(Event(f"e{index}", 1.0, effects))
    levels = [
        LevelSpace(f"l{i}", list(range(size)))
        for i, size in enumerate(sizes)
    ]
    initial = [0] * num_levels
    return EventModel(levels, events, initial)


@given(random_event_models())
@SLOW
def test_all_reachability_engines_agree(model):
    bfs = reachable_bfs(model).states
    assert reachable_mdd(model).states == bfs
    symbolic = symbolic_reachability(model)
    assert symbolic.num_states == len(bfs)
    supports = symbolic.level_supports()
    explicit_supports = reachable_bfs(model).level_supports()
    assert supports == explicit_supports


@given(random_event_models())
@SLOW
def test_md_restriction_matches_explicit_ctmc(model):
    reach = reachable_bfs(model)
    flat = flatten(model.to_md()).toarray()
    indices = reach.potential_indices()
    explicit = reach.to_ctmc().rate_matrix.toarray()
    assert np.abs(flat[np.ix_(indices, indices)] - explicit).max() < 1e-9


@given(random_event_models(), st.integers(0, 10))
@SLOW
def test_mapped_count_matches_explicit_projection(model, seed):
    rng = np.random.default_rng(seed)
    symbolic = symbolic_reachability(model)
    supports = symbolic.level_supports()
    # Random surjections onto small ranges.
    mappings = []
    target_sizes = []
    for support in supports:
        k = int(rng.integers(1, len(support) + 1))
        mapping = {s: int(rng.integers(0, k)) for s in support}
        mappings.append(mapping)
        target_sizes.append(k)
    explicit = {
        tuple(mappings[level][s] for level, s in enumerate(state))
        for state in reachable_bfs(model).states
    }
    assert symbolic.mapped(mappings, target_sizes).num_states == len(explicit)
