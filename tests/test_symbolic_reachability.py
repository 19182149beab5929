"""Tests for the fully symbolic reachability path (no state enumeration)."""

import numpy as np
import pytest

from repro.errors import StateSpaceError
from repro.models import TandemParams, build_tandem
from repro.san import compile_join
from repro.models.simple import closed_tandem_join
from repro.statespace import (
    MDDManager,
    reachable_bfs,
    symbolic_reachability,
)
from repro.statespace.mdd import FALSE


@pytest.fixture(scope="module")
def tandem_pair():
    params = TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)
    compiled = build_tandem(params)
    explicit = reachable_bfs(compiled.event_model)
    symbolic = symbolic_reachability(compiled.event_model)
    return explicit, symbolic


class TestSymbolicStateSpace:
    def test_count_matches_bfs(self, tandem_pair):
        explicit, symbolic = tandem_pair
        assert symbolic.num_states == explicit.num_states

    def test_supports_match_bfs(self, tandem_pair):
        explicit, symbolic = tandem_pair
        assert symbolic.level_supports() == explicit.level_supports()
        assert symbolic.level_sizes() == explicit.level_sizes()

    def test_chaining_strategy_agrees(self):
        compiled = compile_join(closed_tandem_join(jobs=2))
        saturation = symbolic_reachability(
            compiled.event_model, strategy="saturation"
        )
        chaining = symbolic_reachability(
            compiled.event_model, strategy="chaining"
        )
        assert saturation.num_states == chaining.num_states

    def test_unknown_strategy(self):
        compiled = compile_join(closed_tandem_join(jobs=1))
        with pytest.raises(StateSpaceError):
            symbolic_reachability(compiled.event_model, strategy="magic")

    def test_mapped_count_identity(self, tandem_pair):
        explicit, symbolic = tandem_pair
        identity_maps = [
            {s: s for s in support}
            for support in symbolic.level_supports()
        ]
        sizes = symbolic.model.level_sizes()
        assert (
            symbolic.mapped(identity_maps, sizes).num_states
            == symbolic.num_states
        )

    def test_mapped_count_collapse(self, tandem_pair):
        explicit, symbolic = tandem_pair
        collapse = [
            {s: 0 for s in support}
            for support in symbolic.level_supports()
        ]
        assert symbolic.mapped(collapse, [1, 1, 1]).num_states == 1

    def test_mapped_potential_indices_match_explicit(self, tandem_pair):
        explicit, symbolic = tandem_pair
        halve = [
            {s: s // 2 for s in support}
            for support in symbolic.level_supports()
        ]
        sizes = [(size + 1) // 2 for size in symbolic.model.level_sizes()]
        mapped = symbolic.mapped(halve, sizes)
        expected = sorted(
            {
                np.ravel_multi_index(
                    tuple(halve[level][s] for level, s in enumerate(state)),
                    sizes,
                )
                for state in explicit.states
            }
        )
        assert mapped.potential_indices() == expected
        assert mapped.num_states == len(expected)
        assert mapped.model is None


class TestSymbolicTable1:
    def test_symbolic_row_matches_explicit(self):
        """The Table-1 row (symbolic generation, MDD level mapping) equals
        the sizes of an explicit BFS model lumped level by level."""
        from repro.bench.table1 import run_table1_row
        from repro.lumping import compositional_lump
        from repro.matrixdiagram import md_stats
        from repro.models import tandem_md_model
        from repro.models.tandem import projected_event_model

        params = TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)
        symbolic = run_table1_row(1, params).row
        compiled = build_tandem(params)
        event_model = projected_event_model(
            compiled, reachable_bfs(compiled.event_model)
        )
        reach = reachable_bfs(event_model)
        model = tandem_md_model(event_model, params, reachable=reach)
        lumped = compositional_lump(model).lumped
        assert symbolic.unlumped_overall == reach.num_states
        assert symbolic.lumped_overall == len(lumped.reachable)
        assert symbolic.unlumped_level_sizes == list(reach.level_sizes())
        assert symbolic.lumped_level_sizes == list(lumped.md.level_sizes)
        assert symbolic.md_nodes_per_level == list(
            md_stats(model.md).nodes_per_level
        )


class TestMapLevels:
    def test_map_levels_explicit_semantics(self):
        source = MDDManager((2, 3))
        tuples = [(0, 0), (0, 2), (1, 1), (1, 2)]
        node = source.from_tuples(tuples)
        target = MDDManager((2, 2))
        mapped = source.map_levels(
            node, [{0: 0, 1: 1}, {0: 0, 1: 0, 2: 1}], target
        )
        expected = {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert set(target.tuples(mapped)) == expected

    def test_map_levels_drops_missing_substates(self):
        source = MDDManager((2, 2))
        node = source.from_tuples([(0, 0), (1, 1)])
        target = MDDManager((2, 2))
        mapped = source.map_levels(node, [{0: 0}, {0: 0, 1: 1}], target)
        assert set(target.tuples(mapped)) == {(0, 0)}

    def test_map_levels_empty_result(self):
        source = MDDManager((2,))
        node = source.from_tuples([(1,)])
        target = MDDManager((2,))
        assert source.map_levels(node, [{0: 0}], target) == FALSE

    def test_map_levels_wrong_arity(self):
        source = MDDManager((2, 2))
        node = source.from_tuples([(0, 0)])
        with pytest.raises(StateSpaceError):
            source.map_levels(node, [{0: 0}], MDDManager((2, 2)))
