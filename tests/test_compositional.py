"""Tests for the full compositional lumping algorithm (Figure 3b) —
Theorems 3 and 4 exercised end to end."""

import hashlib

import numpy as np
import pytest

from repro.errors import LumpingError
from repro.lumping import MDModel, compositional_lump, lump_mrp
from repro.lumping.verify import (
    global_product_partition,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    verify_compositional_result,
)
from repro.markov import CTMC, MarkovRewardProcess, steady_state
from repro.matrixdiagram import flatten, md_from_kronecker_terms
from repro.models import TandemParams, build_tandem, tandem_md_model
from repro.models.tandem import projected_event_model
from repro.statespace import reachable_bfs


class TestSingleLevelTheorems:
    """Lump ONE level and check the induced global relation (Definition 4)
    satisfies Theorem 3 (ordinary) / Theorem 4 (exact)."""

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_theorem3_per_level(self, three_level_model, level):
        result = compositional_lump(
            three_level_model, "ordinary", levels=[level]
        )
        flat = flatten(three_level_model.md)
        partition = global_product_partition(
            result.partitions, three_level_model.md.level_sizes
        )
        assert is_ordinarily_lumpable(flat, partition)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_theorem4_per_level(self, three_level_model, level):
        result = compositional_lump(
            three_level_model, "exact", levels=[level]
        )
        flat = flatten(three_level_model.md)
        partition = global_product_partition(
            result.partitions, three_level_model.md.level_sizes
        )
        assert is_exactly_lumpable(flat, partition)

    def test_unlumped_levels_stay_discrete(self, three_level_model):
        result = compositional_lump(
            three_level_model, "ordinary", levels=[2]
        )
        assert result.partitions[0].is_discrete()
        assert result.partitions[2].is_discrete()


class TestFullLumping:
    def test_semantic_verification_ordinary(self, three_level_model):
        result = compositional_lump(three_level_model, "ordinary")
        assert verify_compositional_result(result)

    def test_semantic_verification_exact(self, three_level_model):
        result = compositional_lump(three_level_model, "exact")
        assert verify_compositional_result(result)

    def test_reductions_reported(self, three_level_model):
        result = compositional_lump(three_level_model, "ordinary")
        assert [r.level for r in result.reductions] == [1, 2, 3]
        assert result.reductions[1].lumped_size == 1
        assert result.reductions[1].factor == 3.0
        assert result.potential_reduction_factor == pytest.approx(3.0)

    def test_node_count_preserved(self, three_level_model):
        # "replaces each MD node with a possibly smaller one and does not
        # create or delete any node" (Section 5).
        result = compositional_lump(three_level_model, "ordinary")
        original = three_level_model.md
        lumped = result.lumped.md
        for level in range(1, original.num_levels + 1):
            assert len(lumped.nodes_at(level)) == len(
                original.nodes_at(level)
            )

    def test_stationary_aggregation_ordinary(self, three_level_model):
        result = compositional_lump(three_level_model, "ordinary")
        pi = steady_state(CTMC(flatten(three_level_model.md))).distribution
        pi_hat = steady_state(CTMC(flatten(result.lumped.md))).distribution
        assert np.abs(result.project_distribution(pi) - pi_hat).max() < 1e-8

    def test_stationary_aggregation_exact(self, three_level_model):
        result = compositional_lump(three_level_model, "exact")
        pi = steady_state(CTMC(flatten(three_level_model.md))).distribution
        pi_hat = steady_state(CTMC(flatten(result.lumped.md))).distribution
        assert np.abs(result.project_distribution(pi) - pi_hat).max() < 1e-8

    def test_rewards_prevent_lumping(self, three_level_md):
        model = MDModel(
            three_level_md,
            level_rewards=[[0, 0], [0.0, 5.0, 0.0], [0, 0, 0, 0]],
        )
        result = compositional_lump(model, "ordinary")
        # Middle level can no longer lump state 1 with the others.
        assert result.lumped.md.level_size(2) >= 2

    def test_reward_vectors_lumped(self, three_level_md):
        model = MDModel(
            three_level_md,
            level_rewards=[[0, 0], [3.0, 3.0, 3.0], [0, 0, 0, 0]],
        )
        result = compositional_lump(model, "ordinary")
        assert result.lumped.level_rewards[1].tolist() == [3.0]
        # Initial factors sum over class members (uniform default: 3).
        assert result.lumped.level_initial[1].tolist() == [3.0]

    def test_class_tuple_and_projection_consistent(self, three_level_model):
        result = compositional_lump(three_level_model, "ordinary")
        model = three_level_model
        expected = []
        for index in range(model.potential_size()):
            lumped_index = 0
            for partition, substate, size in zip(
                result.partitions,
                model.state_tuple(index),
                result.lumped.md.level_sizes,
            ):
                block = partition.block_index_map()[partition.block_of(substate)]
                lumped_index = lumped_index * size + block
            expected.append(lumped_index)
        indices = np.arange(model.potential_size())
        assert result.project_potential_indices(indices).tolist() == expected
        assert result.projection_vector().tolist() == expected

    def test_invalid_level_rejected(self, three_level_model):
        with pytest.raises(LumpingError):
            compositional_lump(three_level_model, "ordinary", levels=[9])

    def test_invalid_kind_rejected(self, three_level_model):
        with pytest.raises(LumpingError):
            compositional_lump(three_level_model, "sideways")


class TestOptimalityRelationship:
    def test_compositional_not_coarser_than_state_level(self, three_level_model):
        """State-level lumping on the flat chain is at least as coarse as
        the compositional result (the paper's optimality discussion)."""
        result = compositional_lump(three_level_model, "ordinary")
        flat = flatten(three_level_model.md)
        flat_result = lump_mrp(MarkovRewardProcess(CTMC(flat)), "ordinary")
        composed = global_product_partition(
            result.partitions, three_level_model.md.level_sizes
        )
        assert composed.refines(flat_result.partition)

    def test_state_level_on_lumped_md_finds_no_more_symmetric_case(self):
        # For a fully symmetric middle level the compositional result is
        # already optimal: re-lumping the lumped chain gains nothing
        # beyond what flat lumping of the original gives.
        rng = np.random.default_rng(14)
        a1 = rng.random((2, 2))
        a3 = rng.random((2, 2))
        w2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        md = md_from_kronecker_terms([(1.0, [a1, w2, a3])], (2, 2, 2))
        model = MDModel(md)
        result = compositional_lump(model, "ordinary")
        flat_lumped = CTMC(flatten(result.lumped.md))
        again = lump_mrp(MarkovRewardProcess(flat_lumped), "ordinary")
        flat_original = CTMC(flatten(md))
        direct = lump_mrp(MarkovRewardProcess(flat_original), "ordinary")
        assert again.num_classes == direct.num_classes


class TestSmallTandem:
    def test_tandem_lumps(self, small_tandem):
        result = compositional_lump(small_tandem["model"], "ordinary")
        assert result.lumped.md.level_size(2) < small_tandem[
            "model"
        ].md.level_size(2)
        assert result.lumped.md.level_size(3) < small_tandem[
            "model"
        ].md.level_size(3)

    def test_tandem_verified_semantically(self, small_tandem):
        result = compositional_lump(small_tandem["model"], "ordinary")
        assert verify_compositional_result(result, max_states=5000)

    def test_tandem_reachable_projected(self, small_tandem):
        result = compositional_lump(small_tandem["model"], "ordinary")
        assert result.lumped.reachable is not None
        assert len(result.lumped.reachable) < small_tandem["reach"].num_states

    def test_tandem_stationary_aggregation(self, small_tandem):
        model = small_tandem["model"]
        result = compositional_lump(model, "ordinary")
        pi = steady_state(model.flat_ctmc()).distribution
        pi_hat = steady_state(result.lumped.flat_ctmc()).distribution
        assert np.abs(result.project_distribution(pi) - pi_hat).max() < 1e-9

    def test_tandem_exact_lumping_verified(self, small_tandem):
        result = compositional_lump(small_tandem["model"], "exact")
        assert verify_compositional_result(result, max_states=5000)


#: Per ``(jobs, kind)`` on the 2-dimensional hypercube / 2x2 MSMQ tandem:
#: the lumped level sizes and, per level, the sha256 of the refined
#: partition's ``repr((blocks_with_ids(), next_block_id))``.  The digests
#: pin block ids and split order, not just the sizes, so a change in the
#: class-sum keys' summation order or zero handling shows up here.
PINNED_SMALL_TANDEM = {
    (1, "ordinary"): (
        (3, 33, 7),
        (
            "e8fa2aea5739a95279e868f66d109f6d6cb701dc5fa7662f15a728ce5fdf1556",
            "92131c75faf2ecff0aa26ea4fe3be86c39d959f400c2b263e37ffaa0091cea7b",
            "b18e22c612891c176519a09285e4ea01daeb929f535a936ea29dd639b1f0d626",
        ),
    ),
    (1, "exact"): (
        (3, 33, 11),
        (
            "e8fa2aea5739a95279e868f66d109f6d6cb701dc5fa7662f15a728ce5fdf1556",
            "3a8c76b8d26c92b324ee7f39716ea47076ae5ca5833f741d2e07aa3c9f8ef161",
            "de8e3d9c7ac7e4d0e796fe5bab282e385e54f8cb7b1df0fdf86c4a42ebb1473f",
        ),
    ),
    (2, "ordinary"): (
        (6, 91, 18),
        (
            "c05e6339521bca16aae9f0dd074475efa7898009a64e35b604cf1cd7a20510bf",
            "e37f573391dcda8da291ab7f6a15b477b918f0b258a411669c7e7b2983756bf0",
            "82515aaaa31f252525487baa4dbee48f153080d1bc9ee8556a8dd2bd5d9500f0",
        ),
    ),
    (2, "exact"): (
        (6, 91, 29),
        (
            "c05e6339521bca16aae9f0dd074475efa7898009a64e35b604cf1cd7a20510bf",
            "f7e1b3378900547a7390e958f9110a7da69c31d390d9e51b009443a09b54f874",
            "e29508762ef1975bbd3828f797f614c062b0db87ff652a91174da0a92a3740b1",
        ),
    ),
}


@pytest.fixture(scope="module", params=[1, 2], ids=["J1", "J2"])
def pinned_tandem(request):
    params = TandemParams(
        jobs=request.param, cube_dim=2, msmq_servers=2, msmq_queues=2
    )
    compiled = build_tandem(params)
    reach = reachable_bfs(compiled.event_model)
    event_model = projected_event_model(compiled, reach)
    reach = reachable_bfs(event_model)
    return request.param, tandem_md_model(event_model, params, reachable=reach)


class TestPinnedRefinement:
    @pytest.mark.parametrize("kind", ["ordinary", "exact"])
    def test_partitions_match_pinned_digests(self, pinned_tandem, kind):
        jobs, model = pinned_tandem
        sizes, digests = PINNED_SMALL_TANDEM[(jobs, kind)]
        result = compositional_lump(model, kind)
        assert tuple(result.lumped.md.level_sizes) == sizes
        assert tuple(
            hashlib.sha256(
                repr((p.blocks_with_ids(), p.next_block_id)).encode()
            ).hexdigest()
            for p in result.partitions
        ) == digests
