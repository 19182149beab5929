"""Property-based tests (hypothesis) on core data structures and the
lumping invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lumping import MDModel, compositional_lump, lump_mrp
from repro.lumping.compositional import apply_partitions
from repro.lumping.keys import class_sum_keys
from repro.lumping.verify import (
    global_product_partition,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
)
from repro.markov import CTMC, MarkovRewardProcess, steady_state
from repro.markov.random_chains import (
    block_constant_vector,
    random_exactly_lumpable,
    random_ordinarily_lumpable,
)
from repro.matrixdiagram import (
    FormalSum,
    flatten,
    md_from_kronecker_terms,
    md_vector_multiply,
)
from repro.matrixdiagram.node import MDNode
from repro.partitions import Partition
from repro.statespace import MDDManager
from repro.util.numeric import quantize

SLOW = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------

partition_strategy = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=3), min_size=n, max_size=n
    ).map(lambda labels: Partition.from_labels(labels))
)


@given(partition_strategy)
@SLOW
def test_partition_blocks_cover_exactly(partition):
    covered = sorted(s for block in partition.blocks() for s in block)
    assert covered == list(range(partition.n))


@given(partition_strategy)
@SLOW
def test_partition_meet_is_finest_common(partition):
    other = Partition.trivial(partition.n)
    meet = partition.meet(other)
    assert meet == partition
    discrete = Partition.discrete(partition.n)
    assert partition.meet(discrete) == discrete


@given(partition_strategy, st.integers(min_value=0, max_value=3))
@SLOW
def test_partition_refine_only_refines(partition, modulus):
    before = partition.copy()
    partition.refine(lambda s: s % (modulus + 1))
    assert partition.refines(before)


# ----------------------------------------------------------------------
# formal sums
# ----------------------------------------------------------------------

terms_strategy = st.dictionaries(
    st.integers(min_value=1, max_value=6),
    st.floats(
        min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
    ),
    max_size=5,
)


@given(terms_strategy, terms_strategy)
@SLOW
def test_formal_sum_addition_commutative(a, b):
    assert FormalSum(a) + FormalSum(b) == FormalSum(b) + FormalSum(a)


@given(terms_strategy, st.floats(min_value=-4, max_value=4, allow_nan=False))
@SLOW
def test_formal_sum_scaling_distributes(terms, factor):
    fs = FormalSum(terms)
    assert fs.scaled(factor) + fs.scaled(-factor) == FormalSum.zero()


@given(terms_strategy)
@SLOW
def test_formal_sum_zero_identity(terms):
    fs = FormalSum(terms)
    assert fs + FormalSum.zero() == fs


# ----------------------------------------------------------------------
# the class-sum kernel vs the reference node sums
# ----------------------------------------------------------------------


@st.composite
def labeled_node(draw):
    """A random terminal or inner node and a class label per substate."""
    size = draw(st.integers(min_value=1, max_value=5))
    terminal = draw(st.booleans())
    cell = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.integers(min_value=0, max_value=size - 1),
    )
    min_size = 0
    if draw(st.booleans()):
        # Dense unit entries of both signs: sums cancel often, which
        # keeps the kernel's zero-class dropping exercised.
        min_size = min(size * size, 6)
        value = st.sampled_from(
            [-1.0, 1.0]
            if terminal
            else [FormalSum({1: -1.0}), FormalSum({1: 1.0})]
        )
    elif terminal:
        value = st.floats(
            min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
        )
    else:
        value = terms_strategy.map(FormalSum)
    entries = draw(
        st.dictionaries(cell, value, min_size=min_size, max_size=12)
    )
    node = MDNode(1, entries, terminal=terminal)
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=2), min_size=size, max_size=size
        )
    )
    return node, labels


@given(labeled_node(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_class_sum_kernel_matches_row_and_col_sums(case, transpose):
    node, labels = case
    keys = class_sum_keys(
        node, node.entries(), dict(enumerate(labels)), transpose
    )
    for state in range(len(labels)):
        for cls in set(labels):
            # The reference adds the class's entries in node.entries()
            # order, the order the kernel promises.
            if transpose:
                rows = tuple(
                    r for r, c, _ in node.entries()
                    if c == state and labels[r] == cls
                )
                reference = node.col_sum_over(rows, state)
            else:
                cols = tuple(
                    c for r, c, _ in node.entries()
                    if r == state and labels[c] == cls
                )
                reference = node.row_sum_over(state, cols)
            expected = (
                quantize(reference) if node.terminal else reference.signature
            )
            got = keys.get(state, {}).get(cls)
            if got is None:
                assert expected in (0.0, ())
            else:
                assert got == expected and got not in (0.0, ())


# ----------------------------------------------------------------------
# MDDs vs python sets
# ----------------------------------------------------------------------

tuple_set_strategy = st.sets(
    st.tuples(
        st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)
    ),
    max_size=10,
)


@given(tuple_set_strategy, tuple_set_strategy)
@SLOW
def test_mdd_union_matches_set_union(a, b):
    manager = MDDManager((2, 3, 2))
    na, nb = manager.from_tuples(sorted(a)), manager.from_tuples(sorted(b))
    union = manager.union(na, nb)
    assert set(manager.tuples(union)) == a | b
    assert manager.count(union) == len(a | b)


@given(tuple_set_strategy, tuple_set_strategy)
@SLOW
def test_mdd_intersection_matches_set_intersection(a, b):
    manager = MDDManager((2, 3, 2))
    na, nb = manager.from_tuples(sorted(a)), manager.from_tuples(sorted(b))
    intersection = manager.intersect(na, nb)
    assert set(manager.tuples(intersection)) == a & b


# ----------------------------------------------------------------------
# MD flatten / multiply consistency on random Kronecker MDs
# ----------------------------------------------------------------------

small_matrix = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(
            st.floats(min_value=0, max_value=3, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    ).map(np.array)
)


@given(small_matrix, small_matrix, st.floats(min_value=0.1, max_value=3))
@SLOW
def test_md_flatten_matches_kron(m1, m2, weight):
    md = md_from_kronecker_terms(
        [(weight, [m1, m2])], (m1.shape[0], m2.shape[0])
    )
    reference = weight * np.kron(m1, m2)
    assert np.abs(flatten(md).toarray() - reference).max() < 1e-9


@given(small_matrix, small_matrix)
@SLOW
def test_md_multiply_matches_flat(m1, m2):
    md = md_from_kronecker_terms([(1.0, [m1, m2])], (m1.shape[0], m2.shape[0]))
    n = m1.shape[0] * m2.shape[0]
    x = np.linspace(0.5, 1.5, n)
    reference = np.kron(m1, m2)
    assert np.abs(md_vector_multiply(md, x) - x @ reference).max() < 1e-9


# ----------------------------------------------------------------------
# lumping invariants on planted chains
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=6, max_value=20),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
@SLOW
def test_ordinary_lumping_preserves_aggregated_stationary(n, k, seed):
    chain, planted = random_ordinarily_lumpable(n, min(k, n), seed=seed)
    mrp = MarkovRewardProcess(
        chain, rewards=block_constant_vector(planted, seed=seed)
    )
    result = lump_mrp(mrp, "ordinary")
    assert planted.refines(result.partition)
    assert is_ordinarily_lumpable(chain.rate_matrix, result.partition)
    pi = steady_state(chain).distribution
    pi_hat = steady_state(result.lumped.ctmc).distribution
    assert np.abs(result.project_distribution(pi) - pi_hat).max() < 1e-7


@given(
    st.integers(min_value=6, max_value=20),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
@SLOW
def test_exact_lumping_found_partition_is_exactly_lumpable(n, k, seed):
    chain, planted = random_exactly_lumpable(n, min(k, n), seed=seed)
    result = lump_mrp(MarkovRewardProcess(chain), "exact")
    assert planted.refines(result.partition)
    assert is_exactly_lumpable(chain.rate_matrix, result.partition)


@given(small_matrix, small_matrix, st.floats(min_value=0.1, max_value=3))
@SLOW
def test_md_algebra_identities(m1, m2, factor):
    """transpose/add/scale satisfy the expected algebraic identities."""
    from repro.matrixdiagram import md_add, md_scale, md_transpose

    a = md_from_kronecker_terms([(1.0, [m1, m2])], (m1.shape[0], m2.shape[0]))
    b = md_from_kronecker_terms(
        [(0.5, [m1.T, m2.T])], (m1.shape[0], m2.shape[0])
    )
    flat_a = flatten(a).toarray()
    flat_b = flatten(b).toarray()
    # transpose distributes over add
    lhs = flatten(md_transpose(md_add(a, b))).toarray()
    rhs = flatten(md_add(md_transpose(a), md_transpose(b))).toarray()
    assert np.abs(lhs - rhs).max() < 1e-9
    assert np.abs(lhs - (flat_a + flat_b).T).max() < 1e-9
    # scale distributes over add
    lhs2 = flatten(md_scale(md_add(a, b), factor)).toarray()
    assert np.abs(lhs2 - factor * (flat_a + flat_b)).max() < 1e-9


@given(st.integers(min_value=0, max_value=500))
@SLOW
def test_compositional_lumping_always_globally_lumpable(seed):
    rng = np.random.default_rng(seed)
    a1 = rng.random((2, 2))
    a3 = rng.random((2, 2))
    # Random symmetric-or-not middle level.
    w2 = rng.random((3, 3))
    if seed % 2 == 0:
        w2[1] = w2[0]  # make rows 0,1 equal -> likely lumpable pair
        w2[:, 1] = w2[:, 0]
    md = md_from_kronecker_terms([(1.0, [a1, w2, a3])], (2, 3, 2))
    model = MDModel(md)
    result = compositional_lump(model, "ordinary")
    partition = global_product_partition(result.partitions, md.level_sizes)
    assert is_ordinarily_lumpable(flatten(md), partition)


@given(tuple_set_strategy)
@SLOW
def test_mdd_node_export_import_roundtrip(tuples):
    manager = MDDManager((2, 3, 2))
    node = manager.from_tuples(sorted(tuples))
    exported = manager.export_nodes(node)
    fresh = MDDManager((2, 3, 2))
    assert set(fresh.tuples(fresh.import_nodes(exported))) == tuples
    # One entry per node of the set's DAG, each interned once.
    assert fresh.num_nodes == len(exported)


# ----------------------------------------------------------------------
# the reachable-set projection of apply_partitions vs a scalar oracle
# ----------------------------------------------------------------------


@st.composite
def restricted_models_with_partitions(draw):
    """A random 2-4-level MD model with a random reachable subset and a
    random partition per level."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    md = md_from_kronecker_terms(
        [(1.0, [rng.random((size, size)) for size in sizes])], sizes
    )
    potential = int(np.prod(sizes))
    reachable = draw(
        st.sets(st.integers(0, potential - 1), min_size=1, max_size=potential)
    )
    partitions = [
        Partition.from_labels(
            draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        )
        for size in sizes
    ]
    return MDModel(md, reachable=sorted(reachable)), partitions


@given(restricted_models_with_partitions(), st.integers(0, 2**16))
@SLOW
def test_projection_matches_scalar_oracle(case, seed):
    model, partitions = case
    result = apply_partitions(model, partitions)

    def lumped_index(index):
        out = 0
        for partition, substate in zip(partitions, model.state_tuple(index)):
            dense = partition.block_index_map()[partition.block_of(substate)]
            out = out * len(partition) + dense
        return out

    projected = [lumped_index(index) for index in model.reachable]
    reachable = sorted(set(projected))
    positions = [reachable.index(p) for p in projected]
    assert result.lumped.reachable == reachable
    assert result.projection_vector().tolist() == positions
    pi = np.random.default_rng(seed).random(len(model.reachable))
    expected = np.zeros(len(reachable))
    for position, mass in zip(positions, pi):
        expected[position] += mass
    assert np.array_equal(result.project_distribution(pi), expected)
