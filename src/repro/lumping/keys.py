"""Key-function (``K``) factories for the refinement engine.

Section 4 of the paper: "Function K is the key to generalizing this
algorithm. ... By choosing K appropriately, we can customize the algorithm
to compute partitions that satisfy a set of desired conditions."

Flat variants (state-level lumping, baseline [9]):

* ordinary: ``K(R, s, C) = R(s, C)`` — cumulative rate from ``s`` into
  the splitter class,
* exact: ``K(R, s, C) = R(C, s)`` — cumulative rate from the splitter
  class into ``s``.

MD-node variant (the paper's contribution): ``K`` returns the *formal
sum* ``sum_{n3} r(s2, C2) . R_n3`` represented as a set of
``(coefficient, node index)`` pairs, so the algorithm runs on nodes of size
``|S2| x |S2|`` instead of matrices of size ``|S3| x |S3|``.  One kernel,
:func:`class_sum_keys`, computes that key for a node and a class labeling;
the refinement splitter (:func:`md_node_splitter`), the exact initial
partition (:mod:`repro.lumping.local`) and the sweep's partition-reuse
proof (:mod:`repro.sweep.reuse`) all call it, so they agree on what
"equal key" means.  ``transpose`` selects exact lumping's column sums.

The concrete-matrix variant (:func:`md_node_matrix_splitter`) realizes the
"first obvious way" the paper describes and rejects as prohibitively
expensive; it exists for the ablation benchmark and as a correctness
oracle (it is sufficient *and* necessary on the node's represented
matrices).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.lumping.refinement import SplitterFactory
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.node import Entry, MDNode
from repro.matrixdiagram.operations import flatten_node
from repro.util.numeric import quantize

# ----------------------------------------------------------------------
# flat matrices
# ----------------------------------------------------------------------


def _axis_sum_splitter(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int
) -> SplitterFactory:
    """Shared core of the flat splitters: for a splitter class ``C``,
    accumulate ``sum(s) = sum over the stored slices of C`` touching ``s``.

    Works directly on the compressed arrays (no sparse-matrix slicing in
    the refinement hot loop): for the ordinary key the arrays come from
    the CSC form (slices are columns, touched entries are row indices);
    for the exact key from the CSR form (slices are rows, touched entries
    are column indices).
    """

    def factory(members: Tuple[int, ...]):
        chunks_index = []
        chunks_data = []
        for member in members:
            start, end = indptr[member], indptr[member + 1]
            if start != end:
                chunks_index.append(indices[start:end])
                chunks_data.append(data[start:end])
        if not chunks_index:
            return (lambda _state: 0.0), []
        touched_index = np.concatenate(chunks_index)
        sums = np.zeros(n)
        np.add.at(sums, touched_index, np.concatenate(chunks_data))
        touched = np.unique(touched_index)

        def key(state: int) -> Hashable:
            return quantize(float(sums[state]))

        return key, touched.tolist()

    return factory


def flat_ordinary_splitter(rate_matrix: sparse.spmatrix) -> SplitterFactory:
    """``K(R, s, C) = R(s, C)`` with sparsity: only rows with a transition
    into ``C`` can have a non-zero sum."""
    csc = sparse.csc_matrix(rate_matrix)
    return _axis_sum_splitter(
        csc.indptr, csc.indices, csc.data, csc.shape[0]
    )


def flat_exact_splitter(rate_matrix: sparse.spmatrix) -> SplitterFactory:
    """``K(R, s, C) = R(C, s)`` with sparsity: only columns receiving a
    transition from ``C`` can have a non-zero sum."""
    csr = sparse.csr_matrix(rate_matrix)
    return _axis_sum_splitter(
        csr.indptr, csr.indices, csr.data, csr.shape[1]
    )


# ----------------------------------------------------------------------
# MD nodes: class sums (the paper's local K)
# ----------------------------------------------------------------------


def class_sum_keys(
    node: MDNode,
    entries: Iterable[Tuple[int, int, Entry]],
    class_of: Mapping[int, int],
    transpose: bool = False,
) -> Dict[int, Dict[int, Hashable]]:
    """``K(R_n, s, C)`` of Definition 3 for every state ``s`` the given
    entries touch and every class ``C`` they reach, as
    ``{state: {class: key}}``.

    Each ``(row, col, entry)`` of ``entries`` adds into the sum of its
    row over the class ``class_of[col]``; with ``transpose`` into the
    sum of its column over ``class_of[row]`` (exact lumping's
    ``R_n(C, s)``).  The key is ``quantize(total)`` on a terminal node
    and, on an inner node, the sorted quantized ``(child, coefficient)``
    signature of the formal sum — the :attr:`FormalSum.signature` of
    ``row_sum_over`` / ``col_sum_over``, computed without building any
    :class:`FormalSum`.  Classes whose sum is zero are left out, so a
    cancelling class compares equal to one the state has no entries
    in; a state whose sums all vanish maps to ``{}``.

    ``quantize`` keeps nine significant digits, so a float sum taken in
    another order can flip a key at a rounding boundary.  ``entries``
    must therefore be ``node.entries()`` or a subsequence of it in that
    order: every state's terms are then added in entry order, whoever
    calls the kernel.
    """
    terminal = node.terminal
    sums: Dict[int, Dict[int, Any]] = {}
    for row, col, entry in entries:
        state, other = (col, row) if transpose else (row, col)
        bucket = sums.get(state)
        if bucket is None:
            bucket = sums[state] = {}
        cls = class_of[other]
        if terminal:
            bucket[cls] = bucket.get(cls, 0.0) + entry
            continue
        acc = bucket.get(cls)
        if acc is None:
            acc = bucket[cls] = {}
        for child, coefficient in entry.items():
            acc[child] = acc.get(child, 0.0) + coefficient
    keys: Dict[int, Dict[int, Hashable]] = {}
    for state, bucket in sums.items():
        state_keys: Dict[int, Hashable] = {}
        for cls, total in bucket.items():
            if terminal:
                if total != 0.0:
                    state_keys[cls] = quantize(total)
                continue
            signature = tuple(
                sorted(
                    (child, quantize(v))
                    for child, v in total.items()
                    if v != 0.0
                )
            )
            if signature:
                state_keys[cls] = signature
        keys[state] = state_keys
    return keys


def md_node_splitter(node: MDNode, transpose: bool = False) -> SplitterFactory:
    """``K(R_n, s, C) = {(r(s, C), n')}`` — the formal sum of row ``s``
    over the splitter class as a quantized signature (Eq. (12)); with
    ``transpose`` the column sum ``r(C, s)`` that exact lumping needs
    (Eq. (5) of Definition 3).  States without entries in ``C`` keep
    the zero key (``0.0`` / ``()``)."""
    entries = list(node.entries())
    # Positions in ``entries`` of every column's entries (every row's
    # with ``transpose``): a splitter gathers its members' entries and
    # sorts them back into entry order for the kernel.
    positions: Dict[int, List[int]] = {}
    for position, (row, col, _entry) in enumerate(entries):
        positions.setdefault(row if transpose else col, []).append(position)
    zero: Hashable = 0.0 if node.terminal else ()

    def factory(members: Tuple[int, ...]):
        gathered = sorted(
            position
            for member in members
            for position in positions.get(member, ())
        )
        sums = {
            state: keys.get(0, zero)
            for state, keys in class_sum_keys(
                node,
                [entries[position] for position in gathered],
                dict.fromkeys(members, 0),
                transpose,
            ).items()
        }

        def key(state: int) -> Hashable:
            return sums.get(state, zero)

        return key, list(sums)

    return factory


# ----------------------------------------------------------------------
# MD nodes: concrete-matrix keys (ablation / oracle)
# ----------------------------------------------------------------------


def _matrix_signature(matrix: sparse.spmatrix) -> Tuple:
    coo = matrix.tocoo()
    quantized = (
        (int(r), int(c), quantize(float(v)))
        for r, c, v in zip(coo.row, coo.col, coo.data)
    )
    return tuple(sorted(item for item in quantized if item[2] != 0.0))


def _entry_matrix(
    md: MatrixDiagram,
    entry,
    terminal: bool,
    cache: Dict[int, sparse.csr_matrix],
    dim: int,
) -> sparse.csr_matrix:
    if terminal:
        return sparse.csr_matrix(([float(entry)], ([0], [0])), shape=(1, 1))
    total = sparse.csr_matrix((dim, dim))
    for child, coefficient in entry.items():
        total = total + coefficient * flatten_node(md, child, cache)
    return sparse.csr_matrix(total)


def md_node_matrix_splitter(
    md: MatrixDiagram,
    node: MDNode,
    transpose: bool = False,
    flat_cache: Optional[Dict[int, sparse.csr_matrix]] = None,
) -> SplitterFactory:
    """``K(R_n, s, C) = bar(R)_n(s, C)`` — the *represented matrix* of
    the row sum (of the column sum ``bar(R)_n(C, s)`` with
    ``transpose``).  Sufficient and necessary on the node level, but
    requires flattening children (the trade-off of Section 4)."""
    if flat_cache is None:
        flat_cache = {}
    by_state: Dict[int, List[Tuple[int, Entry]]] = {}
    for row, col, entry in node.entries():
        state, other = (col, row) if transpose else (row, col)
        by_state.setdefault(state, []).append((other, entry))
    dim = 1 if node.terminal else math.prod(md.level_sizes[node.level :])

    def factory(members: Tuple[int, ...]):
        member_set = set(members)

        def key(state: int) -> Hashable:
            total = sparse.csr_matrix((dim, dim))
            for other, entry in by_state.get(state, ()):
                if other in member_set:
                    total = total + _entry_matrix(
                        md, entry, node.terminal, flat_cache, dim
                    )
            return _matrix_signature(total)

        return key, None

    return factory
