"""The partition-reuse gate: prove a rate change kept the partition.

Rates enter the refinement keys only as formal-sum coefficients, so
many rate changes — uniform scalings of a site's entries in particular
— cannot alter the lumping partition.  Instead of *assuming* that, the
gate re-checks the lumpability conditions of the base partition
directly on the derived model.  The class sums come from the
refinement's own kernel, :func:`repro.lumping.keys.class_sum_keys`, so
the proof and the refinement agree on what "equal key" means:

* the **initial condition** (Section 4, ``P_i_ini``): rewards constant
  on every class for ordinary lumping; initial factors and full
  coefficient row sums constant for exact lumping;
* the **stability condition** (Figure 3a): for every node of the
  level, every class ``C``, and every class ``B``, the class-sum
  ``R_n(s, C)`` (ordinary; transposed for exact) has the same
  signature for all ``s in B``.

These are exactly the conditions the fixed-point refinement enforces,
so a partition that passes is a valid — not necessarily coarsest —
lumping of the derived model, and Theorems 2/3/4 make its results
exact.  A partition that fails (quantization ties flipping under
scaling, a site that breaks a symmetry) falls back to full re-lumping,
recorded in the :class:`~repro.robust.report.RunReport` as a
``sweep.reuse`` fallback: reuse is an optimization the proof licenses,
never a correctness assumption.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    AbstractSet,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.lumping.compositional import (
    CompositionalLumpingResult,
    apply_partitions,
    compositional_lump,
)
from repro.lumping.keys import class_sum_keys
from repro.lumping.md_model import MDModel
from repro.partitions import Partition
from repro.sweep.spec import apply_point
from repro.robust.report import RunReport
from repro.util.numeric import quantize

_NO_KEYS: Mapping[int, Any] = {}


def _blocks(partition: Partition) -> List[Tuple[int, ...]]:
    """The classes of a partition as member tuples, in dense order."""
    index_map = partition.block_index_map()
    ordered = sorted(index_map.items(), key=lambda item: item[1])
    return [tuple(partition.block(block_id)) for block_id, _ in ordered]


def _unstable(
    keys: Mapping[int, Mapping[int, Any]],
    blocks: Sequence[Tuple[int, ...]],
) -> Optional[Tuple[Tuple[int, ...], Mapping[int, Any], Mapping[int, Any]]]:
    """The first block holding two states with different class-sum
    keys, as ``(block, head keys, mismatched keys)``; ``None`` if every
    block is stable."""
    for block in blocks:
        head = keys.get(block[0], _NO_KEYS)
        for state in block[1:]:
            mismatched = keys.get(state, _NO_KEYS)
            if mismatched != head:
                return block, head, mismatched
    return None


def partition_reuse_proof(
    model: MDModel,
    partitions: Sequence[Partition],
    kind: str = "ordinary",
    changed_nodes: Optional[AbstractSet[int]] = None,
) -> Optional[str]:
    """Check that ``partitions`` remains a valid per-level lumping of
    ``model``.

    Returns ``None`` when the proof goes through, else a one-line
    reason naming the first violated condition (level, node, class) —
    the caller records it and re-lumps from scratch.

    ``changed_nodes`` restricts the per-node stability scan to those
    node indices.  This is the incremental form of the proof: it is
    ONLY sound when the caller knows every other node of ``model`` is
    entry-identical to a model the partition is already stable on (a
    sweep point differs from the anchored base model exactly at its
    site nodes).  The initial condition is always checked in full —
    it is cheap and depends on rewards/initial vectors, not rates.
    """
    md = model.md
    if len(partitions) != md.num_levels:
        return (
            f"{len(partitions)} partitions for a {md.num_levels}-level MD"
        )
    for level in range(1, md.num_levels + 1):
        partition = partitions[level - 1]
        if partition.n != md.level_size(level):
            return (
                f"level {level}: partition covers {partition.n} substates, "
                f"level has {md.level_size(level)}"
            )
        blocks = _blocks(partition)
        # Initial condition: the quantities P_i_ini splits on must be
        # constant on every class.
        rewards = model.level_rewards[level - 1]
        initial = model.level_initial[level - 1]
        for block in blocks:
            if len(block) < 2:
                continue
            if kind == "ordinary":
                head = quantize(float(rewards[block[0]]))
                for state in block[1:]:
                    if quantize(float(rewards[state])) != head:
                        return (
                            f"level {level}: rewards differ inside class "
                            f"{block}"
                        )
            else:
                head = quantize(float(initial[block[0]]))
                for state in block[1:]:
                    if quantize(float(initial[state])) != head:
                        return (
                            f"level {level}: initial factors differ inside "
                            f"class {block}"
                        )
        # Stability: every node of the level, against every class C.
        # One class-sum pass per node (the refinement's own kernel)
        # gathers each state's sparse class sums, so the check is linear
        # in the node's entry count; the sums are then compared inside
        # every nontrivial block.
        nontrivial = [b for b in blocks if len(b) >= 2]
        if not nontrivial:
            continue
        level_nodes = md.nodes_at(level)
        scan = [
            index
            for index in sorted(level_nodes)
            if changed_nodes is None or index in changed_nodes
        ]
        if not scan:
            continue
        class_of: Dict[int, int] = {}
        for cls, block in enumerate(blocks):
            for state in block:
                class_of[state] = cls
        whole_level = dict.fromkeys(class_of, 0)
        for index in scan:
            node = level_nodes[index]
            if kind == "exact":
                # Exact lumping additionally needs equal full row sums
                # (condition (4) of Definition 3); per-class equality
                # of quantized signatures does not imply it.
                found = _unstable(
                    class_sum_keys(node, node.entries(), whole_level),
                    nontrivial,
                )
                if found is not None:
                    return (
                        f"level {level} node {index}: full row "
                        f"sums differ inside class {found[0]}"
                    )
            found = _unstable(
                class_sum_keys(
                    node,
                    node.entries(),
                    class_of,
                    transpose=(kind == "exact"),
                ),
                nontrivial,
            )
            if found is not None:
                block, head, mismatched = found
                culprit = min(
                    cls
                    for cls in set(head) | set(mismatched)
                    if head.get(cls) != mismatched.get(cls)
                )
                return (
                    f"level {level} node {index}: class sums over "
                    f"{blocks[culprit]} differ inside class {block}"
                )
    return None


def scaled_lumping(
    base: CompositionalLumpingResult,
    sites: Mapping[str, Sequence[int]],
    factors: Mapping[str, float],
    derived: MDModel,
) -> CompositionalLumpingResult:
    """The lumped model of a rate point, built by scaling ``base``'s
    lumped model directly.

    :func:`~repro.lumping.compositional.apply_partitions` keeps node
    indices ("same node indices, shrunken contents") and lumping is
    linear in each node's entries, so scaling a site's nodes by ``f``
    commutes with quotient construction: the quotient of the scaled
    model *is* the scaled quotient.  Only valid once
    :func:`partition_reuse_proof` has licensed the partition for the
    derived model; ``derived`` becomes the result's ``original``.
    """
    return replace(
        base,
        original=derived,
        lumped=apply_point(base.lumped, sites, factors),
    )


def lump_with_reuse(
    model: MDModel,
    base: CompositionalLumpingResult,
    *,
    key: str = "formal",
    iterate: bool = False,
    report: Optional[RunReport] = None,
    sites: Optional[Mapping[str, Sequence[int]]] = None,
    factors: Optional[Mapping[str, float]] = None,
    changed_nodes: Optional[AbstractSet[int]] = None,
) -> Tuple[CompositionalLumpingResult, bool]:
    """Lump ``model`` by reusing ``base``'s partitions when the proof
    licenses it, else by full re-lumping.

    Returns ``(lumping, reused)``.  A failed proof is recorded in
    ``report`` as a ``sweep.reuse`` fallback with the proof's reason;
    it is a (slower) success path, never an error.  When the caller
    passes the point's ``sites``/``factors``, a successful proof skips
    re-quotienting entirely and scales ``base``'s lumped model instead
    (:func:`scaled_lumping`).  ``changed_nodes`` narrows the proof's
    stability scan (see :func:`partition_reuse_proof` for the soundness
    contract — for a sweep point, the union of its site node sets).
    """
    reason = partition_reuse_proof(
        model,
        base.partitions,
        kind=base.kind,
        changed_nodes=changed_nodes,
    )
    if reason is None:
        if sites is not None and factors is not None:
            return scaled_lumping(base, sites, factors, model), True
        return (
            apply_partitions(model, base.partitions, kind=base.kind),
            True,
        )
    if report is not None:
        report.record_fallback(
            stage="sweep.reuse",
            requested="reuse base partition",
            used="full re-lumping",
            reason=reason,
        )
    return (
        compositional_lump(
            model, kind=base.kind, key=key, iterate=iterate
        ),
        False,
    )
