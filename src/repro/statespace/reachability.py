"""Reachability analysis for event models.

Two engines produce the same result:

* :func:`reachable_bfs` — explicit breadth-first search over encoded
  states.  Fast for up to a few hundred thousand states.
* :func:`reachable_mdd` — symbolic fixpoint on MDDs with per-event image
  computation (chaining).  Keeps the set symbolic, as the paper's symbolic
  state-space generator [10] does.

Both return a :class:`ReachabilityResult`, which also knows how to
materialize the reachable-restricted CTMC (for flat verification and the
unlumped baseline) and the per-level projections (the paper's per-level
state-space sizes ``S1, S2, S3`` in Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StateSpaceError
from repro.markov.ctmc import CTMC
from repro.robust import budgets, checkpoint, faults
from repro.robust.budgets import BudgetExceeded
from repro.statespace.events import EventModel
from repro.statespace.mdd import MDDManager


def _reach_guard(model: EventModel, seeds) -> dict:
    """Snapshot guard tying a reachability checkpoint to its problem:
    the level sizes plus a digest of the seed set."""
    return {
        "level_sizes": list(model.level_sizes()),
        "seeds": checkpoint.digest(repr(sorted(seeds)).encode("utf-8")),
    }


@dataclass
class ReachabilityResult:
    """The reachable state space of an event model."""

    model: EventModel
    states: List[Tuple[int, ...]]  # sorted lexicographically
    engine: str
    _index: Optional[Dict[Tuple[int, ...], int]] = field(
        default=None, repr=False
    )

    @property
    def num_states(self) -> int:
        """Number of reachable states."""
        return len(self.states)

    def index_of(self, state: Sequence[int]) -> int:
        """Dense index of a reachable state; raises if unreachable."""
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        try:
            return self._index[tuple(state)]
        except KeyError:
            raise StateSpaceError(f"state {tuple(state)} is not reachable") from None

    def level_sizes(self) -> Tuple[int, ...]:
        """Number of *reachable* substates per level (the projections)."""
        supports = self.level_supports()
        return tuple(len(support) for support in supports)

    def level_supports(self) -> List[List[int]]:
        """Per level, the sorted substates that occur in a reachable state."""
        supports: List[set] = [set() for _ in range(self.model.num_levels)]
        for state in self.states:
            for level, substate in enumerate(state):
                supports[level].add(substate)
        return [sorted(support) for support in supports]

    def to_ctmc(self) -> CTMC:
        """The CTMC over the reachable states (densely indexed, labeled by
        the per-level label tuples)."""
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        triples = []
        for source_index, state in enumerate(self.states):
            for target, rate in self.model.successors(state):
                triples.append((source_index, self._index[target], rate))
        labels = [self.model.state_labels(state) for state in self.states]
        return CTMC.from_transitions(
            len(self.states), triples, state_labels=labels
        )

    def potential_indices(self) -> List[int]:
        """Mixed-radix flat indices of the reachable states within the
        potential product space (for restricting flattened MDs): what
        :meth:`EventModel.encode` gives per state, computed in one step.
        A potential space too large for int64 raises ``ValueError``."""
        digits = np.asarray(self.states, dtype=np.int64).reshape(
            len(self.states), self.model.num_levels
        )
        return np.ravel_multi_index(
            digits.T, self.model.level_sizes()
        ).tolist()


def reachable_bfs(
    model: EventModel,
    initial: Optional[Sequence[Tuple[int, ...]]] = None,
    max_states: Optional[int] = None,
) -> ReachabilityResult:
    """Explicit BFS from the model's initial state (or a given seed set).

    Cooperates with active :mod:`repro.robust.budgets`: the state count
    is checked as states are *discovered*, so a state budget fires
    promptly instead of after full exploration.
    """
    faults.check("reachability.bfs")
    if initial is None:
        seeds = [model.initial_state]
    else:
        seeds = [tuple(state) for state in initial]
    seen = set(seeds)
    frontier = list(seeds)
    ck = checkpoint.active()
    key = guard = None
    if ck is not None:
        key = ck.sequence_key("reachability.bfs")
        guard = _reach_guard(model, seeds)
        record = ck.load(key, guard=guard)
        if record is not None:
            payload = record["payload"]
            if record["complete"]:
                states = [tuple(s) for s in payload["states"]]
                return ReachabilityResult(model, states, engine="bfs")
            seen = {tuple(s) for s in payload["seen"]}
            frontier = [tuple(s) for s in payload["frontier"]]
    # position/next_frontier are kept consistent at every budget hook so
    # the BudgetExceeded handler can snapshot the unprocessed frontier.
    position = 0
    next_frontier: List[Tuple[int, ...]] = []
    try:
        budgets.check_states(len(seen), stage="reachability")
        while frontier:
            position = 0
            next_frontier = []
            budgets.charge_iterations(1, stage="reachability")
            for position, state in enumerate(frontier):
                for target, _rate in model.successors(state):
                    if target not in seen:
                        seen.add(target)
                        next_frontier.append(target)
                        budgets.check_states(len(seen), stage="reachability")
                        if max_states is not None and len(seen) > max_states:
                            raise StateSpaceError(
                                f"state space exceeds max_states={max_states}"
                            )
            frontier = next_frontier
            position = 0
            next_frontier = []
            if ck is not None and ck.tick(key):
                ck.save(
                    key,
                    {"seen": sorted(seen), "frontier": sorted(frontier)},
                    guard=guard,
                )
    except BudgetExceeded:
        if ck is not None:
            # Re-expanding the in-flight state on resume is idempotent:
            # its already-recorded successors are in ``seen``.
            remaining = frontier[position:] + next_frontier
            ck.save(
                key,
                {"seen": sorted(seen), "frontier": sorted(remaining)},
                guard=guard,
            )
        raise
    states = sorted(seen)
    if ck is not None:
        ck.save(key, {"states": states}, guard=guard, complete=True)
    return ReachabilityResult(model, states, engine="bfs")


def reachable_mdd(
    model: EventModel,
    manager: Optional[MDDManager] = None,
    return_mdd: bool = False,
):
    """Symbolic fixpoint: ``S <- S U image(S, e)`` for all events until
    stable (event chaining).  Returns a :class:`ReachabilityResult`, plus
    the final MDD id and manager when ``return_mdd`` is true."""
    faults.check("reachability.mdd")
    if manager is None:
        manager = MDDManager(model.level_sizes())
    current = _chain(manager, model)
    states = sorted(manager.tuples(current))
    result = ReachabilityResult(model, states, engine="mdd")
    if return_mdd:
        return result, current, manager
    return result


@dataclass
class SymbolicStateSpace:
    """A state set kept symbolic (never enumerated).

    Supports the queries the Table-1 pipeline needs at scales where
    materializing states is impossible: exact count, per-level supports,
    and the image under per-level substate maps.  ``model`` is the event
    model the set was generated from (``None`` for a mapped image).
    """

    model: Optional[EventModel]
    manager: MDDManager
    node: int
    engine: str

    @property
    def num_states(self) -> int:
        """Exact state count (via MDD counting)."""
        return self.manager.count(self.node)

    def level_supports(self) -> List[List[int]]:
        """Per level, the substates occurring in some member state."""
        return [
            self.manager.level_support(self.node, level)
            for level in range(1, self.manager.num_levels + 1)
        ]

    def level_sizes(self) -> Tuple[int, ...]:
        """Projection sizes per level."""
        return tuple(len(support) for support in self.level_supports())

    def mapped(
        self, mappings, target_sizes: Sequence[int]
    ) -> "SymbolicStateSpace":
        """The image of the set under per-level substate maps, over
        ``target_sizes`` — e.g. the lumped reachable set when the maps
        send each substate to its class index."""
        target = MDDManager(tuple(target_sizes))
        node = self.manager.map_levels(self.node, mappings, target)
        return SymbolicStateSpace(
            model=None, manager=target, node=node, engine=self.engine
        )

    def potential_indices(self) -> List[int]:
        """Sorted mixed-radix flat indices of the member states within the
        product space (for restricting an MD model to the set), encoded
        in one step.  Enumerates the set, so call it on small sets."""
        digits = np.asarray(
            list(self.manager.tuples(self.node)), dtype=np.int64
        ).reshape(-1, self.manager.num_levels)
        return np.ravel_multi_index(
            digits.T, self.manager.level_sizes
        ).tolist()


def symbolic_reachability(
    model: EventModel, strategy: str = "saturation"
) -> SymbolicStateSpace:
    """Reachability that never enumerates states (for very large spaces).

    ``strategy`` is ``"saturation"`` or ``"chaining"``.
    """
    faults.check("reachability.mdd")
    manager = MDDManager(model.level_sizes())
    if strategy == "saturation":
        node = _saturate(manager, model)
    elif strategy == "chaining":
        node = _chain(manager, model)
    else:
        raise StateSpaceError(f"unknown strategy {strategy!r}")
    return SymbolicStateSpace(
        model=model, manager=manager, node=node, engine=strategy
    )


def _chain(manager: MDDManager, model: EventModel) -> int:
    node = manager.singleton(model.initial_state)
    ck = checkpoint.active()
    key = guard = None
    if ck is not None:
        key = ck.sequence_key("reachability.chain")
        guard = _reach_guard(model, [model.initial_state])
        record = ck.load(key, guard=guard)
        if record is not None:
            # Any snapshot S with seed <= S <= closure(seed) resumes
            # exactly: the fixpoint is monotone, so closure(S) ==
            # closure(seed).
            node = manager.from_tuples(
                [tuple(s) for s in record["payload"]["tuples"]]
            )
            if record["complete"]:
                return node
    try:
        while True:
            budgets.charge_iterations(1, stage="reachability")
            previous = node
            for event in model.events:
                node = manager.union(node, manager.image(node, event))
            if budgets.active_budget() is not None:
                budgets.check_states(manager.count(node), stage="reachability")
            if node == previous:
                break
            if ck is not None and ck.tick(key):
                ck.save(
                    key, {"tuples": sorted(manager.tuples(node))}, guard=guard
                )
    except BudgetExceeded:
        if ck is not None:
            ck.save(key, {"tuples": sorted(manager.tuples(node))}, guard=guard)
        raise
    if ck is not None:
        ck.save(
            key,
            {"tuples": sorted(manager.tuples(node))},
            guard=guard,
            complete=True,
        )
    return node


def _saturate(manager: MDDManager, model: EventModel) -> int:
    current = manager.singleton(model.initial_state)
    start_top = model.num_levels
    ck = checkpoint.active()
    key = guard = None
    if ck is not None:
        key = ck.sequence_key("reachability.saturation")
        guard = _reach_guard(model, [model.initial_state])
        record = ck.load(key, guard=guard)
        if record is not None:
            current = manager.from_tuples(
                [tuple(s) for s in record["payload"]["tuples"]]
            )
            if record["complete"]:
                return current
            # Resuming the outer sweep at the saved level is sound: the
            # final sweep (lowest_top == 1) closes under *all* events, so
            # any intermediate set still converges to the same closure.
            start_top = int(record["payload"]["top"])
    events_by_top: dict = {}
    for event in model.events:
        events_by_top.setdefault(event.top_level(), []).append(event)
    # Last node/level observed at a budget hook, for the exception save.
    progress = {"node": current, "top": start_top}

    def close_from(node: int, lowest_top: int) -> int:
        while True:
            budgets.charge_iterations(1, stage="reachability")
            previous = node
            for top in range(model.num_levels, lowest_top - 1, -1):
                for event in events_by_top.get(top, ()):
                    node = manager.union(node, manager.image(node, event))
            progress["node"] = node
            if budgets.active_budget() is not None:
                budgets.check_states(
                    manager.count(node), stage="reachability"
                )
            if node == previous:
                return node
            if ck is not None and ck.tick(key):
                ck.save(
                    key,
                    {
                        "tuples": sorted(manager.tuples(node)),
                        "top": lowest_top,
                    },
                    guard=guard,
                )

    try:
        for top in range(start_top, 0, -1):
            progress["top"] = top
            current = close_from(current, top)
            progress["node"] = current
    except BudgetExceeded:
        if ck is not None:
            ck.save(
                key,
                {
                    "tuples": sorted(manager.tuples(progress["node"])),
                    "top": progress["top"],
                },
                guard=guard,
            )
        raise
    if ck is not None:
        ck.save(
            key,
            {"tuples": sorted(manager.tuples(current)), "top": 1},
            guard=guard,
            complete=True,
        )
    return current


def reachable_saturation(
    model: EventModel,
    manager: Optional[MDDManager] = None,
    return_mdd: bool = False,
):
    """Saturation-style symbolic reachability (Ciardo et al., cited as the
    paper's route to very large state spaces).

    Events are grouped by their *top level* (the highest level they
    touch).  Working bottom-up, the state set is closed under all events
    whose top level is at or below the current level before moving up, and
    every upper-level firing is followed by re-closing the lower levels.
    Exploits event locality: low events never disturb high levels, so
    their fixpoints are computed once per upper configuration instead of
    once per global iteration.
    """
    faults.check("reachability.mdd")
    if manager is None:
        manager = MDDManager(model.level_sizes())
    # Saturate bottom-up: after closing under deep (local) events, each
    # firing of a higher event is followed by re-closing everything below.
    current = _saturate(manager, model)
    states = sorted(manager.tuples(current))
    result = ReachabilityResult(model, states, engine="saturation")
    if return_mdd:
        return result, current, manager
    return result
