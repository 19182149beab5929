"""Compilation of joined SAN models to event models.

This is the analogue of the paper's symbolic state-space generator [10]:
it assigns the shared places to level 1 and each submodel's private places
to one level (Section 5's partitioning), enumerates per-level local state
spaces, and turns every activity into events with per-level effects.

Local activities (``shared=False``) compile to a single event touching only
their submodel's level.  Shared activities compile to one event per
(shared-substate, shared-substate') pair they induce; fixing the shared
substate inside the event is what makes arbitrary joint rate dependence
between the shared level and the submodel level *exactly* representable in
Kronecker/MD form — no factorization assumption is needed.

Each activity fires exactly once per (shared context, private marking),
inside the local enumeration of its submodel.  That pass records the
outcomes the event tables need (per activity, the non-empty outcome lists
keyed by context and private marking; for a ``shared=False`` activity only
under the two contexts its locality is checked against), and the
per-activity table builders read that record instead of firing again.
The marking checks behind the tables (``check_marking``,
``check_shared_marking``) are memoized per distinct value tuple for one
:func:`compile_join`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ModelError, StateSpaceError
from repro.san.composition import Join
from repro.san.model import Activity, Marking
from repro.statespace.events import Event, EventModel, LevelSpace

_PROBABILITY_TOL = 1e-9


@dataclass
class CompiledModel:
    """A joined SAN model compiled to an event model.

    ``dropped_transitions`` counts case firings whose target violated a
    declared invariant; they can only originate from unreachable states of
    the over-approximated local spaces (a true invariant is closed under
    reachable transitions), and the count is surfaced so tests can assert
    it stays plausible.
    """

    join: Join
    event_model: EventModel
    level_names: List[str]
    level_place_names: List[List[str]]
    dropped_transitions: int = 0
    stats: Dict[str, int] = field(default_factory=dict)

    def marking_of_state(self, state: Tuple[int, ...]) -> Marking:
        """The full marking of a global state (per-level indices)."""
        marking: Marking = {}
        for level, substate in enumerate(state, start=1):
            label = self.event_model.levels[level - 1].label(substate)
            for name, value in zip(self.level_place_names[level - 1], label):
                marking[name] = value
        return marking


def _marking_tuple(names: List[str], marking: Marking) -> Tuple[int, ...]:
    return tuple(int(marking.get(name, 0)) for name in names)


def _enumerate_shared(join: Join) -> List[Tuple[int, ...]]:
    names = join.shared_place_names()
    ranges = [range(place.capacity + 1) for place in join.shared_places]
    states = []
    for values in itertools.product(*ranges):
        marking = dict(zip(names, values))
        if join.check_shared_marking(marking):
            states.append(tuple(values))
    if not states:
        raise StateSpaceError("shared invariant rejects every marking")
    return sorted(states)


#: One activity's recorded firings: ``(context index, private state) ->
#: [(shared target index, private target, rate), ...]``.  The shared target
#: index is ``None`` when the target shared marking is not in the shared
#: level's space.
ActivityRecord = Dict[
    Tuple[int, Tuple[int, ...]],
    List[Tuple[Optional[int], Tuple[int, ...], float]],
]


def _memoized_check(
    check: Callable[[Marking], bool], names: List[str]
) -> Callable[[Tuple[int, ...]], bool]:
    """``check`` on the marking a value tuple spells, evaluated at most
    once per distinct tuple (filled lazily, on first use)."""
    verdicts: Dict[Tuple[int, ...], bool] = {}

    def valid(values: Tuple[int, ...]) -> bool:
        verdict = verdicts.get(values)
        if verdict is None:
            verdict = verdicts[values] = check(dict(zip(names, values)))
        return verdict

    return valid


def _enumerate_private(
    join: Join,
    submodel_index: int,
    shared_states: List[Tuple[int, ...]],
    shared_index: Dict[Tuple[int, ...], int],
    checked_contexts: Tuple[int, ...],
    valid: Callable[[Tuple[int, ...]], bool],
    max_states: Optional[int],
) -> Tuple[List[Tuple[int, ...]], List[ActivityRecord]]:
    """Local BFS over a submodel's private markings, trying every shared
    marking as context (the standard over-approximation of the projection:
    a superset of the exact projection, pruned by the local invariant).

    This is the only place an activity fires: every ``(activity, shared
    context, private marking)`` fires exactly once, and the event tables
    are built from what this pass records, one :data:`ActivityRecord`
    per activity of the submodel.  Only non-empty outcome lists are
    recorded.  A ``shared=False`` activity is recorded only under the
    ``checked_contexts`` its local table is verified against; a shared
    activity under every context.  A recorded private target already in
    the local space is the space's own tuple, not a copy.

    Returns the sorted local space and the records.
    """
    model = join.submodels[submodel_index]
    shared_names = join.shared_place_names()
    private_names = join.private_place_names(submodel_index)
    initial = _marking_tuple(private_names, model.initial_marking())
    # Each discovered state maps to itself so outcomes can share the tuple.
    # The initial state enters unchecked: being seen does not imply valid.
    seen = {initial: initial}
    frontier = [initial]
    records: List[ActivityRecord] = [{} for _ in model.activities]
    while frontier:
        state = frontier.pop()
        private_marking = dict(zip(private_names, state))
        for context_index, shared in enumerate(shared_states):
            full = dict(zip(shared_names, shared))
            full.update(private_marking)
            checked = context_index in checked_contexts
            for activity, record in zip(model.activities, records):
                keep = checked or activity.shared
                outcomes = []
                for target_full, rate in _fire_activity(activity, full):
                    target = _marking_tuple(private_names, target_full)
                    canonical = seen.get(target)
                    if canonical is not None:
                        target = canonical
                    elif valid(target):
                        seen[target] = target
                        frontier.append(target)
                        if max_states is not None and len(seen) > max_states:
                            raise StateSpaceError(
                                f"submodel {model.name!r} exceeds "
                                f"{max_states} local states"
                            )
                    if keep:
                        shared_target = _marking_tuple(
                            shared_names, target_full
                        )
                        outcomes.append(
                            (shared_index.get(shared_target), target, rate)
                        )
                if outcomes:
                    record[context_index, state] = outcomes
    return sorted(seen), records


def _fire_activity(
    activity: Activity, marking: Marking
) -> List[Tuple[Marking, float]]:
    """All (target marking, rate) outcomes of an activity in a marking."""
    rate = activity.rate_in(marking)
    if rate <= 0:
        return []
    outcomes = []
    total_probability = 0.0
    for case in activity.cases:
        probability = case.probability_in(marking)
        if probability < 0:
            raise ModelError(
                f"activity {activity.name!r} case has negative probability"
            )
        if probability == 0:
            continue
        target = case.update(dict(marking))
        if target is None:
            raise ModelError(
                f"activity {activity.name!r}: case with positive "
                f"probability {probability} cannot fire; make the "
                f"probability conditional on firability"
            )
        total_probability += probability
        outcomes.append((target, rate * probability))
    if outcomes and abs(total_probability - 1.0) > _PROBABILITY_TOL:
        raise ModelError(
            f"activity {activity.name!r}: enabled case probabilities "
            f"sum to {total_probability}, expected 1"
        )
    return outcomes


def compile_join(
    join: Join,
    max_local_states: Optional[int] = 2_000_000,
) -> CompiledModel:
    """Compile a :class:`Join` into an :class:`EventModel`.

    Levels: 1 = shared places, ``k + 1`` = submodel ``k``'s private places.
    """
    shared_names = join.shared_place_names()
    shared_states = _enumerate_shared(join)
    shared_index = {state: i for i, state in enumerate(shared_states)}
    shared_valid = _memoized_check(join.check_shared_marking, shared_names)
    # A shared=False activity is verified under the first and last shared
    # state: its tables must agree there.
    last = len(shared_states) - 1
    checked_contexts = (0, last) if last else (0,)

    level_spaces = [LevelSpace("shared", shared_states)]
    level_names = ["shared"]
    level_place_names = [shared_names]
    private_states: List[List[Tuple[int, ...]]] = []
    private_indices: List[Dict[Tuple[int, ...], int]] = []
    private_valid: List[Callable[[Tuple[int, ...]], bool]] = []
    activity_records: List[List[ActivityRecord]] = []
    for k, model in enumerate(join.submodels):
        valid = _memoized_check(
            model.check_marking, join.private_place_names(k)
        )
        states, records = _enumerate_private(
            join, k, shared_states, shared_index, checked_contexts, valid,
            max_local_states,
        )
        private_valid.append(valid)
        activity_records.append(records)
        private_states.append(states)
        private_indices.append({state: i for i, state in enumerate(states)})
        level_spaces.append(LevelSpace(model.name, states))
        level_names.append(model.name)
        level_place_names.append(join.private_place_names(k))

    # Events are merged per submodel: all local activities of a submodel
    # form ONE event (identity on level 1), and all shared activities of a
    # submodel that induce the same shared transition (s1 -> s1') form one
    # event per such pair.  The merge is exact (the non-merged Kronecker
    # factors are identical) and is what lets a single MD node collect all
    # symmetric transitions of a submodel — the per-node local lumpability
    # conditions of Definition 3 can then see the symmetry.
    events: List[Event] = []
    dropped = 0
    stats = {"local_events": 0, "shared_events": 0}
    for k, model in enumerate(join.submodels):
        level = k + 2
        local_table: Dict[int, List[Tuple[int, float]]] = {}
        sync_tables: Dict[
            Tuple[int, int], Dict[int, List[Tuple[int, float]]]
        ] = {}
        for activity, record in zip(model.activities, activity_records[k]):
            if not activity.shared:
                table, dropped_here = _compile_local_activity(
                    activity, record, checked_contexts,
                    private_states[k], private_indices[k], private_valid[k],
                )
                dropped += dropped_here
                for source, options in table.items():
                    local_table.setdefault(source, []).extend(options)
            else:
                grouped, dropped_here = _compile_shared_activity(
                    record, shared_states, private_states[k],
                    private_indices[k], private_valid[k], shared_valid,
                )
                dropped += dropped_here
                for pair, table in grouped.items():
                    merged = sync_tables.setdefault(pair, {})
                    for source, options in table.items():
                        merged.setdefault(source, []).extend(options)
        if local_table:
            events.append(
                Event(f"{model.name}.local", 1.0, {level: local_table})
            )
            stats["local_events"] += 1
        for (s1_source, s1_target), table in sorted(sync_tables.items()):
            events.append(
                Event(
                    f"{model.name}.sync[{s1_source}->{s1_target}]",
                    1.0,
                    {
                        1: {s1_source: [(s1_target, 1.0)]},
                        level: table,
                    },
                )
            )
            stats["shared_events"] += 1

    initial_labels: List[Tuple[int, ...]] = [
        _marking_tuple(shared_names, join.initial_shared_marking())
    ]
    for k, model in enumerate(join.submodels):
        initial_labels.append(
            _marking_tuple(
                join.private_place_names(k), model.initial_marking()
            )
        )
    event_model = EventModel(level_spaces, events, initial_labels)
    return CompiledModel(
        join=join,
        event_model=event_model,
        level_names=level_names,
        level_place_names=level_place_names,
        dropped_transitions=dropped,
        stats=stats,
    )


def _compile_local_activity(
    activity: Activity,
    record: ActivityRecord,
    contexts: Tuple[int, ...],
    private_states: List[Tuple[int, ...]],
    private_index: Dict[Tuple[int, ...], int],
    valid: Callable[[Tuple[int, ...]], bool],
):
    """A ``shared=False`` activity becomes one single-level effect table.

    The activity's recorded outcomes under the checked shared
    ``contexts`` (indices) are compared; any disagreement means the
    ``shared=False`` declaration was wrong.
    """
    table: Dict[int, List[Tuple[int, float]]] = {}
    dropped = 0
    for source_index, source in enumerate(private_states):
        reference: Optional[List[Tuple[int, float]]] = None
        for context in contexts:
            options: List[Tuple[int, float]] = []
            for s1_target_index, target, rate in record.get(
                (context, source), ()
            ):
                if s1_target_index != context:
                    raise ModelError(
                        f"activity {activity.name!r} is declared local "
                        f"but modifies shared places"
                    )
                target_index = private_index.get(target)
                if target_index is None or not valid(target):
                    dropped += 1
                    continue
                options.append((target_index, rate))
            options.sort()
            if reference is None:
                reference = options
            elif reference != options:
                raise ModelError(
                    f"activity {activity.name!r} is declared local but its "
                    f"behaviour depends on shared places"
                )
        if reference:
            table[source_index] = reference
    return table, dropped


def _compile_shared_activity(
    record: ActivityRecord,
    shared_states: List[Tuple[int, ...]],
    private_states: List[Tuple[int, ...]],
    private_index: Dict[Tuple[int, ...], int],
    valid: Callable[[Tuple[int, ...]], bool],
    shared_valid: Callable[[Tuple[int, ...]], bool],
):
    """A shared activity becomes one event per (shared, shared') pair."""
    grouped: Dict[Tuple[int, int], Dict[int, List[Tuple[int, float]]]] = {}
    dropped = 0
    for s1_index in range(len(shared_states)):
        for source_index, source in enumerate(private_states):
            for s1_target_index, target, rate in record.get(
                (s1_index, source), ()
            ):
                target_index = private_index.get(target)
                if (
                    s1_target_index is None
                    or target_index is None
                    or not valid(target)
                    or not shared_valid(shared_states[s1_target_index])
                ):
                    dropped += 1
                    continue
                table = grouped.setdefault((s1_index, s1_target_index), {})
                table.setdefault(source_index, []).append(
                    (target_index, rate)
                )
    return grouped, dropped
