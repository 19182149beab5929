"""Compositional state spaces: event models, MDDs and reachability."""

from repro.statespace.events import Event, EventModel, LevelSpace
from repro.statespace.mdd import MDDManager
from repro.statespace.simulate import (
    Trajectory,
    estimate_reward,
    estimate_stationary,
    simulate,
)
from repro.statespace.reachability import (
    ReachabilityResult,
    SymbolicStateSpace,
    reachable_bfs,
    reachable_mdd,
    symbolic_reachability,
)

__all__ = [
    "Event",
    "EventModel",
    "LevelSpace",
    "MDDManager",
    "ReachabilityResult",
    "reachable_bfs",
    "reachable_mdd",
    "SymbolicStateSpace",
    "symbolic_reachability",
    "Trajectory",
    "simulate",
    "estimate_stationary",
    "estimate_reward",
]
