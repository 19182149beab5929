"""The paper's tandem multi-processor system, end to end (Section 5).

Builds the MSMQ + hypercube tandem, generates its state space, constructs
the matrix diagram, lumps it compositionally, and prints a Table-1-style
report plus a performance measure computed on the lumped chain.

Run:  python examples/tandem_system.py [J] [cube_dim]
      (defaults: J=1, cube_dim=2 — cube_dim=3 is the paper's 8-server
      configuration and takes ~15 s at J=1)
"""

import sys

import numpy as np

from repro.lumping import compositional_lump
from repro.markov import steady_state
from repro.matrixdiagram import md_stats
from repro.models import TandemParams, build_tandem, tandem_md_model
from repro.models.tandem import projected_event_model
from repro.statespace import reachable_bfs
from repro.util import format_bytes, format_seconds, timed


def main(jobs: int = 1, cube_dim: int = 2) -> None:
    msmq = (2, 2) if cube_dim == 2 else (3, 4)
    params = TandemParams(
        jobs=jobs, cube_dim=cube_dim,
        msmq_servers=msmq[0], msmq_queues=msmq[1],
    )
    print(f"tandem system: J={jobs}, {params.num_hyper_servers()}-server "
          f"hypercube, {msmq[0]}x{msmq[1]} MSMQ")

    with timed() as generation:
        compiled = build_tandem(params)
        reach = reachable_bfs(compiled.event_model)
        event_model = projected_event_model(compiled, reach)
        reach = reachable_bfs(event_model)
        model = tandem_md_model(event_model, params, reachable=reach,
                                reward="hyper_jobs")
    stats = md_stats(model.md)
    print(f"reachable states: {reach.num_states}, per level "
          f"{reach.level_sizes()}, MD nodes {stats.nodes_per_level}, "
          f"MD memory {format_bytes(stats.memory_bytes)}")
    print(f"generation time: {format_seconds(generation.seconds)}")

    with timed() as lumping:
        result = compositional_lump(model, "ordinary")
    lumped_stats = md_stats(result.lumped.md)
    print(f"lump time: {format_seconds(lumping.seconds)}")
    for reduction in result.reductions:
        print(f"  level {reduction.level}: {reduction.original_size} -> "
              f"{reduction.lumped_size} ({reduction.factor:.1f}x)")
    lumped_states = len(result.lumped.reachable)
    print(f"overall: {reach.num_states} -> {lumped_states} states "
          f"({reach.num_states / lumped_states:.1f}x), lumped MD memory "
          f"{format_bytes(lumped_stats.memory_bytes)}")

    # Solve the LUMPED chain only; the measure is exact for the original.
    lumped_mrp = result.lumped.flat_mrp()
    pi_hat = steady_state(lumped_mrp.ctmc).distribution
    mean_hyper_jobs = float(pi_hat @ lumped_mrp.rewards)
    print(f"mean jobs queued in the hypercube (from the lumped chain): "
          f"{mean_hyper_jobs:.6f}")

    if reach.num_states <= 50_000:
        mrp = model.flat_mrp()
        pi = steady_state(mrp.ctmc).distribution
        exact = float(pi @ mrp.rewards)
        print(f"same measure from the unlumped chain:        {exact:.6f}")
        assert abs(exact - mean_hyper_jobs) < 1e-8


if __name__ == "__main__":
    arg_jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    arg_dim = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    main(arg_jobs, arg_dim)
