"""A budgeted analysis run that degrades gracefully instead of dying.

Runs the tandem pipeline twice: once clean, and once with the fault
injector taking down the direct solver while a resource budget caps the
run.  Both runs complete; the second one's RunReport records exactly
which fallback fired, and the computed distribution is identical up to
solver tolerance — degradation costs time, never correctness.

Then demonstrates crash-safe checkpoint/resume: a third run is killed
mid-pipeline (an injected budget fault standing in for a kill -9), and
a fourth resumes from the checkpoint directory and finishes with the
exact same stationary distribution.

Run:  python examples/robust_pipeline.py
"""

import tempfile

import numpy as np

from repro.bench.table1 import run_table1_row
from repro.models import TandemParams
from repro.robust.budgets import Budget, BudgetExceeded
from repro.robust.faults import inject_faults


def main() -> None:
    params = TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)

    print("=== clean run (direct solver) ===")
    clean = run_table1_row(1, params, robust=True)
    print(clean.report.render())

    print()
    print("=== degraded run (direct solver down, 60s budget) ===")
    budget = Budget(wall_clock_seconds=60, max_states=1_000_000)
    with inject_faults("solver.direct"):
        degraded = run_table1_row(1, params, robust=True, budget=budget)
    print(degraded.report.render())

    drift = float(np.abs(degraded.stationary - clean.stationary).max())
    print()
    print(f"solver used:   {clean.solve_method} -> {degraded.solve_method}")
    print(f"max |pi drift|: {drift:.2e} (identical up to solver tolerance)")
    assert drift < 1e-8

    print()
    print("=== crash-safe checkpoint/resume ===")
    with tempfile.TemporaryDirectory() as ck_dir:
        # Stage a crash: from the 200th cooperative check onward the run
        # "stays dead" (an injected BudgetExceeded plays the kill -9).
        try:
            with inject_faults("budget:200+"), Budget(max_iterations=10**9):
                run_table1_row(
                    1, params, robust=True, checkpoint_dir=ck_dir
                )
        except BudgetExceeded as exc:
            print(f"killed mid-pipeline: {exc}")
        # Resume from the snapshots; the finished stages are skipped and
        # the interrupted loop picks up where it stopped.
        resumed = run_table1_row(
            1, params, robust=True, checkpoint_dir=ck_dir, resume=True
        )
        for note in resumed.report.notes:
            if "checkpoint" in note:
                print(note)
        match = bool(np.array_equal(resumed.stationary, clean.stationary))
        print(f"resumed == uninterrupted (bitwise): {match}")
        assert match


if __name__ == "__main__":
    main()
