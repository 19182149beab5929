"""Regeneration of the paper's Table 1.

For each job count ``J`` the harness runs the same pipeline the paper
describes — build the tandem model, generate the state space, construct the
MD, run compositional (ordinary) lumping — and collects exactly the
columns Table 1 reports:

* upper part: unlumped state-space sizes (overall and per level) and the
  number of MD nodes per level,
* middle part: lumped sizes and the reduction factors (overall, level 2,
  level 3),
* lower part: state-space generation time, unlumped MD memory, lumping
  time, lumped MD memory.

Absolute values differ from the paper (different host, pure Python, and
rates/encodings the paper does not specify); the *shape* — large
multiplicative reductions, lump time well under generation time, roughly
an order of magnitude less MD memory — is the reproduction target and is
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.analysis import _lump_stage, _run_pipeline, _solve_stages
from repro.lumping import MDModel
from repro.matrixdiagram import md_stats
from repro.models import TandemParams, build_tandem, tandem_md_model
from repro.robust.budgets import Budget
from repro.robust.checkpoint import scoped as checkpoint_scoped
from repro.robust.report import RunReport
from repro.statespace import symbolic_reachability
from repro.statespace.events import project_event_model
from repro.util import Table, format_bytes, format_seconds


@dataclass
class Table1Row:
    """One ``J`` row of (our) Table 1."""

    jobs: int
    unlumped_overall: int
    unlumped_level_sizes: List[int]
    md_nodes_per_level: List[int]
    lumped_overall: int
    lumped_level_sizes: List[int]
    generation_seconds: float
    md_memory_bytes: int
    lump_seconds: float
    lumped_md_memory_bytes: int

    @property
    def overall_reduction(self) -> float:
        """Unlumped states per lumped state."""
        return self.unlumped_overall / max(1, self.lumped_overall)

    def level_reduction(self, level: int) -> float:
        """Reduction factor of one level (1-based)."""
        return self.unlumped_level_sizes[level - 1] / max(
            1, self.lumped_level_sizes[level - 1]
        )


@dataclass
class Table1Run:
    """A Table-1 row and the :class:`~repro.robust.report.RunReport` of
    the run that produced it (stage timings, and with ``robust`` what
    degraded and why).

    ``stationary`` (the steady-state solution of the lumped chain) and
    ``solve_method`` are set only by a ``robust`` run.
    """

    row: Table1Row
    report: RunReport
    stationary: Optional[np.ndarray] = None
    solve_method: Optional[str] = None


def run_table1_row(
    jobs: int,
    params: Optional[TandemParams] = None,
    kind: str = "ordinary",
    *,
    robust: bool = False,
    budget: Optional[Budget] = None,
    report: Optional[RunReport] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    supervised: bool = False,
    supervisor=None,
) -> Table1Run:
    """Run the Table-1 pipeline for one ``J`` and collect the row.

    Generation is symbolic, as in the paper's state-space generator:
    MDD saturation gives the reachable set, its per-level supports and
    count; the event model is projected onto the supports and the MD
    built over them; the lumped count comes from mapping the MDD through
    each level's class vector.  No unlumped state is ever listed, so the
    pipeline reaches J=3 (15M states) at the paper's configuration.

    With ``robust=True`` lumping skips levels that fail (identity
    partition), and the lumped chain, restricted to the mapped reachable
    set, is solved through the solver fallback chain (see
    :func:`~repro.analysis.lump_and_solve`); every degradation is
    recorded in the returned report.  A generation failure fails the
    ``generation`` stage.

    With ``checkpoint_dir`` set, the saturation/refinement/solver loops
    write crash-safe snapshots (see :mod:`repro.robust.checkpoint`);
    ``resume=True`` continues a killed or budget-stopped run from them.

    With ``supervised=True`` (implies ``robust``) the whole pipeline runs
    in a watchdog-supervised child process, restarted from the latest
    checkpoint on crash/hang/OOM with progressive degradation — see
    :mod:`repro.robust.supervisor`.  ``supervisor`` is an optional
    :class:`~repro.robust.supervisor.SupervisorConfig`.
    """
    if params is None:
        params = TandemParams(jobs=jobs)
    elif params.jobs != jobs:
        raise ValueError("params.jobs disagrees with the jobs argument")
    robust = robust or supervised

    def run_row(ctx) -> Table1Run:
        report = ctx.report
        with report.stage("generation"), checkpoint_scoped("generation"):
            compiled = build_tandem(params)
            symbolic = symbolic_reachability(compiled.event_model)
            supports = symbolic.level_supports()
            event_model = project_event_model(compiled.event_model, supports)
            model = tandem_md_model(event_model, params)
        unlumped_stats = md_stats(model.md)
        result = _lump_stage(model, ctx, kind=kind)
        lumped_md = result.lumped.md
        lumped_stats = md_stats(lumped_md)
        # The lumped reachable set: each original substate goes to its
        # class (the support position composed with the partition).
        mappings = [
            dict(zip(support, classes.tolist()))
            for support, classes in zip(supports, result.class_vectors())
        ]
        lumped_set = symbolic.mapped(mappings, lumped_md.level_sizes)
        row = Table1Row(
            jobs=jobs,
            unlumped_overall=symbolic.num_states,
            unlumped_level_sizes=[len(support) for support in supports],
            md_nodes_per_level=list(unlumped_stats.nodes_per_level),
            lumped_overall=lumped_set.num_states,
            lumped_level_sizes=list(lumped_md.level_sizes),
            generation_seconds=report.stage_seconds("generation"),
            md_memory_bytes=unlumped_stats.memory_bytes,
            lump_seconds=report.stage_seconds("lumping"),
            lumped_md_memory_bytes=lumped_stats.memory_bytes,
        )
        if not robust:
            return Table1Run(row=row, report=report)
        lumped = result.lumped
        restricted = replace(
            result,
            lumped=MDModel(
                lumped_md,
                level_rewards=lumped.level_rewards,
                level_initial=lumped.level_initial,
                reward_combiner=lumped.reward_combiner,
                reachable=lumped_set.potential_indices(),
            ),
        )
        solution = _solve_stages(model, restricted, ctx, robust=True, kind=kind)
        return Table1Run(
            row=row,
            report=report,
            stationary=solution.stationary,
            solve_method=solution.solve_method,
        )

    return _run_pipeline(
        run_row,
        f"table1 jobs={jobs} kind={kind} params={params}",
        robust=robust,
        supervised=supervised,
        supervisor=supervisor,
        budget=budget,
        report=report,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )


def render_table1(rows: List[Table1Row]) -> str:
    """Render rows in the paper's three-part Table 1 layout."""
    upper = Table(
        ["J", "overall", "S1", "S2", "S3", "N1", "N2", "N3"],
        title="Unlumped state-space sizes and MD nodes per level",
    )
    for row in rows:
        upper.add_row(
            [row.jobs, row.unlumped_overall]
            + row.unlumped_level_sizes
            + row.md_nodes_per_level
        )
    middle = Table(
        ["J", "overall", "S1", "S2", "S3", "red overall", "red l2", "red l3"],
        title="Lumped state-space sizes and reduction factors",
    )
    for row in rows:
        middle.add_row(
            [row.jobs, row.lumped_overall]
            + row.lumped_level_sizes
            + [
                f"{row.overall_reduction:.1f}",
                f"{row.level_reduction(2):.1f}",
                f"{row.level_reduction(3):.1f}",
            ]
        )
    lower = Table(
        ["J", "gen time", "MD space", "lump time", "lumped MD space"],
        title="Generation/lumping times and MD memory",
    )
    for row in rows:
        lower.add_row(
            [
                row.jobs,
                format_seconds(row.generation_seconds),
                format_bytes(row.md_memory_bytes),
                format_seconds(row.lump_seconds),
                format_bytes(row.lumped_md_memory_bytes),
            ]
        )
    return "\n\n".join([upper.render(), middle.render(), lower.render()])
