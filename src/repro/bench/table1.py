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

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis import _lump_solve_stages, _run_pipeline
from repro.lumping import compositional_lump
from repro.matrixdiagram import md_stats
from repro.models import TandemParams, build_tandem, tandem_md_model
from repro.models.tandem import projected_event_model
from repro.robust.budgets import Budget
from repro.robust.checkpoint import scoped as checkpoint_scoped
from repro.robust.report import RunReport
from repro.statespace import reachable_bfs, reachable_mdd
from repro.util import Stopwatch, Table, format_bytes, format_seconds


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


def run_table1_row(
    jobs: int,
    params: Optional[TandemParams] = None,
    reach_engine: str = "bfs",
    kind: str = "ordinary",
) -> Table1Row:
    """Run the full pipeline for one ``J`` and collect the row."""
    if params is None:
        params = TandemParams(jobs=jobs)
    elif params.jobs != jobs:
        raise ValueError("params.jobs disagrees with the jobs argument")
    engines = {"bfs": reachable_bfs, "mdd": reachable_mdd}
    if reach_engine not in engines:
        raise ValueError(f"unknown reach engine {reach_engine!r}")
    watch = Stopwatch()
    with watch.phase("generation"):
        compiled = build_tandem(params)
        model, reach = _tandem_model(
            compiled, engines[reach_engine](compiled.event_model), params
        )
    unlumped_stats = md_stats(model.md)

    with watch.phase("lumping"):
        result = compositional_lump(model, kind)
    lumped_stats = md_stats(result.lumped.md)

    return Table1Row(
        jobs=jobs,
        unlumped_overall=reach.num_states,
        unlumped_level_sizes=list(reach.level_sizes()),
        md_nodes_per_level=list(unlumped_stats.nodes_per_level),
        lumped_overall=len(result.lumped.reachable),
        lumped_level_sizes=list(result.lumped.md.level_sizes),
        generation_seconds=watch.elapsed("generation"),
        md_memory_bytes=unlumped_stats.memory_bytes,
        lump_seconds=watch.elapsed("lumping"),
        lumped_md_memory_bytes=lumped_stats.memory_bytes,
    )


def _tandem_model(compiled, reach, params: TandemParams):
    """The tandem MD model over a reachable set, and that set.

    Projects the event model onto the reachable substates; when the
    projection shrank a level, the set is re-derived by BFS in the
    projected coordinates (labels are preserved, so it is the same set).
    Its own checkpoint scope keeps that BFS from aliasing the first
    one's snapshots.
    """
    event_model = projected_event_model(compiled, reach)
    if event_model.level_sizes() != compiled.event_model.level_sizes():
        with checkpoint_scoped("projected"):
            reach = reachable_bfs(event_model)
    else:
        reach.model = event_model
    return tandem_md_model(event_model, params, reachable=reach), reach


def run_table1_row_symbolic(
    jobs: int,
    params: Optional[TandemParams] = None,
    strategy: str = "saturation",
    kind: str = "ordinary",
) -> Table1Row:
    """Fully symbolic Table-1 row: the reachable set is never enumerated.

    Uses MDD reachability (saturation by default) for the counts and
    supports, and MDD level-mapping for the lumped state count, so the
    pipeline scales to state spaces far beyond what explicit enumeration
    can hold — the regime the paper's MD representation targets.
    """
    from repro.statespace.events import project_event_model
    from repro.statespace.reachability import symbolic_reachability

    if params is None:
        params = TandemParams(jobs=jobs)
    elif params.jobs != jobs:
        raise ValueError("params.jobs disagrees with the jobs argument")
    watch = Stopwatch()
    with watch.phase("generation"):
        compiled = build_tandem(params)
        symbolic = symbolic_reachability(
            compiled.event_model, strategy=strategy
        )
        supports = symbolic.level_supports()
        event_model = project_event_model(compiled.event_model, supports)
        model = tandem_md_model(event_model, params)
    unlumped_stats = md_stats(model.md)

    with watch.phase("lumping"):
        result = compositional_lump(model, kind)
    lumped_stats = md_stats(result.lumped.md)

    # Lumped reachable count: map each original substate to its class
    # (composing the support projection with the per-level partition).
    class_vectors = [
        partition.state_class_vector() for partition in result.partitions
    ]
    mappings = []
    for level, support in enumerate(supports):
        position = {substate: i for i, substate in enumerate(support)}
        mappings.append(
            {
                substate: class_vectors[level][position[substate]]
                for substate in support
            }
        )
    lumped_overall = symbolic.mapped_count(
        mappings, result.lumped.md.level_sizes
    )

    return Table1Row(
        jobs=jobs,
        unlumped_overall=symbolic.num_states,
        unlumped_level_sizes=[len(s) for s in supports],
        md_nodes_per_level=list(unlumped_stats.nodes_per_level),
        lumped_overall=lumped_overall,
        lumped_level_sizes=list(result.lumped.md.level_sizes),
        generation_seconds=watch.elapsed("generation"),
        md_memory_bytes=unlumped_stats.memory_bytes,
        lump_seconds=watch.elapsed("lumping"),
        lumped_md_memory_bytes=lumped_stats.memory_bytes,
    )


@dataclass
class RobustTable1Run:
    """A Table-1 row produced by the resilient pipeline.

    Besides the row itself, carries the steady-state solution of the
    lumped chain and the :class:`~repro.robust.report.RunReport` saying
    which engines/solvers/levels degraded along the way.
    """

    row: Table1Row
    report: RunReport
    stationary: np.ndarray
    solve_method: str
    reach_engine: str


def run_table1_row_robust(
    jobs: int,
    params: Optional[TandemParams] = None,
    engines: Sequence[str] = ("mdd", "bfs"),
    kind: str = "ordinary",
    budget: Optional[Budget] = None,
    report: Optional[RunReport] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    supervised: bool = False,
    supervisor=None,
) -> RobustTable1Run:
    """The Table-1 pipeline with fallbacks, degradation, and a report.

    Runs generation -> lumping -> steady-state solve end to end:
    reachability falls back across ``engines`` (default MDD -> BFS),
    then the lumping and solve stages of
    :func:`~repro.analysis.lump_and_solve` with ``robust=True`` run on
    the generated model — lumping skips levels that fail (identity
    partition) and the solve walks the solver fallback chain.  Every
    degradation is recorded in the returned report, so the driver can
    print what degraded and why.

    With ``checkpoint_dir`` set, the reachability/refinement/solver loops
    write crash-safe snapshots (see :mod:`repro.robust.checkpoint`);
    ``resume=True`` continues a killed or budget-stopped run from them.

    With ``supervised=True`` the whole pipeline runs in a
    watchdog-supervised child process, restarted from the latest
    checkpoint on crash/hang/OOM with progressive degradation — see
    :mod:`repro.robust.supervisor`.  ``supervisor`` is an optional
    :class:`~repro.robust.supervisor.SupervisorConfig`.
    """
    from repro.robust.fallback import reachable_with_fallback

    if params is None:
        params = TandemParams(jobs=jobs)
    elif params.jobs != jobs:
        raise ValueError("params.jobs disagrees with the jobs argument")

    def run_row(ctx) -> RobustTable1Run:
        report = ctx.report
        with report.stage("generation") as stage, checkpoint_scoped(
            "generation"
        ):
            compiled = build_tandem(params)
            engine_run = reachable_with_fallback(
                compiled.event_model, engines=engines
            )
            for attempt in engine_run.attempts:
                report.record_attempt(
                    stage="generation",
                    name=attempt.engine,
                    succeeded=attempt.succeeded,
                    seconds=attempt.seconds,
                    error=attempt.error,
                )
            if engine_run.degraded:
                stage.status = "degraded"
                stage.detail = f"reachability via {engine_run.engine!r}"
                report.record_fallback(
                    stage="generation",
                    requested=engine_run.requested_engine,
                    used=engine_run.engine,
                    reason="; ".join(
                        a.error for a in engine_run.attempts if a.error
                    )
                    or "earlier engines failed",
                )
            model, reach = _tandem_model(compiled, engine_run.result, params)
        unlumped_stats = md_stats(model.md)
        solution = _lump_solve_stages(model, ctx, robust=True, kind=kind)
        result = solution.lumping
        lumped_stats = md_stats(result.lumped.md)
        row = Table1Row(
            jobs=jobs,
            unlumped_overall=reach.num_states,
            unlumped_level_sizes=list(reach.level_sizes()),
            md_nodes_per_level=list(unlumped_stats.nodes_per_level),
            lumped_overall=len(result.lumped.reachable),
            lumped_level_sizes=list(result.lumped.md.level_sizes),
            generation_seconds=report.stage_seconds("generation"),
            md_memory_bytes=unlumped_stats.memory_bytes,
            lump_seconds=report.stage_seconds("lumping"),
            lumped_md_memory_bytes=lumped_stats.memory_bytes,
        )
        return RobustTable1Run(
            row=row,
            report=report,
            stationary=solution.stationary,
            solve_method=solution.solve_method,
            reach_engine=engine_run.engine,
        )

    return _run_pipeline(
        run_row,
        f"table1 jobs={jobs} kind={kind} params={params}",
        robust=True,
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
