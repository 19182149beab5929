"""One-call lump-and-solve pipeline.

``lump_and_solve`` runs the full workflow a user of the paper's system
would: compositional lumping of an MD model, restriction to the (lumped)
reachable states, steady-state solution of the lumped chain, and measure
evaluation — all without ever solving the unlumped chain.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.robust.certify import Certificate
    from repro.robust.supervisor import AttemptContext

from repro.errors import LumpingError
from repro.lumping.compositional import (
    CompositionalLumpingResult,
    compositional_lump,
)
from repro.lumping.md_model import MDModel
from repro.markov.solvers import steady_state
from repro.markov.transient import transient_distribution
from repro.robust import fallback
from repro.robust.budgets import Budget
from repro.robust.checkpoint import Checkpointer
from repro.robust.checkpoint import scoped as checkpoint_scoped
from repro.robust.fallback import DEFAULT_SOLVER_CHAIN, ITERATIVE_METHODS
from repro.robust.report import RunReport


@dataclass
class LumpedSolution:
    """Everything a measure evaluation needs, on the lumped chain."""

    lumping: CompositionalLumpingResult
    stationary: np.ndarray  # over the lumped (restricted) state space
    report: Optional[RunReport] = field(default=None, compare=False)
    solve_method: str = "direct"
    certificate: Optional["Certificate"] = field(default=None, compare=False)

    @property
    def lumped_model(self) -> MDModel:
        """The lumped MD model the solution lives on."""
        return self.lumping.lumped

    @property
    def num_states(self) -> int:
        """Size of the solved (lumped) chain."""
        return self.lumped_model.num_states()

    @property
    def reduction_factor(self) -> float:
        """Unlumped states per lumped state (restricted spaces)."""
        original = self.lumping.original.num_states()
        return original / max(1, self.num_states)

    def expected_reward(self) -> float:
        """Steady-state expected rate reward, from the lumped vectors.

        Exact for the original model by Theorems 2/3/4: the lumped reward
        vector is the class (representative/average) reward and the lumped
        stationary distribution carries the aggregated class probability.
        """
        rewards = self.lumped_model.global_rewards()
        return float(self.stationary @ rewards)

    def transient_reward(self, time: float) -> float:
        """Expected rate reward at time ``time`` starting from the lumped
        initial distribution."""
        mrp = self.lumped_model.flat_mrp()
        pi_t = transient_distribution(
            mrp.ctmc, mrp.initial_distribution, time
        )
        return float(pi_t @ mrp.rewards)

    def class_probability(
        self, predicate: Callable[[tuple], bool]
    ) -> float:
        """Steady-state probability of the lumped states whose per-level
        label tuples satisfy ``predicate``.

        ``predicate`` receives a tuple of per-level labels; a lumped
        level's label is the tuple of its merged original labels (or the
        single original label for singleton classes).
        """
        md = self.lumped_model.md
        total = 0.0
        states = (
            self.lumped_model.reachable
            if self.lumped_model.reachable is not None
            else range(md.potential_size())
        )
        for position, index in enumerate(states):
            tuple_state = self.lumped_model.state_tuple(index)
            labels = tuple(
                md.substate_label(level + 1, substate)
                for level, substate in enumerate(tuple_state)
            )
            if predicate(labels):
                total += float(self.stationary[position])
        return total


def lump_and_solve(
    model: MDModel,
    kind: str = "ordinary",
    method: str = "direct",
    iterate: bool = False,
    key: str = "formal",
    *,
    robust: bool = False,
    budget: Optional[Budget] = None,
    report: Optional[RunReport] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    supervised: bool = False,
    supervisor=None,
    certify: bool = False,
    certificate_tol: Optional[float] = None,
    lumping: Optional[CompositionalLumpingResult] = None,
    x0: Optional[np.ndarray] = None,
) -> LumpedSolution:
    """Lump ``model`` compositionally and solve the lumped chain.

    The model must carry a ``reachable`` restriction (or be fully
    reachable): the lumped chain is solved over the restricted space.

    Every run goes through the same stages (``lumping``, ``solve``, and
    ``certify`` when asked), runs under ``budget`` when one is given,
    and returns a :class:`~repro.robust.report.RunReport` on the
    solution (``report`` when one is passed in, a fresh one otherwise).

    With ``robust=True`` the pipeline degrades instead of dying: levels
    whose lumping fails are skipped (identity partition) and the solve
    walks a fallback chain starting at ``method`` (see
    :func:`repro.robust.fallback.solve_with_fallback`); the report says
    what degraded and why.  Without it, a lumping or solver failure
    raises.

    With ``checkpoint_dir`` set, the refinement and solver loops write
    crash-safe snapshots there (see :mod:`repro.robust.checkpoint`); with
    ``resume=True`` a rerun continues from the latest valid snapshots
    instead of restarting, falling back to a fresh start (recorded in the
    report) on any corrupt or stale snapshot.

    With ``supervised=True`` (implies robust) the whole pipeline runs in
    a watchdog-supervised child process that is restarted from the
    latest checkpoint on crash, hang, or OOM, climbing a progressive
    degradation ladder — see :mod:`repro.robust.supervisor`.
    ``supervisor`` is an optional
    :class:`~repro.robust.supervisor.SupervisorConfig`.

    With ``certify=True`` the solved vector is certified
    (:mod:`repro.robust.certify`): NaN/Inf guards, probability-mass
    defect, nonnegativity, an independent extended-precision residual
    recheck, and (for small models) lumped-vs-unlumped measure
    consistency plus a spectral lumpability spot-check.  On failure an
    escalation ladder runs — the next method of the fallback chain, a
    tightened-tolerance re-solve, a float128 refinement — with every
    step recorded as ``certificate``/``certificate-escalation`` events
    in the report; an exhausted ladder raises
    :class:`~repro.errors.CertificationError` with the last certificate
    attached.  ``certificate_tol`` overrides the base tolerance
    (:data:`~repro.robust.certify.DEFAULT_CERTIFICATE_TOL`).  The
    certificate lands on ``LumpedSolution.certificate``.

    With ``lumping`` given (a :class:`CompositionalLumpingResult` whose
    ``original`` matches ``model``), the refinement is skipped entirely
    and the precomputed partition is used as-is — the parameter-sweep
    reuse path (:mod:`repro.sweep`), which proves partition validity
    separately before passing it here.  With ``x0`` given, iterative
    solve methods are warm-started from it instead of the uniform
    vector (``direct`` ignores it); certification still checks the
    answer, so a poisoned warm start cannot certify.  Neither is
    supported under ``supervised=True``.
    """
    if supervised and (lumping is not None or x0 is not None):
        raise LumpingError(
            "lumping=/x0= are not supported with supervised=True"
        )
    if lumping is not None and (
        lumping.original.md.level_sizes != model.md.level_sizes
        or lumping.kind != kind
    ):
        raise LumpingError(
            "precomputed lumping does not match the model/kind "
            f"(lumping: kind={lumping.kind!r} "
            f"levels={lumping.original.md.level_sizes}; requested: "
            f"kind={kind!r} levels={model.md.level_sizes})"
        )
    robust = robust or supervised
    fingerprint = (
        f"lump_and_solve kind={kind} method={method} key={key} "
        f"iterate={iterate} levels={tuple(model.md.level_sizes)} "
        f"n={model.num_states()}"
    )

    def attempt(ctx: AttemptContext) -> LumpedSolution:
        result = _lump_stage(
            model, ctx, kind=kind, iterate=iterate, key=key, lumping=lumping
        )
        return _solve_stages(
            model,
            result,
            ctx,
            robust=robust,
            kind=kind,
            method=method,
            certify=certify,
            certificate_tol=certificate_tol,
            x0=x0,
        )

    return _run_pipeline(
        attempt,
        fingerprint,
        robust=robust,
        supervised=supervised,
        supervisor=supervisor,
        budget=budget,
        report=report,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )


def _run_pipeline(
    attempt: Callable[[AttemptContext], Any],
    fingerprint: str,
    *,
    robust: bool,
    supervised: bool,
    supervisor=None,
    budget: Optional[Budget] = None,
    report: Optional[RunReport] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> Any:
    """Run ``attempt(ctx)`` under the context's budget and checkpointer.

    The :class:`~repro.robust.supervisor.AttemptContext` is the run's
    policy: budget, report, checkpoint directory, resume flag, snapshot
    cadence and GC window, and the degradation rung (lumping degrade,
    solver chain).  In process it is built from the arguments — the rung
    degrades lumping exactly when ``robust`` — and ``attempt`` runs once.
    With ``supervised=True`` the supervisor builds one context per child
    attempt (see :func:`repro.robust.supervisor.run_supervised`) and the
    merged report replaces the result's ``report``.  ``fingerprint`` ties
    the checkpoint directory to the configuration, so snapshots of a
    different model or method are treated as stale in their entirety.
    """

    # Imported here so that ``import repro`` keeps the supervision
    # modules lazy (see repro.robust).
    from repro.robust.retry import DegradationLevel
    from repro.robust.supervisor import AttemptContext, run_supervised

    def scoped(ctx: AttemptContext) -> Any:
        ck = None
        if ctx.checkpoint_dir is not None:
            ck = Checkpointer(
                ctx.checkpoint_dir,
                resume=ctx.resume,
                fingerprint=fingerprint,
                report=ctx.report,
                keep_last=ctx.checkpoint_keep_last,
                **(
                    {"interval_iterations": ctx.checkpoint_interval}
                    if ctx.checkpoint_interval is not None
                    else {}
                ),
            )
        scope = ctx.budget if ctx.budget is not None else nullcontext()
        with scope, (ck if ck is not None else nullcontext()):
            result = attempt(ctx)
        ctx.report.attach_budget(ctx.budget)
        return result

    if not supervised:
        return scoped(
            AttemptContext(
                attempt_index=0,
                degradation_index=0,
                degradation=DegradationLevel(
                    name="in-process", lumping_degrade=robust
                ),
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                budget=budget,
                report=report if report is not None else RunReport(),
            )
        )
    outcome = run_supervised(
        scoped,
        checkpoint_dir=checkpoint_dir,
        config=supervisor,
        budget=budget,
        report=report,
        resume=resume,
    )
    outcome.result.report = outcome.report
    return outcome.result


def _lump_stage(
    model: MDModel,
    ctx: AttemptContext,
    *,
    kind: str = "ordinary",
    iterate: bool = False,
    key: str = "formal",
    lumping: Optional[CompositionalLumpingResult] = None,
) -> CompositionalLumpingResult:
    """The ``lumping`` stage of one pipeline run.

    Runs inside :func:`_run_pipeline`'s scope, records into
    ``ctx.report`` and checkpoints under the ``lumping`` scope label.
    Lumping degrades per level when the rung says so; a precomputed
    ``lumping`` is passed through unchanged.
    """
    with ctx.report.stage("lumping") as stage, checkpoint_scoped("lumping"):
        if lumping is not None:
            result = lumping
            stage.detail = "reused precomputed partition"
        else:
            result = compositional_lump(
                model, kind=kind, key=key, iterate=iterate,
                degrade=ctx.degradation.lumping_degrade, report=ctx.report,
            )
        if result.skipped_levels:
            stage.status = "degraded"
            stage.detail = (
                f"{len(result.skipped_levels)} level(s) kept the "
                "identity partition"
            )
    return result


def _solve_stages(
    model: MDModel,
    result: CompositionalLumpingResult,
    ctx: AttemptContext,
    *,
    robust: bool,
    kind: str = "ordinary",
    method: str = "direct",
    certify: bool = False,
    certificate_tol: Optional[float] = None,
    x0: Optional[np.ndarray] = None,
) -> LumpedSolution:
    """The solve and certify stages of one pipeline run, on the lumped
    chain of ``result`` (restricted to its reachable set).

    Runs inside :func:`_run_pipeline`'s scope, after :func:`_lump_stage`;
    the ``solve`` stage checkpoints under that scope label.  Only the
    solve branches on ``robust``: the plain path calls ``steady_state``
    for ``method`` and raises on failure, the robust path walks the
    rung's solver chain (default: ``method``, then the remaining
    :data:`~repro.robust.fallback.DEFAULT_SOLVER_CHAIN`) and records
    every attempt, the fallback taken and the solver's note.
    Certification checks the answer against ``model``, the unlumped
    model.
    """
    report = ctx.report
    chain = ctx.degradation.solver_chain
    if chain is None:
        chain = [method] + [m for m in DEFAULT_SOLVER_CHAIN if m != method]
    with report.stage("solve") as stage, checkpoint_scoped("solve"):
        lumped_ctmc = result.lumped.flat_ctmc()
        if not lumped_ctmc.is_irreducible():
            raise LumpingError(
                "the lumped chain is not irreducible; restrict the "
                "model to a single recurrent class before solving"
            )
        warm = {} if x0 is None else {"x0": x0}
        if robust:
            solution = fallback.solve_with_fallback(
                lumped_ctmc,
                chain=chain,
                per_method={m: warm for m in ITERATIVE_METHODS},
            )
            for attempt in solution.attempts:
                report.record_attempt(
                    stage="solve",
                    name=attempt.method,
                    succeeded=attempt.succeeded,
                    seconds=attempt.seconds,
                    error=attempt.error,
                    iterations=attempt.iterations,
                    residual=attempt.residual,
                )
            if solution.degraded:
                stage.status = "degraded"
                stage.detail = f"solved by {solution.method!r}"
                report.record_fallback(
                    stage="solve",
                    requested=solution.requested_method,
                    used=solution.method
                    + (
                        f" (tol relaxed to {solution.relaxed_tolerance:g})"
                        if solution.relaxed_tolerance is not None
                        else ""
                    ),
                    reason="; ".join(
                        a.error for a in solution.attempts if a.error
                    )
                    or "earlier attempts failed",
                )
            solved = solution.result
        else:
            solved = steady_state(
                lumped_ctmc,
                method=method,
                **(warm if method in ITERATIVE_METHODS else {}),
            )
    if solved.note:
        report.note(f"solver note ({solved.method}): {solved.note}")
    stationary = solved.distribution
    solve_method = solved.method
    certificate = None
    if certify:
        from repro.robust.certify import certify_with_escalation

        with report.stage("certify") as stage:
            certified = certify_with_escalation(
                stationary,
                lumped_ctmc,
                method=solve_method,
                kind=kind,
                lumping=result,
                original=model,
                chain=chain,
                report=report,
                tol=certificate_tol,
            )
            stationary = certified.stationary
            solve_method = certified.method
            certificate = certified.certificate
            if certified.escalated:
                stage.status = "degraded"
                stage.detail = "escalated: " + ", ".join(
                    certified.escalations
                )
    return LumpedSolution(
        lumping=result,
        stationary=stationary,
        report=report,
        solve_method=solve_method,
        certificate=certificate,
    )
