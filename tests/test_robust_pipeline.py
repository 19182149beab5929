"""End-to-end degradation: lumping skips, budgets, reports, Table-1 path."""

import numpy as np
import pytest

from repro.analysis import lump_and_solve
from repro.bench.table1 import run_table1_row
from repro.lumping import compositional_lump
from repro.markov import steady_state
from repro.models import TandemParams
from repro.robust.budgets import Budget, BudgetExceeded
from repro.robust.faults import (
    InjectedLumpingFault,
    InjectedStateSpaceFault,
    inject_faults,
)
from repro.robust.report import RunReport

SMALL = dict(cube_dim=2, msmq_servers=2, msmq_queues=2)


# ----------------------------------------------------------------------
# graceful lumping degradation
# ----------------------------------------------------------------------


def test_skipped_level_keeps_identity_partition(small_tandem):
    model = small_tandem["model"]
    with inject_faults("lumping.level:1"):
        result = compositional_lump(model, "ordinary", degrade=True)
    assert [s.level for s in result.skipped_levels] == [1]
    assert result.degraded
    # Level 1 keeps the identity partition...
    assert len(result.partitions[0]) == model.md.level_size(1)
    # ...while the other levels still lump.
    clean = compositional_lump(model, "ordinary")
    for level in (2, 3):
        assert len(result.partitions[level - 1]) == len(
            clean.partitions[level - 1]
        )


def test_partially_skipped_lumping_is_still_exact(small_tandem):
    """A less-lumped MD still yields the exact aggregated distribution."""
    model = small_tandem["model"]
    with inject_faults("lumping.level:1"):
        result = compositional_lump(model, "ordinary", degrade=True)
    pi = steady_state(model.flat_ctmc()).distribution
    pi_hat = steady_state(result.lumped.flat_ctmc()).distribution
    assert np.abs(result.project_distribution(pi) - pi_hat).max() < 1e-9


def test_all_levels_skipped_equals_input_exactly(small_tandem):
    """Identity partitions everywhere: the flattened CTMC is unchanged."""
    model = small_tandem["model"]
    with inject_faults("lumping.level"):
        result = compositional_lump(model, "ordinary", degrade=True)
    assert len(result.skipped_levels) == model.md.num_levels
    original = model.flat_ctmc().generator_matrix()
    degraded = result.lumped.flat_ctmc().generator_matrix()
    assert np.abs((original - degraded)).max() == 0.0


def test_without_degrade_level_failures_propagate(small_tandem):
    with inject_faults("lumping.level:1"):
        with pytest.raises(InjectedLumpingFault):
            compositional_lump(small_tandem["model"], "ordinary")


def test_skips_are_recorded_in_report(small_tandem):
    report = RunReport()
    with inject_faults("lumping.level:2"):
        compositional_lump(
            small_tandem["model"], "ordinary", degrade=True, report=report
        )
    events = report.fallbacks_for("lumping")
    assert len(events) == 1
    assert events[0].used == "identity partition"
    assert "lump level 2" in events[0].requested


# ----------------------------------------------------------------------
# robust lump_and_solve
# ----------------------------------------------------------------------


def test_robust_lump_and_solve_matches_plain(small_tandem):
    model = small_tandem["model"]
    plain = lump_and_solve(model)
    robust = lump_and_solve(model, robust=True)
    np.testing.assert_allclose(
        robust.stationary, plain.stationary, atol=1e-10
    )
    assert robust.report is not None
    assert not robust.report.degraded
    assert robust.solve_method == "direct"
    assert {s.name for s in robust.report.stages} == {"lumping", "solve"}


def test_robust_lump_and_solve_degrades_and_reports(small_tandem):
    model = small_tandem["model"]
    plain = lump_and_solve(model)
    with inject_faults("solver.direct,lumping.level:3"):
        solution = lump_and_solve(model, robust=True)
    assert solution.report.degraded
    assert solution.solve_method != "direct"
    assert [s.level for s in solution.lumping.skipped_levels] == [3]
    # The degraded run's measure is still exact.
    assert solution.expected_reward() == pytest.approx(
        plain.expected_reward(), abs=1e-8
    )
    stages = {s.name: s.status for s in solution.report.stages}
    assert stages == {"lumping": "degraded", "solve": "degraded"}


def test_robust_lump_and_solve_under_generous_budget(small_tandem):
    budget = Budget(wall_clock_seconds=300, max_states=10**9)
    solution = lump_and_solve(
        small_tandem["model"], robust=True, budget=budget
    )
    assert solution.report.budget is not None
    assert solution.report.budget.elapsed_seconds > 0.0


# ----------------------------------------------------------------------
# the full Table-1 pipeline (acceptance criterion)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tandem_params():
    return TandemParams(jobs=1, **SMALL)


@pytest.fixture(scope="module")
def clean_run(tandem_params):
    return run_table1_row(1, tandem_params, robust=True)


def test_table1_row_solves_like_lump_and_solve(tandem_params, clean_run):
    from repro.models import build_tandem, tandem_md_model
    from repro.models.tandem import projected_event_model
    from repro.statespace import reachable_bfs

    compiled = build_tandem(tandem_params)
    event_model = projected_event_model(
        compiled, reachable_bfs(compiled.event_model)
    )
    model = tandem_md_model(
        event_model, tandem_params, reachable=reachable_bfs(event_model)
    )
    solution = lump_and_solve(model, robust=True)
    assert np.array_equal(clean_run.stationary, solution.stationary)
    assert clean_run.solve_method == solution.solve_method


def test_faulted_pipeline_completes_and_matches(tandem_params, clean_run):
    """Direct solver down: pipeline still completes, the distribution
    matches the unfaulted run to 1e-8, and the report records the
    fallback."""
    with inject_faults("solver.direct"):
        run = run_table1_row(1, tandem_params, robust=True)
    assert run.solve_method == "gauss-seidel"
    np.testing.assert_allclose(
        run.stationary, clean_run.stationary, atol=1e-8
    )
    stages_with_fallbacks = {f.stage for f in run.report.fallbacks}
    assert stages_with_fallbacks == {"solve"}
    assert run.report.degraded
    # The row itself is unaffected by which solver produced it.
    assert run.row.unlumped_overall == clean_run.row.unlumped_overall
    assert run.row.lumped_overall == clean_run.row.lumped_overall


def test_pipeline_report_renders_and_serializes(tandem_params):
    with inject_faults("solver.direct"):
        run = run_table1_row(1, tandem_params, robust=True)
    rendered = run.report.render()
    assert "DEGRADED" in rendered
    assert "direct -> gauss-seidel" in rendered
    assert "stage generation" in rendered
    as_dict = run.report.to_dict()
    assert as_dict["degraded"] is True
    assert len(as_dict["fallbacks"]) >= 1
    assert {s["name"] for s in as_dict["stages"]} == {
        "generation",
        "lumping",
        "solve",
    }


def test_budget_exhaustion_propagates_from_pipeline(tandem_params):
    """Budgets are a stop signal, not something fallbacks route around."""
    report = RunReport()
    with pytest.raises(BudgetExceeded):
        run_table1_row(
            1,
            tandem_params,
            robust=True,
            budget=Budget(max_states=3),
            report=report,
        )
    assert report.stages[0].name == "generation"
    assert report.stages[0].status == "failed"


def test_generation_failure_fails_the_stage_without_fallback(
    tandem_params,
):
    """Generation has no fallback engine: an MDD failure fails the
    generation stage and propagates."""
    report = RunReport()
    with inject_faults("reachability.mdd"):
        with pytest.raises(InjectedStateSpaceFault):
            run_table1_row(1, tandem_params, robust=True, report=report)
    assert [(s.name, s.status) for s in report.stages] == [
        ("generation", "failed")
    ]
    assert report.fallbacks == []
    assert report.attempts == []


def test_clean_pipeline_report_is_clean(clean_run):
    assert not clean_run.report.degraded
    assert clean_run.report.fallbacks == []
    assert all(s.status == "ok" for s in clean_run.report.stages)
    rendered = clean_run.report.render()
    assert "clean" in rendered


# ----------------------------------------------------------------------
# one pipeline: the plain path honours its arguments (the Table-1 row
# solving exactly like lump_and_solve is in test_bench_harness.py)
# ----------------------------------------------------------------------

#: Direct down, and every iterative rung fails once at the requested
#: tolerance: only the relaxed-tolerance round can answer.
RELAXED_ONLY = (
    "solver.direct,solver.gauss-seidel:1,solver.jacobi:1,solver.power:1"
)


def test_plain_lump_and_solve_honours_budget(small_tandem):
    with pytest.raises(BudgetExceeded):
        lump_and_solve(
            small_tandem["model"], budget=Budget(max_iterations=1)
        )


def test_plain_lump_and_solve_records_into_the_given_report(small_tandem):
    report = RunReport()
    solution = lump_and_solve(small_tandem["model"], report=report)
    assert solution.report is report
    assert [s.name for s in report.stages] == ["lumping", "solve"]
    assert not report.degraded


def test_table1_row_records_relaxed_tolerance_and_solver_note(
    tandem_params,
):
    with inject_faults(RELAXED_ONLY):
        run = run_table1_row(1, tandem_params, robust=True)
    [fallback] = run.report.fallbacks_for("solve")
    assert "tol relaxed" in fallback.used
    assert any(
        note.startswith(f"solver note ({run.solve_method})")
        for note in run.report.notes
    )
