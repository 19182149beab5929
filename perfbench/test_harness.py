"""Tests of the benchmark harness itself: seed handling, failure counting,
tracing and the refusals.  Run from the root of a checkout with

    python3 -m pytest perfbench

Everything but ``test_table1_pinned_counts_hold_for_another_seed`` runs
on tiny inputs in a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

workloads = run.import_program()

import repro  # noqa: E402  (importable once import_program ran)
from tracing import Site  # noqa: E402

TINY_TANDEM = {"cube_dim": 2, "msmq_servers": 2, "msmq_queues": 2}


def tiny(name):
    if name == "table1_j1":
        return workloads.Table1(structure=TINY_TANDEM, expected={})
    if name == "sweep24":
        return workloads.Sweep(demo="tandem:1,2,2,2", points=3)
    return workloads.ServiceMix(
        demos=("tandem:1,2,2,2",), per_base=3, copies=2, max_burst=2
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_come_from_the_seed_alone(name):
    workload = tiny(name)
    first = workloads.input_digest(workload.setup(1))
    assert workloads.input_digest(workload.setup(1)) == first
    assert workloads.input_digest(workload.setup(2)) != first


def test_table1_pinned_counts_hold_for_another_seed():
    result, record, _ = run.measure(
        workloads.Table1(), seed=12345, seconds=0, trace=False
    )
    assert record["errors"] == []
    assert result["correct"] and result["attempted"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_is_correct_and_traced(name):
    for trace in (False, True):
        result, record, tracer = run.measure(
            tiny(name), seed=3, seconds=0, trace=trace
        )
        assert record["errors"] == [], record["errors"]
        assert result["correct"] and result["failed"] == 0
        expected = run.PER_LAYER if trace else run.END_TO_END
        assert set(result["metrics"]) == set(expected)
    assert tracer.silent_sites() == []


def test_a_wrapped_site_that_never_fires_fails_the_traced_run():
    workload = tiny("table1_j1")
    workload.sites = workload.sites + [
        Site("repro.statespace", "reachable_bfs", "statespace.reach")
    ]
    result, record, _ = run.measure(
        workload, seed=3, seconds=0, trace=True
    )
    assert not result["correct"] and result["failed"] == 1
    assert "repro.statespace.reachable_bfs" in record["errors"][0]


def _main_lines(capsys, argv):
    code = run.main(argv)
    return code, capsys.readouterr().out.strip().splitlines()


def test_a_wrong_answer_is_counted_and_every_metric_printed(capsys, monkeypatch):
    wrong = {"lumped_states": -1}
    monkeypatch.setitem(
        workloads.WORKLOADS, "tiny",
        lambda: workloads.Table1(structure=TINY_TANDEM, expected=wrong),
    )
    code, lines = _main_lines(
        capsys, ["--workload", "tiny", "--seed", "1", "--seconds", "0"]
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines)


@pytest.mark.parametrize(
    "name, faults",
    # table1_j1's set-up solves once, uncorrupted; every later solve is.
    [("table1_j1", "certify.corrupt:2+"), ("service_mix", "certify.corrupt")],
)
def test_corrupted_solutions_are_counted(name, faults):
    with repro.inject_faults(faults):
        result, record, _ = run.measure(
            tiny(name), seed=3, seconds=0, trace=False
        )
    assert result["failed"] == result["attempted"] > 0
    assert result["correct"] is False
    assert record["errors"]


def test_refuses_to_time_injected_faults(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "solver.direct")
    code, lines = _main_lines(
        capsys, ["--workload", "table1_j1", "--seed", "1", "--seconds", "1"]
    )
    assert code != 0 and lines == []


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1_j1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
