"""Supervised execution: crash, hang, and OOM survival, end to end.

Runs the tandem pipeline under the watchdog supervisor three ways:

1. a clean supervised run — one child process, one "ok" attempt;
2. a kill storm — the fault injector SIGKILLs the child mid-pipeline
   and injects an OOM on the restart; the supervisor restarts from
   checkpoint each time and the final stationary distribution is
   *bitwise identical* to the clean run;
3. a stays-dead fault — every attempt dies, the crash-loop circuit
   breaker trips, and the structured diagnosis says why.

Run:  python examples/supervised_pipeline.py
"""

import json
import tempfile

import numpy as np

from repro.bench.table1 import run_table1_row
from repro.models import TandemParams
from repro.robust import faults
from repro.robust.retry import RetryPolicy
from repro.robust.supervisor import CrashLoopError, SupervisorConfig


def main() -> None:
    params = TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)
    config = SupervisorConfig(
        policy=RetryPolicy(backoff_initial_seconds=0.05),
        heartbeat_timeout_seconds=30.0,
    )

    print("=== clean supervised run ===")
    clean = run_table1_row(
        1, params, supervised=True, supervisor=config
    )
    for attempt in clean.report.process_attempts:
        print(
            f"attempt #{attempt.index}: {attempt.exit_reason} "
            f"({attempt.seconds:.2f}s, rung {attempt.degradation!r})"
        )

    print()
    print("=== kill storm: SIGKILL at budget call 40, OOM at call 80 ===")
    with tempfile.TemporaryDirectory() as ck_dir:
        faults.reload_env("budget:40@sigkill,budget:80@oom")
        try:
            stormed = run_table1_row(
                1,
                params,
                supervised=True,
                supervisor=config,
                checkpoint_dir=ck_dir,
            )
        finally:
            faults.reload_env("")
    for attempt in stormed.report.process_attempts:
        detail = f" [{attempt.error}]" if attempt.error else ""
        print(
            f"attempt #{attempt.index}: {attempt.exit_reason} "
            f"(rung {attempt.degradation!r}){detail}"
        )
    match = bool(np.array_equal(stormed.stationary, clean.stationary))
    print(f"stormed == clean (bitwise): {match}")
    assert match

    print()
    print("=== stays-dead fault: the circuit breaker trips ===")
    breaker_config = SupervisorConfig(
        policy=RetryPolicy(max_restarts=2, backoff_initial_seconds=0.05),
        heartbeat_timeout_seconds=30.0,
    )
    with tempfile.TemporaryDirectory() as ck_dir:
        faults.reload_env("budget:1+@sigkill")
        try:
            run_table1_row(
                1,
                params,
                supervised=True,
                supervisor=breaker_config,
                checkpoint_dir=ck_dir,
            )
        except CrashLoopError as exc:
            print(f"crash loop detected: {exc}")
            print(json.dumps(exc.diagnosis, indent=2))
        else:
            raise AssertionError("the breaker should have tripped")
        finally:
            faults.reload_env("")


if __name__ == "__main__":
    main()
