"""One benchmark for the lumping pipeline, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1_j1 --seed 1 --seconds 20 --trace 0

Workloads (their reasons are in ``BENCHMARK.json`` and ``workloads.py``):

* ``table1_j1`` — the paper's Table 1 row at J=1 through the MDD engine
  and a certified direct solve; supersedes ``benchmarks/bench_table1.py``,
  ``bench_reachability_engines.py`` and ``bench_certify.py`` as the
  measure of that row;
* ``sweep24`` — a 24-point service-rate sweep; supersedes
  ``benchmarks/bench_sweep.py``;
* ``service_mix`` — a closed-loop job stream against the durable store.

A run derives its inputs from ``--seed`` alone and repeats the workload
until ``--seconds`` have passed, setting the inputs up afresh before
each iteration (``setup_s`` is the median set-up), then checks every
output.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (items whose output was wrong or that raised) and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced.  With ``--trace 1`` they are the per-layer ones: the
run alternates untraced and traced iterations, wraps the public
functions at each layer boundary (see ``tracing.py``) only during the
traced ones, and fails if any wrapped site never fired.  The line before
it records the seed, the input digest and the host; a copy of both, and
the spans of a traced run, is written under ``.perfbench/``.

The benchmark refuses to run while ``REPRO_FAULTS`` is set, since
injected faults would be timed as work, and never asks for the
``parallel=`` worker pool.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Span names whose self time is reported as ``<span>_s``.
SPAN_TIMES = (
    "san.compile",
    "statespace.reach",
    "statespace.project",
    "matrixdiagram.build",
    "matrixdiagram.flatten",
    "lumping.refine",
    "lumping.apply",
    "markov.solve",
    "robust.certify",
    "service.digest",
    "service.submit",
    "service.cache_get",
    "service.cache_put",
    "sweep.plan",
    "sweep.reuse_proof",
)
#: Span names whose call count is reported as ``<span>_calls``.
SPAN_CALLS = (
    "san.compile",
    "matrixdiagram.flatten",
    "lumping.refine",
    "markov.solve",
)

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER: Dict[str, str] = {
    **{f"{span}_s": "s" for span in SPAN_TIMES},
    **{f"{span}_calls": "count" for span in SPAN_CALLS},
    "statespace.states": "count",
    "matrixdiagram.md_bytes": "B",
    "matrixdiagram.lumped_md_bytes": "B",
    "lumping.lumped_states": "count",
    "markov.iterations": "count",
    "robust.escalations": "count",
    "service.cache_hit_ratio": "ratio",
    "service.store_bytes": "B",
    "service.records": "count",
    "service.hit_latency_p50_s": "s",
    "service.solve_latency_p50_s": "s",
    "sweep.reuse_hit_ratio": "ratio",
    "sweep.warm_start_ratio": "ratio",
    "sweep.relumps": "count",
    "trace.overhead_frac": "ratio",
    "trace.untraced_frac": "ratio",
}


class Refused(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program() -> Any:
    """Put the checkout's ``src`` and this directory on the path and
    import the workloads (and with them, the program)."""
    src = os.path.join(ROOT, "src")
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
        import workloads
    except ImportError as exc:
        raise Refused(f"cannot import the program from {src}: {exc}") from exc
    # Measure this checkout's source, never an installed copy.
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise Refused(f"repro was imported from {repro.__file__}, not {src}")
    return workloads


def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git;
    ``None`` outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def host_facts() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def percentile(values: List[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


class Scratch:
    """Fresh directories for stores, inside the checkout."""

    def __init__(self) -> None:
        self.root = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        self.count = 0

    def fresh(self) -> str:
        self.count += 1
        path = os.path.join(self.root, f"i{self.count:04d}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _run_once(workload: Any, inputs: Any, scratch: Scratch) -> Tuple[Any, float]:
    path = scratch.fresh()
    # Start every iteration from an empty collector, not from whatever
    # garbage the previous one left.
    gc.collect()
    try:
        started = time.perf_counter()
        iteration = workload.run(inputs, path)
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(path, ignore_errors=True)
    return iteration, wall


def measure(
    workload: Any, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, Any], Dict[str, Any], Any]:
    """Set up, run and check one workload.  Returns the result object,
    the run record (seed, inputs, errors) and the tracer (or ``None``)."""
    from tracing import Tracer, self_times
    from workloads import input_digest

    run_errors: List[str] = []
    tracer = Tracer(workload.sites) if trace else None
    setup_times: List[float] = []
    digests = set()

    def set_up() -> Any:
        gc.collect()
        started = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)
        digests.add(input_digest(inputs))
        return inputs

    if tracer is not None:
        # Set up once, traced: some layers work only during set-up.
        with tracer:
            inputs = set_up()
        tracer.counters.clear()

    scratch = Scratch()
    plain: List[Any] = []
    plain_walls: List[float] = []
    traced: List[Any] = []
    traced_walls: List[float] = []
    windows: List[Tuple[float, float]] = []
    started = time.perf_counter()
    try:
        while True:
            if tracer is None or len(plain) <= len(traced):
                if tracer is None:
                    # Set up afresh before every untraced iteration, so
                    # the set-up samples span the run as iterations do.
                    inputs = set_up()
                iteration, wall = _run_once(workload, inputs, scratch)
                plain.append(iteration)
                plain_walls.append(wall)
            else:
                with tracer:
                    opened = time.perf_counter()
                    iteration, wall = _run_once(workload, inputs, scratch)
                    windows.append((opened, opened + wall))
                traced.append(iteration)
                traced_walls.append(wall)
            enough = time.perf_counter() - started >= seconds
            if enough and (tracer is None or traced):
                break
    finally:
        scratch.close()

    iterations = plain + traced
    if len(digests) != 1:
        run_errors.append(f"setup is not deterministic: {len(digests)} digests")
    check_errors = workload.check(inputs, iterations)
    attempted = sum(len(it.latencies) for it in iterations)
    if tracer is not None:
        silent = tracer.silent_sites()
        if silent:
            run_errors.append(f"wrapped sites never fired: {silent}")

    if not trace:
        latencies = [x for it in plain for x in it.latencies]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(plain_walls),
            "throughput_per_s": len(latencies) / sum(plain_walls),
            "latency_p50_s": percentile(latencies, 50),
            "latency_p90_s": percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(
            tracer, self_times(tracer.spans, windows), plain, traced,
            plain_walls, traced_walls,
        )
        units = PER_LAYER

    failed = min(attempted, len(check_errors) + len(run_errors))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "input_digest": digests.pop() if len(digests) == 1 else None,
        "iterations": len(iterations),
        "item": workload.item,
        "errors": (run_errors + check_errors)[:50],
        "setup_times": setup_times,
        "walls": plain_walls,
        "traced_walls": traced_walls,
    }
    return result, record, tracer


def layer_metrics(
    tracer: Any,
    spans: Tuple[Dict[str, float], Dict[str, int], float],
    plain: List[Any],
    traced: List[Any],
    plain_walls: List[float],
    traced_walls: List[float],
) -> Dict[str, float]:
    """Per-layer metrics: span self times and call counts per traced
    iteration, counters from the wrapped calls and the workload."""
    selfs, calls, covered = spans
    n = len(traced)
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for span in SPAN_TIMES:
        metrics[f"{span}_s"] = selfs.get(span, 0.0) / n
    for span in SPAN_CALLS:
        metrics[f"{span}_calls"] = calls.get(span, 0) / n
    metrics.update(tracer.maxima)
    metrics["markov.iterations"] = tracer.counters.get("markov.iterations", 0) / n
    metrics["robust.escalations"] = tracer.counters.get("robust.escalations", 0) / n
    gets = tracer.counters.get("service.cache_gets", 0)
    if gets:
        metrics["service.cache_hit_ratio"] = (
            tracer.counters.get("service.cache_hits", 0) / gets
        )
    for name in traced[0].counters:
        metrics[name] = statistics.mean(it.counters.get(name, 0.0) for it in traced)
    for kind in ("hit", "solve"):
        values = [
            latency
            for it in plain
            for latency, seen in zip(it.latencies, it.kinds)
            if seen == kind
        ]
        if values:
            metrics[f"service.{kind}_latency_p50_s"] = percentile(values, 50)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    metrics["trace.untraced_frac"] = 1.0 - covered / sum(traced_walls)
    return metrics


def write_outputs(workload: str, record: dict, result: dict, tracer: Any) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "traced" if record["trace"] else "plain"
    with open(os.path.join(OUT_DIR, f"{workload}.{suffix}.json"), "w") as handle:
        json.dump({"run": record, "result": result}, handle, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, f"{workload}.spans.json"), "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent"],
                 "fired": tracer.fired, "spans": tracer.spans},
                handle,
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if os.environ.get("REPRO_FAULTS"):
            raise Refused("REPRO_FAULTS is set; injected faults would be timed")
        workloads = import_program()
        if args.workload not in workloads.WORKLOADS:
            raise Refused(
                f"unknown workload {args.workload!r}; choose from "
                f"{sorted(workloads.WORKLOADS)}"
            )
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    result, record, tracer = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    record["host"] = host_facts()
    write_outputs(args.workload, record, result, tracer)
    for error in record["errors"][:10]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({key: record[key] for key in (
        "workload", "seed", "input_digest", "iterations", "host")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
