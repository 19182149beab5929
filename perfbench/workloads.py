"""The benchmark's three workloads.

Each workload is driven by one process with one client thread, through
public functions of ``repro`` only.  A workload has four parts:

* ``setup(seed)`` derives every input from the seed (and pays lazy
  first-call costs) before anything is timed;
* ``run(inputs, scratch)`` is one timed iteration; it returns the raw
  outputs plus one latency per item (a Table 1 row, a sweep point, a
  service job);
* ``check(inputs, outputs)`` runs after the timed region and returns one
  error string per item whose output is wrong — nothing is swallowed;
* ``sites`` names the layer boundaries the traced run wraps.

Why these three (see also ``BENCHMARK.json``): ``table1_j1`` is the
paper's own Table 1 row, dominated by SAN compile and lumping;
``sweep24`` runs the sweep engine's reuse proofs and warm-started power
iterations and bypasses compile and refinement; ``service_mix`` drives
the durable job store with a read-heavy cache-hit path next to a
write-heavy fresh-solve path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import analysis, statespace
from repro.matrixdiagram import md_stats
from repro.models import TandemParams, tandem
from repro.service import JobStore, ResultCache, ServiceWorker
from repro.service.spec import (
    canonical_digest,
    demo_spec,
    model_from_spec,
    spec_from_model,
)
from repro.sweep import auto_sites, run_sweep, sweep_points
from repro.sweep.spec import apply_point

from tracing import Site, Tracer


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return low * (high / low) ** rng.random()


@dataclass
class Iteration:
    """One timed iteration: per-item latencies and the raw outputs the
    check reads afterwards.  ``counters`` feed the traced run."""

    latencies: List[float]
    outputs: Any
    errors: List[Optional[str]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    kinds: List[str] = field(default_factory=list)


def _dir_size(root: str) -> tuple:
    """(bytes, number of job records) under a store root."""
    total = records = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
            if os.path.basename(dirpath) == "records":
                records += 1
    return total, records


# ---------------------------------------------------------------------------
# Counters read from a wrapped call's inputs and result.
# ---------------------------------------------------------------------------


def _on_reach(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.observe_max("statespace.states", result.num_states)


def _on_apply(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.observe_max(
        "matrixdiagram.md_bytes", md_stats(result.original.md).memory_bytes
    )
    tracer.observe_max(
        "matrixdiagram.lumped_md_bytes", md_stats(result.lumped.md).memory_bytes
    )
    tracer.observe_max("lumping.lumped_states", result.lumped.num_states())


def _on_steady(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("markov.iterations", result.iterations or 0)


def _on_fallback(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("markov.iterations", result.result.iterations or 0)


def _on_certify(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("robust.escalations", len(result.escalations))


def _on_cache_get(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("service.cache_gets")
    if result is not None:
        tracer.add("service.cache_hits")


_COMPILE = Site("repro.models.tandem", "compile_join", "san.compile")
_MD_BUILD = Site("repro.models.tandem", "tandem_md_model", "matrixdiagram.build")
_REFINE = Site(
    "repro.lumping.compositional", "comp_lumping_level", "lumping.refine"
)
_APPLY = Site(
    "repro.lumping.compositional", "apply_partitions", "lumping.apply", _on_apply
)
_FLATTEN = Site("repro.lumping.md_model", "flatten", "matrixdiagram.flatten")
_CERTIFY = Site(
    "repro.robust.certify", "certify_with_escalation", "robust.certify",
    _on_certify,
)
_ROBUST_SOLVE = Site(
    "repro.robust.fallback", "solve_with_fallback", "markov.solve", _on_fallback
)
# ``demo_spec`` builds its models through the package-level names.
_SETUP_REACH = Site(
    "repro.statespace", "reachable_bfs", "statespace.reach", _on_reach
)
_SETUP_MD_BUILD = Site("repro.models", "tandem_md_model", "matrixdiagram.build")
_SERVICE = [
    Site("repro.service.spec", "canonical_bytes", "service.digest"),
    Site("repro.service.store", "canonical_bytes", "service.digest"),
    Site("repro.service.cache", "canonical_bytes", "service.digest"),
    Site("repro.service.store", "JobStore.submit", "service.submit"),
    Site("repro.service.cache", "ResultCache.get", "service.cache_get",
         _on_cache_get),
    Site("repro.service.cache", "ResultCache.put", "service.cache_put"),
]


# ---------------------------------------------------------------------------
# table1_j1
# ---------------------------------------------------------------------------

#: The J=1 row of results/table1.txt: reachable states, level sizes, MD
#: nodes per level, lumped states and lumped level sizes.  Rates do not
#: change them: the symmetry that drives the lumping is structural.
TABLE1_J1 = {
    "states": 278528,
    "levels": [3, 2304, 512],
    "md_nodes": [1, 6, 4],
    "lumped_states": 3040,
    "lumped_levels": [3, 286, 35],
}

_RATE_FIELDS = (
    "msmq_dispatch_rate",
    "msmq_walk_rate",
    "msmq_service_rate",
    "hyper_dispatch_rate",
    "hyper_service_rate",
    "failure_rate",
    "repair_rate",
    "balance_rate",
    "transfer_rate",
)


@dataclass
class Table1Inputs:
    params: TandemParams
    expected: Dict[str, Any]

    def describe(self) -> dict:
        return {"params": asdict(self.params), "expected": self.expected}


class Table1:
    """The paper-scale tandem (8-server hypercube, 3x4 MSMQ) at J=1, the
    MDD chain from SAN compile to a certified direct solve.  One item is
    one row."""

    name = "table1_j1"
    item = "row"
    sites = [
        _COMPILE,
        Site("repro.statespace", "reachable_mdd", "statespace.reach", _on_reach),
        Site("repro.models.tandem", "projected_event_model", "statespace.project"),
        _MD_BUILD,
        _REFINE,
        _APPLY,
        _FLATTEN,
        Site("repro.analysis", "steady_state", "markov.solve", _on_steady),
        _CERTIFY,
    ]

    def __init__(
        self,
        structure: Optional[Dict[str, int]] = None,
        expected: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.structure = structure or {}
        self.expected = expected if expected is not None else TABLE1_J1

    def setup(self, seed: int) -> Table1Inputs:
        rng = random.Random(seed)
        defaults = TandemParams()
        # Scalar rates only, each within a factor 1.25 of its default:
        # every symmetric server keeps equal rates.
        rates = {
            name: getattr(defaults, name) * _log_uniform(rng, 0.8, 1.25)
            for name in _RATE_FIELDS
        }
        params = TandemParams(jobs=1, **self.structure, **rates)
        # Pay lazy imports and first-call costs on the smallest tandem.
        _table1_chain(
            TandemParams(
                jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2, **rates
            )
        )
        return Table1Inputs(params=params, expected=dict(self.expected))

    def run(self, inputs: Table1Inputs, scratch: str) -> Iteration:
        start = time.perf_counter()
        try:
            row, error = _table1_chain(inputs.params), None
        except Exception as exc:  # counted as a failed row, never hidden
            row, error = None, f"{type(exc).__name__}: {exc}"
        return Iteration(
            latencies=[time.perf_counter() - start],
            outputs=[row],
            errors=[error],
        )

    def check(self, inputs: Table1Inputs, iterations: List[Iteration]) -> List[str]:
        errors: List[str] = []
        first_reward = None
        for number, iteration in enumerate(iterations):
            row, error = iteration.outputs[0], iteration.errors[0]
            if error is not None:
                errors.append(f"row {number}: {error}")
                continue
            wrong = {
                key: (row[key], value)
                for key, value in inputs.expected.items()
                if row[key] != value
            }
            if wrong:
                errors.append(f"row {number}: (got, pinned) {wrong}")
            elif not row["certified"]:
                errors.append(f"row {number}: certificate did not pass")
            elif first_reward is None:
                first_reward = row["reward"]
            elif row["reward"] != first_reward:
                errors.append(
                    f"row {number}: reward {row['reward']!r} differs from "
                    f"the first row's {first_reward!r} on identical input"
                )
        return errors


def _table1_chain(params: TandemParams) -> dict:
    compiled = tandem.build_tandem(params)
    reach = statespace.reachable_mdd(compiled.event_model)
    event_model = tandem.projected_event_model(compiled, reach)
    if event_model.level_sizes() != compiled.event_model.level_sizes():
        reach = statespace.reachable_mdd(event_model)
    else:
        # Same levels, same labels: the set is the same one.
        reach.model = event_model
    model = tandem.tandem_md_model(
        event_model, params, reachable=reach, reward="unavailability"
    )
    solution = analysis.lump_and_solve(model, method="direct", certify=True)
    lumped = solution.lumped_model
    return {
        "states": int(reach.num_states),
        "levels": [int(s) for s in reach.level_sizes()],
        "md_nodes": list(md_stats(model.md).nodes_per_level),
        "lumped_states": int(lumped.num_states()),
        "lumped_levels": [int(s) for s in lumped.md.level_sizes],
        "certified": bool(solution.certificate.passed),
        "reward": solution.expected_reward(),
    }


# ---------------------------------------------------------------------------
# sweep24
# ---------------------------------------------------------------------------


@dataclass
class SweepInputs:
    spec: dict
    references: Optional[List[np.ndarray]] = None

    def describe(self) -> dict:
        return self.spec


class Sweep:
    """A 24-point service-rate sweep over the small tandem with power
    iteration, through ``run_sweep`` on a fresh store per iteration.
    One item is one point."""

    name = "sweep24"
    item = "point"
    #: Cold reference solves agree with the sweep's to this tolerance.
    atol = 1e-8
    sites = [
        _COMPILE,
        _SETUP_REACH,
        _SETUP_MD_BUILD,
        _REFINE,
        _APPLY,
        _FLATTEN,
        _ROBUST_SOLVE,
        _CERTIFY,
        *_SERVICE,
        Site("repro.sweep.engine", "canonical_digest", "service.digest"),
        Site("repro.sweep.engine", "SweepEngine.__init__", "sweep.plan"),
        Site(
            "repro.sweep.reuse", "partition_reuse_proof", "sweep.reuse_proof"
        ),
    ]

    def __init__(self, demo: str = "tandem:2,2,2,2", points: int = 24) -> None:
        self.demo = demo
        self.points = points

    def setup(self, seed: int) -> SweepInputs:
        rng = random.Random(seed)
        base = demo_spec(self.demo)
        base.setdefault("solve", {})["method"] = "power"
        sites = auto_sites(model_from_spec(base).md)
        # The site is fixed: single nodes differ up to 1.8x in sweep cost,
        # which would make the seed, not the code, set the wall time.
        # Factors: one log-uniform draw per stratum of [0.5, 2], sorted,
        # so every seed covers the range evenly and warm starts chain
        # between near neighbours.
        count = self.points
        factors = [
            0.5 * 4.0 ** ((i + rng.random()) / count) for i in range(count)
        ]
        spec = {
            "format": 1,
            "base": base,
            "sites": {name: list(nodes) for name, nodes in sites.items()},
            "grid": {name: factors for name in sites},
        }
        return SweepInputs(spec=spec)

    def run(self, inputs: SweepInputs, scratch: str) -> Iteration:
        latencies: List[float] = []
        last = [time.perf_counter()]

        def progress(outcome: Any) -> None:
            now = time.perf_counter()
            latencies.append(now - last[0])
            last[0] = now

        try:
            result = run_sweep(inputs.spec, scratch, progress=progress)
        except Exception as exc:  # every point of this sweep failed
            unfinished = self.points - len(latencies)
            latencies += [time.perf_counter() - last[0]] * max(0, unfinished)
            return Iteration(
                latencies=latencies,
                outputs=None,
                errors=[f"{type(exc).__name__}: {exc}"],
            )
        stats = result.stats
        points = max(1, stats.points)
        size_bytes, records = _dir_size(scratch)
        return Iteration(
            latencies=latencies,
            outputs=result,
            counters={
                "service.store_bytes": size_bytes,
                "service.records": records,
                "sweep.reuse_hit_ratio": stats.reuse_hits / points,
                "sweep.warm_start_ratio": stats.warm_started / points,
                "sweep.relumps": stats.relumps,
            },
        )

    def references(self, inputs: SweepInputs) -> List[np.ndarray]:
        """One cold, certified direct solve per point: an independent
        solver, no reuse, no warm start, no store."""
        if inputs.references is None:
            spec = inputs.spec
            model = model_from_spec(spec["base"])
            inputs.references = [
                np.asarray(
                    analysis.lump_and_solve(
                        apply_point(model, spec["sites"], point.factor_map()),
                        method="direct",
                        certify=True,
                    ).stationary
                )
                for point in sweep_points(spec)
            ]
        return inputs.references

    def check(self, inputs: SweepInputs, iterations: List[Iteration]) -> List[str]:
        errors: List[str] = []
        references = self.references(inputs)
        for number, iteration in enumerate(iterations):
            result = iteration.outputs
            if result is None:
                errors.extend(
                    f"sweep {number} point {i}: {iteration.errors[0]}"
                    for i in range(self.points)
                )
                continue
            stats = result.stats
            provenance = (
                stats.reuse_hits == self.points
                and stats.cache_hits == 0
                and stats.relumps == 0
            )
            for i in range(self.points):
                where = f"sweep {number} point {i}"
                if i >= len(result.outcomes):
                    errors.append(f"{where}: missing")
                    continue
                outcome = result.outcomes[i]
                if outcome.status != "done":
                    errors.append(f"{where}: {outcome.status}: {outcome.error}")
                elif not np.allclose(
                    np.asarray(outcome.stationary), references[i],
                    atol=self.atol, rtol=0.0,
                ):
                    delta = float(np.max(np.abs(
                        np.asarray(outcome.stationary) - references[i]
                    )))
                    errors.append(f"{where}: |pi - cold| = {delta:.3g}")
                elif not provenance:
                    errors.append(
                        f"{where}: provenance reuse_hits={stats.reuse_hits} "
                        f"cache_hits={stats.cache_hits} relumps={stats.relumps}"
                    )
        return errors


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------


@dataclass
class ServiceInputs:
    specs: List[dict]
    digests: List[str]
    order: List[int]
    bursts: List[int]

    def describe(self) -> dict:
        return {"digests": self.digests, "order": self.order, "bursts": self.bursts}


class ServiceMix:
    """One closed-loop client submitting a seeded shuffle of jobs in
    small bursts to an in-process store and worker, each distinct spec
    ``copies`` times.  One item is one job, timed from submit to its
    terminal record."""

    name = "service_mix"
    item = "job"
    #: Give up on a burst that makes no progress for this long.
    stall_seconds = 60.0
    sites = [
        _COMPILE,
        _SETUP_REACH,
        _SETUP_MD_BUILD,
        _REFINE,
        _APPLY,
        _FLATTEN,
        _ROBUST_SOLVE,
        _CERTIFY,
        *_SERVICE,
        # The client submits without a precomputed digest.
        Site("repro.service.store", "canonical_digest", "service.digest"),
    ]

    def __init__(
        self,
        demos: tuple = ("tandem:1,2,2,2", "tandem:2,2,2,2"),
        per_base: int = 20,
        copies: int = 3,
        max_burst: int = 4,
    ) -> None:
        self.demos = demos
        self.per_base = per_base
        self.copies = copies
        self.max_burst = max_burst

    def setup(self, seed: int) -> ServiceInputs:
        rng = random.Random(seed)
        specs: List[dict] = []
        for demo in self.demos:
            model = model_from_spec(demo_spec(demo))
            md = model.md
            nodes = sorted(
                index
                for level in range(1, md.num_levels + 1)
                if len(md.nodes_at(level)) >= 2
                for index in md.nodes_at(level)
            )
            for _ in range(self.per_base):
                sites = {"rate": [rng.choice(nodes)]}
                factor = _log_uniform(rng, 0.5, 2.0)
                specs.append(
                    spec_from_model(apply_point(model, sites, {"rate": factor}))
                )
        # The arrival pattern (when each spec recurs, how the stream is
        # cut into bursts) comes from a fixed shuffle, so that every
        # seed asks for the same amount of coalescing, polling and
        # solving; the seed draws what each spec is.
        layout = random.Random(0)
        order = [i for i in range(len(specs)) for _ in range(self.copies)]
        layout.shuffle(order)
        bursts = []
        remaining = len(order)
        while remaining:
            size = min(remaining, layout.randint(1, self.max_burst))
            bursts.append(size)
            remaining -= size
        return ServiceInputs(
            specs=specs,
            digests=[canonical_digest(spec) for spec in specs],
            order=order,
            bursts=bursts,
        )

    def run(self, inputs: ServiceInputs, scratch: str) -> Iteration:
        store = JobStore(scratch)
        cache = ResultCache(os.path.join(scratch, "cache"))
        worker = ServiceWorker(store, cache, worker_id="bench")
        latencies: List[float] = []
        job_ids: List[Optional[str]] = []
        errors: List[Optional[str]] = []
        cursor = 0
        for size in inputs.bursts:
            pending: Dict[str, tuple] = {}
            for spec_index in inputs.order[cursor:cursor + size]:
                position = len(job_ids)
                started = time.perf_counter()
                try:
                    outcome = store.submit(inputs.specs[spec_index], cache=cache)
                except Exception as exc:
                    job_ids.append(None)
                    latencies.append(time.perf_counter() - started)
                    errors.append(f"submit: {type(exc).__name__}: {exc}")
                    continue
                job_ids.append(outcome.job_id)
                latencies.append(time.perf_counter() - started)
                errors.append(None)
                if outcome.state != "done":
                    pending[outcome.job_id] = (position, started)
            cursor += size
            stalled_since = time.perf_counter()
            while pending:
                try:
                    progressed = worker.run_once()
                except Exception as exc:
                    progressed = False
                    for position, _ in pending.values():
                        errors[position] = f"worker: {type(exc).__name__}: {exc}"
                    pending.clear()
                now = time.perf_counter()
                for job_id in list(pending):
                    if store.view(job_id).terminal:
                        position, started = pending.pop(job_id)
                        latencies[position] = now - started
                if progressed:
                    stalled_since = now
                elif now - stalled_since > self.stall_seconds:
                    for position, _ in pending.values():
                        errors[position] = "stalled: never reached a terminal state"
                    pending.clear()
        finals = []
        for job_id in job_ids:
            last = store.view(job_id).last if job_id is not None else None
            finals.append(last or {})
        entries = {
            digest: cache.get(digest) for digest in sorted(set(inputs.digests))
        }
        size_bytes, records = _dir_size(scratch)
        kinds = [
            "solve" if (final.get("detail") or {}).get("source") == "solve"
            else "hit"
            for final in finals
        ]
        return Iteration(
            latencies=latencies,
            outputs={"finals": finals, "entries": entries},
            errors=errors,
            kinds=kinds,
            counters={"service.store_bytes": size_bytes, "service.records": records},
        )

    def check(
        self, inputs: ServiceInputs, iterations: List[Iteration]
    ) -> List[str]:
        errors: List[str] = []
        first_results: Dict[str, str] = {}
        for number, iteration in enumerate(iterations):
            finals = iteration.outputs["finals"]
            entries = iteration.outputs["entries"]
            solves: Dict[str, int] = {}
            for position, final in enumerate(finals):
                detail = final.get("detail") or {}
                if final.get("state") == "done" and detail.get("source") == "solve":
                    digest = inputs.digests[inputs.order[position]]
                    solves[digest] = solves.get(digest, 0) + 1
            for position, final in enumerate(finals):
                where = f"stream {number} job {position}"
                digest = inputs.digests[inputs.order[position]]
                detail = final.get("detail") or {}
                entry = entries.get(digest)
                if iteration.errors[position] is not None:
                    errors.append(f"{where}: {iteration.errors[position]}")
                elif final.get("state") != "done":
                    errors.append(f"{where}: ended {final.get('state')}: {detail}")
                elif solves.get(digest) != 1:
                    errors.append(
                        f"{where}: {solves.get(digest, 0)} solves for its digest"
                    )
                elif entry is None or detail.get("result_digest") != entry["digest"]:
                    errors.append(f"{where}: result is not its primary's entry")
                elif not (entry.get("certificate") or {}).get("passed"):
                    errors.append(f"{where}: stored certificate did not pass")
                elif first_results.setdefault(digest, entry["digest"]) != entry["digest"]:
                    errors.append(
                        f"{where}: result differs from stream 0 on identical input"
                    )
        return errors


WORKLOADS: Dict[str, Callable[[], Any]] = {
    "table1_j1": Table1,
    "sweep24": Sweep,
    "service_mix": ServiceMix,
}


def input_digest(inputs: Any) -> str:
    """The identity of a workload's generated inputs."""
    return hashlib.sha256(
        json.dumps(inputs.describe(), sort_keys=True).encode()
    ).hexdigest()
