"""Tests for the SAN modeling layer: places, activities, Join, compiler."""

import collections
import hashlib

import numpy as np
import pytest

import repro.san.semantics as semantics
from repro.errors import CompositionError, ModelError
from repro.markov import steady_state
from repro.models import TandemParams, build_tandem
from repro.models.cluster import build_cluster
from repro.models.simple import closed_tandem_join, redundant_units_join
from repro.san import Activity, Case, Join, Place, SANModel, compile_join
from repro.statespace import reachable_bfs


def _move(source, target):
    def update(marking):
        marking = dict(marking)
        marking[source] -= 1
        marking[target] += 1
        return marking

    return update


def pool_pair(name, rate, source, target, jobs=2, source_init=None):
    """A submodel moving tokens source -> target via a private buffer."""
    if source_init is None:
        source_init = jobs if source == "p" else 0
    buffer_name = f"{name}_buf"
    places = [
        Place("p", jobs, jobs),
        Place("q", jobs, 0),
        Place(buffer_name, jobs, 0),
    ]

    def grab_rate(m):
        return rate if m[source] > 0 and m[buffer_name] < jobs else 0.0

    def push_rate(m):
        return rate if m[buffer_name] > 0 and m[target] < jobs else 0.0

    return SANModel(
        name,
        places,
        [
            Activity("grab", grab_rate, [Case(1.0, _move(source, buffer_name))]),
            Activity("push", push_rate, [Case(1.0, _move(buffer_name, target))]),
        ],
    )


class TestPlaces:
    def test_bad_capacity(self):
        with pytest.raises(ModelError):
            Place("x", -1)

    def test_bad_initial(self):
        with pytest.raises(ModelError):
            Place("x", 2, 3)


class TestActivity:
    def test_needs_cases(self):
        with pytest.raises(ModelError):
            Activity("a", 1.0, [])

    def test_constant_rate(self):
        a = Activity("a", 2.5, [Case(1.0, lambda m: m)])
        assert a.rate_in({}) == 2.5

    def test_negative_rate_detected(self):
        a = Activity("a", lambda m: -1.0, [Case(1.0, lambda m: m)])
        with pytest.raises(ModelError):
            a.rate_in({})

    def test_case_probability_callable(self):
        c = Case(lambda m: m["x"] / 2.0, lambda m: m)
        assert c.probability_in({"x": 1}) == 0.5


class TestSANModel:
    def test_duplicate_place_rejected(self):
        with pytest.raises(ModelError):
            SANModel("m", [Place("x", 1), Place("x", 1)], [])

    def test_initial_marking(self):
        m = SANModel("m", [Place("x", 2, 1)], [])
        assert m.initial_marking() == {"x": 1}

    def test_check_marking_capacity(self):
        m = SANModel("m", [Place("x", 2)], [])
        assert m.check_marking({"x": 2})
        assert not m.check_marking({"x": 3})

    def test_check_marking_invariant(self):
        m = SANModel(
            "m", [Place("x", 5)], [], local_invariant=lambda lm: lm["x"] < 3
        )
        assert m.check_marking({"x": 2})
        assert not m.check_marking({"x": 4})


class TestJoin:
    def test_shared_places_detected(self):
        join = closed_tandem_join(jobs=1)
        assert sorted(join.shared_place_names()) == ["pool_a", "pool_b"]

    def test_needs_two_submodels(self):
        m = SANModel("m", [Place("x", 1)], [])
        with pytest.raises(CompositionError):
            Join([m])

    def test_no_shared_places_rejected(self):
        a = SANModel("a", [Place("x", 1)], [])
        b = SANModel("b", [Place("y", 1)], [])
        with pytest.raises(CompositionError):
            Join([a, b])

    def test_conflicting_declarations_rejected(self):
        a = SANModel("a", [Place("s", 2, 0), Place("xa", 1)], [])
        b = SANModel("b", [Place("s", 3, 0), Place("xb", 1)], [])
        with pytest.raises(CompositionError):
            Join([a, b])

    def test_submodel_needs_private_places(self):
        a = SANModel("a", [Place("s", 1)], [])
        b = SANModel("b", [Place("s", 1), Place("xb", 1)], [])
        with pytest.raises(CompositionError):
            Join([a, b])

    def test_level_structure(self):
        join = closed_tandem_join()
        assert join.num_levels == 3
        assert join.private_place_names(0) == ["stationA_q"]


class TestCompiler:
    def test_compiled_levels(self):
        compiled = compile_join(closed_tandem_join(jobs=1))
        assert compiled.level_names[0] == "shared"
        assert compiled.event_model.num_levels == 3

    def test_shared_invariant_bounds_level1(self):
        compiled = compile_join(closed_tandem_join(jobs=1))
        # pool_a + pool_b <= 1 -> 3 shared states out of 4 potential.
        assert compiled.event_model.level_sizes()[0] == 3

    def test_marking_of_state(self):
        compiled = compile_join(closed_tandem_join(jobs=1))
        model = compiled.event_model
        marking = compiled.marking_of_state(model.initial_state)
        assert marking["pool_a"] == 1
        assert marking["stationA_q"] == 0

    def test_probabilities_must_sum_to_one(self):
        jobs = 1

        def half(m):
            m = dict(m)
            return m

        a = SANModel(
            "a",
            [Place("s", jobs, jobs), Place("xa", jobs, 0)],
            [Activity("bad", 1.0, [Case(0.4, half)])],
        )
        b = SANModel("b", [Place("s", jobs, jobs), Place("xb", jobs, 0)], [])
        with pytest.raises(ModelError):
            compile_join(Join([a, b]))

    def test_local_declaration_enforced(self):
        jobs = 1

        def touch_shared(m):
            m = dict(m)
            m["s"] = max(0, m["s"] - 1)
            return m

        a = SANModel(
            "a",
            [Place("s", jobs, jobs), Place("xa", jobs, 0)],
            [
                Activity(
                    "sneaky",
                    lambda m: 1.0 if m["s"] > 0 else 0.0,
                    [Case(1.0, touch_shared)],
                    shared=False,
                )
            ],
        )
        b = SANModel("b", [Place("s", jobs, jobs), Place("xb", jobs, 0)], [])
        with pytest.raises(ModelError):
            compile_join(Join([a, b]))

    def test_closed_tandem_steady_state(self):
        # End-to-end: compile, explore, solve; utilization of the faster
        # station is lower.
        compiled = compile_join(closed_tandem_join(jobs=2, service_rate_a=1.0,
                                                   service_rate_b=4.0))
        reach = reachable_bfs(compiled.event_model)
        ctmc = reach.to_ctmc()
        pi = steady_state(ctmc).distribution
        # Mean queue length at A exceeds that at B (A is slower).
        model = compiled.event_model
        mean_a = mean_b = 0.0
        for probability, state in zip(pi, reach.states):
            marking = compiled.marking_of_state(state)
            mean_a += probability * marking["stationA_q"]
            mean_b += probability * marking["stationB_q"]
        assert mean_a > mean_b

    def test_dropped_transitions_only_from_overapproximation(self):
        # In the closed tandem every invariant is exact, so no *reachable*
        # transition is dropped: the reachable CTMC row sums stay positive.
        compiled = compile_join(closed_tandem_join(jobs=2))
        reach = reachable_bfs(compiled.event_model)
        ctmc = reach.to_ctmc()
        assert ctmc.is_irreducible()

    def test_local_declaration_rate_dependence_enforced(self):
        # Never touches the shared place, but its rate reads it, so the
        # first and last shared marking give different tables.
        def fill(m):
            m = dict(m)
            m["xa"] = 1
            return m

        a = SANModel(
            "a",
            [Place("s", 1, 1), Place("xa", 1, 0)],
            [
                Activity(
                    "peeks",
                    lambda m: 1.0 + m["s"] if m["xa"] == 0 else 0.0,
                    [Case(1.0, fill)],
                    shared=False,
                )
            ],
        )
        b = SANModel("b", [Place("s", 1, 1), Place("xb", 1, 0)], [])
        with pytest.raises(ModelError, match="depends on shared places"):
            compile_join(Join([a, b]))

    def test_every_activity_fires_once_per_marking(self, monkeypatch):
        fired = collections.Counter()
        fire = semantics._fire_activity

        def counting(activity, marking):
            fired[id(activity), tuple(sorted(marking.items()))] += 1
            return fire(activity, marking)

        monkeypatch.setattr(semantics, "_fire_activity", counting)
        compiled = build_tandem(
            TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)
        )
        assert fired and max(fired.values()) == 1
        sizes = compiled.event_model.level_sizes()
        expected = sum(
            sizes[k + 1] * sizes[0] * len(model.activities)
            for k, model in enumerate(compiled.join.submodels)
        )
        assert sum(fired.values()) == expected


def compile_digest(compiled):
    """sha256 over everything the compiler decides: level names and
    labels, the events in order (name, weight, effects in key order), the
    initial state, the dropped-transition count and the stats."""
    model = compiled.event_model
    payload = (
        compiled.level_names,
        [level.labels for level in model.levels],
        [(event.name, event.weight, event.effects) for event in model.events],
        model.initial_state,
        compiled.dropped_transitions,
        compiled.stats,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _small_tandem(jobs, **rates):
    return build_tandem(
        TandemParams(
            jobs=jobs, cube_dim=2, msmq_servers=2, msmq_queues=2, **rates
        )
    )


#: Compiled-model digests (see :func:`compile_digest`).  Any change to
#: the level spaces, the event tables, their order or the dropped count
#: shows up here; the asymmetric hypercube rates keep the per-server
#: tables distinct.
COMPILE_DIGESTS = {
    "paper_tandem_j1": (
        lambda: build_tandem(TandemParams(jobs=1)),
        "957f518c61957c2cf66ad55c95ad68b9855abf55b86247eeaefb7f1568f787e4",
    ),
    "small_tandem_j1": (
        lambda: _small_tandem(1),
        "f73ea27d101fffe900d69338e79d108c01ac918d264c8714ecb6fa5902cd460a",
    ),
    "small_tandem_j2": (
        lambda: _small_tandem(2),
        "a322378f88f471697198b09a2eb9728b7e42b93f09e8c57fa733f6e079a8ec45",
    ),
    "small_tandem_j3": (
        lambda: _small_tandem(3),
        "e76b63a4719224b09375adcfcac438df80c09b8527c9bb710b1e4adc56143002",
    ),
    "small_tandem_j2_asymmetric": (
        lambda: _small_tandem(2, hyper_service_rates=[1.0, 1.5, 2.25, 0.7]),
        "982aa6dad8f9e8fdd20d604808331e5abce4c1c0aa0fd4849d5bdca22445326f",
    ),
    "cluster_3_2": (
        lambda: compile_join(build_cluster(3, 2)),
        "748c4490c876dd6abb56db331095ed54c5ab6fb93d44ef3197aab8a03ad4aa1b",
    ),
    "closed_tandem_2": (
        lambda: compile_join(closed_tandem_join(2)),
        "5eeaa550092b6d547d4433bad2cb2c46f23d7dd044827b5ab528f578331b7930",
    ),
    "redundant_units_4_1": (
        lambda: compile_join(redundant_units_join(4, 1)),
        "6f6e8e7af1fe25c94476f0f14d25058fc5345fb272981013225bd5ccbdbb6352",
    ),
}


class TestCompileDigests:
    @pytest.mark.parametrize("case", sorted(COMPILE_DIGESTS))
    def test_compiled_model_matches_pinned_digest(self, case):
        build, expected = COMPILE_DIGESTS[case]
        assert compile_digest(build()) == expected
