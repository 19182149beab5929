"""RL006: unseeded randomness or ad-hoc wall-clock reads.

Determinism (for crash equivalence) and budget correctness (for
cooperative stops) each reserve a channel:

* randomness must flow through an explicitly seeded generator
  (``np.random.default_rng(seed)``, ``random.Random(seed)``) so a
  resumed run replays the killed run bit for bit;
* wall-clock time must flow through :mod:`repro.util.timing` or the
  budget clock in :mod:`repro.robust.budgets`, so that "how long did
  this take" and "when do we stop" have exactly one source of truth.

Module-level ``random.*`` calls, legacy ``np.random.*`` global-state
calls, unseeded ``default_rng()``, and raw ``time.time()`` anywhere
else all bypass those channels.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple, Type

from reprolint.core import FileContext, Finding, Rule, dotted_name

#: Files allowed to read the wall clock directly.
CLOCK_WHITELIST = (
    "src/repro/util/timing.py",
    "src/repro/robust/budgets.py",
)

#: ``np.random`` attributes that are explicit-generator construction,
#: not legacy global-state draws.
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64"})

#: ``random`` module attributes that construct an explicit instance.
_RANDOM_OK = frozenset({"Random", "SystemRandom"})


class UnseededRandomness(Rule):
    code = "RL006"
    name = "unseeded-randomness-or-wall-clock"
    rationale = (
        "unseeded RNG draws and ad-hoc time.time() reads make runs "
        "unreproducible and bypass the budget clock; route randomness "
        "through an explicit seeded Generator and time through "
        "repro.util.timing / the budget hooks."
    )
    node_types: Tuple[Type[ast.AST], ...] = (ast.Call,)

    def applies_to(self, path: str) -> bool:
        return super().applies_to(path) and path.startswith(
            ("src/", "tools/")
        )

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        if name == "time.time":
            if ctx.path not in CLOCK_WHITELIST:
                yield self.finding(
                    ctx,
                    node,
                    "raw time.time() read outside util/timing.py and the "
                    "budget clock; use repro.util.timing.timed "
                    "or the budget hooks so timing has one source of truth",
                )
            return
        if name.startswith(("np.random.", "numpy.random.")):
            attr = name.rsplit(".", 1)[-1]
            if attr not in _NP_RANDOM_OK:
                yield self.finding(
                    ctx,
                    node,
                    f"legacy global-state {name}() draw; construct an "
                    "explicit np.random.default_rng(seed) Generator so "
                    "runs (and kill/resume replays) are reproducible",
                )
            elif attr == "default_rng" and not (node.args or node.keywords):
                yield self.finding(
                    ctx,
                    node,
                    "np.random.default_rng() without a seed is entropy-"
                    "seeded and unreproducible; pass an explicit seed",
                )
            return
        if name.startswith("random."):
            attr = name.split(".", 1)[1]
            if "." not in attr and attr not in _RANDOM_OK:
                yield self.finding(
                    ctx,
                    node,
                    f"module-level {name}() uses the shared global RNG; "
                    "construct an explicit random.Random(seed) instance",
                )
