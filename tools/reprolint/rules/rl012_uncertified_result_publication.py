"""RL012: a solve result published or consumed without certification.

The certificate layer (``repro.robust.certify``, docs/robustness.md)
only closes the wrong-answer hole if every path a stationary vector
takes into or out of the durable layer passes through it.  Two
publication surfaces exist, both in the service tree:

* **writes** — ``<cache>.put(digest, result, ...)`` stores an answer
  every future submission of the same spec will be served; an
  uncertified write here launders a wrong vector into a trusted one.
* **reads** — ``<cache>.get(...)`` serves a stored answer; a read that
  skips revalidation trusts bytes that may have been written by an
  older build, a crashed writer, or a bit flip the outer digest cannot
  see (the digest covers the bytes, not the math).

A site is compliant when the certificate demonstrably travels with the
result: the ``put`` carries a ``certificate=`` keyword, or the
enclosing function reaches (through the project call graph, <= 8
edges) one of the certification entry points —
``certify`` / ``certify_stationary`` / ``certify_with_escalation`` /
``revalidate_cached`` / ``solve_spec_certified``.  For a ``get``, the
called method itself reaching ``revalidate_cached`` (how
``ResultCache.get`` is written) also counts.

First-iteration-true contract: a ``get`` whose receiver the project
cannot resolve (a plain dict, an out-of-scope class) is opaque and
stays silent — the rule under-reports rather than guessing.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set

from reprolint import flow
from reprolint.core import FileContext, Finding, ProjectRule

#: Call names (last segment) that mean "this path certifies".
CERTIFY_NAMES = frozenset(
    {
        "certify",
        "certify_stationary",
        "certify_with_escalation",
        "revalidate_cached",
        "solve_spec_certified",
    }
)

#: Call-graph depth for the does-this-path-certify search.  Deeper than
#: RL010's blocking search (3): certification legitimately lives several
#: layers down (_solve -> solve_spec_certified -> lump_and_solve ->
#: _solve_stages -> certify_with_escalation).
REACH_DEPTH = 8


def _expr_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pathological synthetic trees
        return "<expr>"


def _cacheish(text: str) -> bool:
    return "cache" in text.lower()


def _contains_certify_call(root: ast.AST) -> bool:
    """A call named after a certification entry point anywhere under
    ``root`` (syntactic — catches imports the resolver cannot follow,
    e.g. re-exports through a lazy package ``__init__``)."""
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            seg = flow.last_name_segment(flow.call_name(node))
            if seg in CERTIFY_NAMES:
                return True
    return False


class UncertifiedResultPublication(ProjectRule):
    code = "RL012"
    name = "uncertified-result-publication"
    rationale = (
        "a stationary vector written to or served from the result cache "
        "without passing through the certificate layer (certify / "
        "certify_with_escalation on the write path, revalidate_cached "
        "on the read path) turns one wrong answer into a durable, "
        "trusted, endlessly re-served one."
    )

    def applies_to(self, path: str) -> bool:
        if not super().applies_to(path):
            return False
        return (
            "/service/" in path
            or path.startswith("service/")
            or Path(path).name == "analysis.py"
        )

    # ------------------------------------------------------------------

    def check_project(self, project) -> Iterator[Finding]:
        for info in sorted(
            project.modules.values(), key=lambda m: m.path
        ):
            if not self.applies_to(info.path):
                continue
            ctx = info.ctx
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in ("put", "get"):
                    continue
                recv = _expr_text(func.value)
                if not _cacheish(recv):
                    continue
                if func.attr == "put":
                    yield from self._check_put(ctx, info, project, node, recv)
                else:
                    yield from self._check_get(ctx, info, project, node, recv)

    # ------------------------------------------------------------------

    def _path_certifies(
        self, project, ctx: FileContext, call: ast.Call
    ) -> bool:
        """The enclosing function (or module, for top-level sites)
        reaches a certification entry point."""
        enclosing = project.enclosing_function(ctx, call)
        if enclosing is None:
            return _contains_certify_call(ctx.tree)
        if _contains_certify_call(enclosing.node):
            return True
        reached = project.reachable_functions(
            [enclosing.qname], max_depth=REACH_DEPTH
        )
        return self._any_certifies(project, reached)

    @staticmethod
    def _any_certifies(project, qnames: Set[str]) -> bool:
        for qname in qnames:
            if qname.rsplit(".", 1)[-1] in CERTIFY_NAMES:
                return True
            fn = project.functions.get(qname)
            if fn is not None and _contains_certify_call(fn.node):
                return True
        return False

    # ------------------------------------------------------------------

    def _check_put(
        self, ctx: FileContext, info, project, call: ast.Call, recv: str
    ) -> Iterator[Finding]:
        if any(kw.arg == "certificate" for kw in call.keywords):
            return
        if self._path_certifies(project, ctx, call):
            return
        yield self.finding(
            ctx,
            call,
            f"result published via {recv}.put() without certification: "
            "no certificate= argument and no certification call "
            "(certify/certify_with_escalation/solve_spec_certified) "
            "reachable from the publishing function; an uncertified "
            "wrong answer written here is served to every future reader",
        )

    def _check_get(
        self, ctx: FileContext, info, project, call: ast.Call, recv: str
    ) -> Iterator[Finding]:
        targets: List = project.resolve_call(call, info)
        if not targets:
            return  # opaque receiver (dict.get etc.): stay silent
        roots = [t.qname for t in targets]
        reached = project.reachable_functions(roots, max_depth=REACH_DEPTH)
        if self._any_certifies(project, reached):
            return
        if self._path_certifies(project, ctx, call):
            return
        yield self.finding(
            ctx,
            call,
            f"cached result consumed via {recv}.get() without "
            "revalidation: neither the get() implementation nor the "
            "consuming function reaches revalidate_cached/certify; a "
            "corrupt or stale entry would be served as-is",
        )
