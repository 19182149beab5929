"""In-memory span recorder for the benchmark's traced runs.

The program under test carries no tracing of its own, so the benchmark
wraps the public functions at each layer boundary from the outside.  A
wrapper is installed where the *caller* looks the name up: a function
imported with ``from x import f`` is a separate binding in the importing
module, and patching ``x.f`` alone would leave that call untraced.

A span is ``[name, start, end, parent]`` (``parent`` is the index of the
enclosing span, or -1).  Spans stay in memory and are written once, at
the end of the run.  Every installed wrapper counts its calls; a site
that never fired means the wrapper sits where nobody looks, and its
layer would silently read zero, so the run reports it as a failure.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``on_result(tracer, args, kwargs, result)`` — turns a call's inputs
#: and return value into counters, after its span has closed.
OnResult = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Site:
    """One wrapped lookup: ``module.attr`` (``attr`` may be
    ``Class.method``) recorded as span ``span``."""

    module: str
    attr: str
    span: str
    on_result: Optional[OnResult] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """Records spans and counters while its sites are installed."""

    def __init__(self, sites: Sequence[Site]) -> None:
        self.sites = list(sites)
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.fired: Dict[str, int] = {site.key: 0 for site in self.sites}
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- counters ------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def observe_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0.0), float(value))

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for site in self.sites:
            owner = importlib.import_module(site.module)
            *path, leaf = site.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # Read the raw attribute so a plain function defined on a
            # class is re-bound as a method after patching.
            original = (
                owner.__dict__[leaf] if isinstance(owner, type)
                else getattr(owner, leaf)
            )
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, site))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable[..., Any], site: Site) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        fired = self.fired
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([site.span, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
                fired[site.key] += 1
            if site.on_result is not None:
                site.on_result(self, args, kwargs, result)
            return result

        return wrapper

    def silent_sites(self) -> List[str]:
        """Installed sites that never fired."""
        return sorted(key for key, count in self.fired.items() if count == 0)


def self_times(
    spans: Sequence[list], windows: Sequence[Tuple[float, float]]
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Per-name self time and call count of the spans that start inside
    one of ``windows``, plus the time their top-level spans cover.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """

    def inside(start: float) -> bool:
        return any(lo <= start <= hi for lo, hi in windows)

    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    selfs: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    covered = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        if not inside(start):
            continue
        selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time[index]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            covered += end - start
    return selfs, calls, covered
