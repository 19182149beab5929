"""Wall-clock timing of a block.

:func:`timed` measures one block; the Table-1 harness reads its
generation and lumping times from the run report's stage timings
(:meth:`repro.robust.report.RunReport.stage`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def timed() -> Iterator["_TimerResult"]:
    """Context manager yielding an object whose ``.seconds`` is the elapsed
    wall-clock time once the block exits.

    >>> with timed() as t:
    ...     pass
    >>> t.seconds >= 0.0
    True
    """
    result = _TimerResult()
    start = time.perf_counter()
    try:
        yield result
    finally:
        result.seconds = time.perf_counter() - start


class _TimerResult:
    """Mutable holder for the elapsed time of a :func:`timed` block."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __repr__(self) -> str:
        return f"_TimerResult(seconds={self.seconds:.6f})"
