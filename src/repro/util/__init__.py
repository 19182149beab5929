"""Small shared utilities: timing, byte accounting, and table rendering."""

from repro.util.timing import timed
from repro.util.tables import Table, format_bytes, format_seconds
from repro.util.numeric import (
    close,
    quantize,
    mixed_radix_index,
    mixed_radix_unindex,
)

__all__ = [
    "timed",
    "Table",
    "format_bytes",
    "format_seconds",
    "close",
    "quantize",
    "mixed_radix_index",
    "mixed_radix_unindex",
]
