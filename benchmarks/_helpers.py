"""Shared helpers for the table/figure reproduction benchmarks.

Measured columns run on the synthetic stand-ins at each dataset's
``default_bench_scale`` (the full SNAP graphs are unavailable offline; see
DESIGN.md).  Where a quantity is scale-dependent the benchmark prints the
documented extrapolation next to the raw measurement.  Rendered tables are
also written to ``benchmarks/results/`` so the paper-vs-measured record in
EXPERIMENTS.md can be regenerated.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.api import TCIMSession, open_session
from repro.core.accelerator import TCIMRunResult
from repro.graph import datasets
from repro.graph.graph import Graph

RESULTS_DIR = Path(__file__).parent / "results"

#: Module-level caches so independent benchmarks reuse expensive work.
#: Sessions hold the compressed graph and the run result resident, so
#: one cache replaces the old separate graph/run caches.
_GRAPH_CACHE: dict[str, Graph] = {}
_SESSION_CACHE: dict[tuple[str, int, str], TCIMSession] = {}


def scale_for(key: str) -> float:
    """The benchmark scale for a dataset (see DatasetSpec)."""
    return datasets.get_dataset(key).default_bench_scale


def graph_for(key: str) -> Graph:
    """The synthetic stand-in at benchmark scale (cached)."""
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = datasets.synthesize(key, scale=scale_for(key))
    return _GRAPH_CACHE[key]


def scaled_array_bytes(key: str) -> int:
    """The 16 MB array scaled with the dataset.

    Capacity pressure is what Fig. 5 measures; shrinking the array with the
    graph preserves the paper's array-size / working-set ratio.
    """
    scaled = int(16 * 2**20 * scale_for(key))
    return max(scaled, 64 * 1024)


def session_for(
    key: str, array_bytes: int | None = None
) -> TCIMSession:
    """A resident :class:`TCIMSession` per (dataset, array size).

    The session keeps the sliced structures and the run result cached, so
    benchmarks that share a configuration share all the expensive work.
    """
    if array_bytes is None:
        array_bytes = scaled_array_bytes(key)
    cache_key = (key, array_bytes)
    if cache_key not in _SESSION_CACHE:
        _SESSION_CACHE[cache_key] = open_session(
            graph_for(key), array_bytes=array_bytes
        )
    return _SESSION_CACHE[cache_key]


def accelerator_run(key: str, array_bytes: int | None = None) -> TCIMRunResult:
    """One full TCIM accelerator run (cached via :func:`session_for`)."""
    return session_for(key, array_bytes).run()


def nonempty_rows(graph: Graph) -> int:
    """Rows of the oriented matrix with at least one non-zero (for the
    per-row overhead term of the performance model)."""
    edges = graph.edge_array()
    if edges.size == 0:
        return 0
    return int(np.unique(edges[:, 0]).size)


def scale_events(events, factor: float):
    """Extrapolate event counts to a larger graph of the same family.

    Used to estimate full-size behaviour from a measurement at benchmark
    scale: every event class grows essentially linearly with the edge
    count when the degree distribution is held fixed (valid pairs per edge
    stay put), so the extrapolation multiplies all counters by the
    published-to-measured edge ratio.
    """
    from repro.core.accelerator import EventCounts

    scaled = EventCounts()
    scaled.row_slice_writes = round(events.row_slice_writes * factor)
    scaled.col_slice_writes = round(events.col_slice_writes * factor)
    scaled.col_slice_hits = round(events.col_slice_hits * factor)
    scaled.and_operations = round(events.and_operations * factor)
    scaled.bitcount_operations = round(events.bitcount_operations * factor)
    scaled.index_lookups = round(events.index_lookups * factor)
    scaled.edges_processed = round(events.edges_processed * factor)
    scaled.dense_pair_operations = round(events.dense_pair_operations * factor)
    return scaled


def emit_table(name: str, table_or_text) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    text = (
        table_or_text.render()
        if hasattr(table_or_text, "render")
        else str(table_or_text)
    )
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def wall_clock(fn, *args, **kwargs) -> tuple[float, object]:
    """Single-shot wall-clock measurement returning (seconds, result)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result
