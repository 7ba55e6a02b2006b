"""The per-edge Python loop of Algorithm 1 — the differential oracle.

Walks the oriented adjacency structure one edge at a time and one slice
pair at a time, feeding every column-slice access through a
:class:`~repro.core.reuse.SliceCache`.  It is faithful to the paper and
orders of magnitude slower than the batched executor
(:func:`repro.core.kernels.execute_workload`), which must match it bit
for bit: the same triangle count, every :class:`EventCounts` field, the
same cache statistics, row region and column cache.  Tests and the
engine-speedup smoke benchmark import it; no production path runs it.
"""

from __future__ import annotations

import numpy as np

from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    TCIMAccelerator,
    TCIMRunResult,
)
from repro.core.reuse import CacheStatistics, SliceCache
from repro.core.sharding import array_budget
from repro.core.slicing import SlicedMatrix, slice_statistics, valid_pair_positions
from repro.errors import ArchitectureError
from repro.graph.graph import Graph

__all__ = ["run_legacy"]


def run_legacy(graph: Graph, config: AcceleratorConfig | None = None) -> TCIMRunResult:
    """Single-array :meth:`TCIMAccelerator.run` through the per-edge loop.

    Same config validation, slice structures, row-region/column-cache
    split and result shape as the accelerator's single-array run.
    Sharded configs raise: the oracle models one array.
    """
    config = TCIMAccelerator(config).config
    if config.num_arrays != 1:
        raise ArchitectureError(
            f"the per-edge oracle runs one array, got num_arrays={config.num_arrays}"
        )
    orientation = config.orientation
    col_orientation = "lower" if orientation == "upper" else "symmetric"
    row_sliced = SlicedMatrix.from_graph(
        graph, orientation, slice_bits=config.slice_bits
    )
    col_sliced = SlicedMatrix.from_graph(
        graph, col_orientation, slice_bits=config.slice_bits
    )
    row_region, column_capacity = array_budget(
        row_sliced.row_valid_counts(), config.capacity_slices, "array"
    )
    accumulator, events, cache_stats = _legacy_loop(
        config, graph, row_sliced, col_sliced, column_capacity
    )
    return TCIMRunResult(
        triangles=accumulator if orientation == "upper" else accumulator // 6,
        events=events,
        cache_stats=cache_stats,
        slice_stats=slice_statistics(
            graph,
            slice_bits=config.slice_bits,
            orientation=orientation,
            row_sliced=row_sliced,
            col_sliced=col_sliced,
        ),
        config=config,
        row_region_slices=row_region,
        column_cache_slices=column_capacity,
    )


def _legacy_loop(
    config: AcceleratorConfig,
    graph: Graph,
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    column_capacity: int,
) -> tuple[int, EventCounts, CacheStatistics]:
    """Original per-edge Python loop — the differential-testing oracle."""
    orientation = config.orientation
    cache = SliceCache(column_capacity, policy=config.policy, seed=config.seed)
    events = EventCounts()
    accumulator = 0
    slices_per_row = row_sliced.slices_per_row
    indptr, indices = graph.csr
    for row in range(graph.num_vertices):
        neighbours = indices[indptr[row]: indptr[row + 1]]
        if orientation == "upper":
            successors = neighbours[neighbours > row]
        else:
            successors = neighbours
        if successors.size == 0:
            continue
        row_ids, row_data = row_sliced.row_slices(row)
        # The row is loaded once and overwrites the previous row
        # (Section IV-A), so each valid row slice costs one WRITE.
        events.row_slice_writes += int(row_ids.size)
        events.edges_processed += int(successors.size)
        events.dense_pair_operations += int(successors.size) * slices_per_row
        for column in successors.tolist():
            events.index_lookups += 1
            col_ids, col_data = col_sliced.row_slices(column)
            if col_ids.size == 0 or row_ids.size == 0:
                continue
            row_pos, col_pos = valid_pair_positions(row_ids, col_ids)
            if row_pos.size == 0:
                continue
            for matched in col_pos.tolist():
                cache.access((column, int(col_ids[matched])))
            conj = row_data[row_pos] & col_data[col_pos]
            accumulator += int(np.bitwise_count(conj).sum())
            events.and_operations += int(row_pos.size)
            events.bitcount_operations += int(row_pos.size)
    events.col_slice_writes = cache.stats.writes
    events.col_slice_hits = cache.stats.hits
    return accumulator, events, cache.stats
