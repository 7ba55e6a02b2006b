"""Vectorized batch join and popcount primitives of the TCIM dataflow.

The per-edge loop of :mod:`repro.core.oracle` walks the oriented
adjacency structure one edge at a time and one slice pair at a time in
pure Python — faithful to Algorithm 1, but minutes-to-hours away from the
paper's Table II graphs (wiki-Talk has ~5M edges, cit-Patents ~16.5M).
This module holds the pieces that execute the *same* dataflow in bulk
(driven by :func:`repro.core.kernels.execute_workload`):

1. the oriented edge list is processed in row-batches sized by candidate
   slice-pair count, not one edge at a time;
2. valid slice pairs are merge-joined for a whole batch with a single
   :func:`np.searchsorted` over one side's globally sorted
   ``row * slices_per_row + slice_id`` keys
   (:meth:`SlicedMatrix.global_keys`); the join probes whichever side
   (row structure or column structure) fans out fewer candidate slices;
3. all matched payloads of the batch are gathered and ANDed at once
   through 64-bit word views of the slice payloads
   (:func:`repro.graph.bitops.word_view`), accumulating triangles with
   one word-level popcount per batch into preallocated scratch buffers;
4. the column-slice access trace is emitted as an integer key array and
   classified by :func:`repro.core.reuse.simulate_key_trace`, whose
   eviction-free prefix is vectorized.

The batched executor is **bit-identical** to the oracle loop: the same
triangle count, the same :class:`EventCounts` field by field, and the
same cache statistics.  The emitted key trace preserves the oracle's
access order — rows ascending, successors ascending within a row, slice
ids ascending within an edge; slice ids of a matched pair ascend
regardless of which side is probed, so the join direction never changes
the trace.  The differential test-suite in ``tests/test_engine.py``
asserts all of this across generators, orientations, slice widths and
capacity-starved caches.

Resident join plans (:mod:`repro.core.plan`) capture steps 1–2 once per
session generation, so a planned run goes straight to gather → AND →
popcount over the plan's matched position arrays — the repeat-query
fast path the serving tier leans on.  ``tests/test_plan.py`` holds the
planned path's differential suite.
"""

from __future__ import annotations

import numpy as np

from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph import bitops
from repro.graph.graph import Graph

__all__ = [
    "join_batches",
    "pair_popcount",
    "pair_popcounts",
    "oriented_edges",
    "DEFAULT_BATCH_CANDIDATES",
]

#: Candidate slice pairs examined per batch.  Bounds peak memory of the
#: expanded join arrays (several int64 temporaries per candidate, so a few
#: hundred MB worst case) while amortising every numpy call.
DEFAULT_BATCH_CANDIDATES = 1 << 21

#: Largest ``num_rows * slices_per_row`` key space for which the join uses
#: a dense position table (one int32 per slice position, 64 MB at the
#: cap) instead of per-candidate binary search.  O(1) probes beat
#: ``searchsorted``'s log factor by ~10x where the table fits.
DENSE_LOOKUP_MAX_KEYS = 1 << 24

#: Payload lanes (words or bytes) ANDed per conjunction chunk; bounds the
#: scratch buffers of :func:`pair_popcount` to a few tens of MB.
CONJUNCTION_CHUNK_LANES = 1 << 21


def oriented_edges(graph: Graph, orientation: str) -> tuple[np.ndarray, np.ndarray]:
    """``(sources, destinations)`` of the oriented matrix, in the oracle
    loop's iteration order (rows ascending, successors ascending within a row).

    ``"upper"`` yields each undirected edge once as ``u -> v`` with
    ``u < v``; ``"symmetric"`` yields both directions.
    """
    if orientation not in ("upper", "symmetric"):
        raise ArchitectureError(
            f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
        )
    if orientation == "upper":
        edges = graph.edge_array()
        return edges[:, 0], edges[:, 1]
    indptr, indices = graph.csr
    sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(indptr)
    )
    return sources, indices


class _Workspace:
    """Reusable gather/AND/popcount buffers for one engine invocation.

    ``pair_popcount`` chunks its position arrays and re-gathers into
    these buffers with ``np.take(..., out=...)`` instead of allocating
    fresh temporaries per chunk — at millions of matched pairs per query
    the allocator traffic is a measurable slice of the planned fast
    path.
    """

    __slots__ = ("left", "right", "counts")

    def __init__(self) -> None:
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.counts: np.ndarray | None = None

    def buffers(
        self, rows: int, lanes: int, dtype: np.dtype
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        left = self.left
        if (
            left is None
            or left.shape[0] < rows
            or left.shape[1] != lanes
            or left.dtype != dtype
        ):
            self.left = np.empty((rows, lanes), dtype=dtype)
            self.right = np.empty((rows, lanes), dtype=dtype)
            self.counts = np.empty((rows, lanes), dtype=np.uint8)
        return self.left, self.right, self.counts


def pair_popcount(
    row_data: np.ndarray,
    col_data: np.ndarray,
    row_positions: np.ndarray,
    col_positions: np.ndarray,
    workspace: _Workspace | None = None,
) -> int:
    """Gather → AND → popcount over matched slice-pair positions.

    The computational-array step of the dataflow for an arbitrary list
    of matched pairs: ``sum(popcount(row_data[r] & col_data[c]))`` over
    ``zip(row_positions, col_positions)``.  Payloads are processed as
    64-bit words (:func:`repro.graph.bitops.word_view`) whenever the
    slice width is a multiple of 64 bits — 8x fewer lanes than per-byte
    counting — and per-byte otherwise; both give identical sums.
    """
    total_pairs = int(row_positions.size)
    if total_pairs == 0:
        return 0
    wide_row = bitops.word_view(row_data)
    wide_col = bitops.word_view(col_data)
    if wide_row is not None and wide_col is not None:
        row_data, col_data = wide_row, wide_col
    lanes = row_data.shape[1]
    if lanes == 0:
        return 0
    if workspace is None:
        workspace = _Workspace()
    chunk_rows = max(1, CONJUNCTION_CHUNK_LANES // lanes)
    left, right, counts = workspace.buffers(
        min(chunk_rows, total_pairs), lanes, row_data.dtype
    )
    accumulator = 0
    for start in range(0, total_pairs, chunk_rows):
        stop = min(start + chunk_rows, total_pairs)
        n = stop - start
        a = left[:n]
        b = right[:n]
        c = counts[:n]
        np.take(row_data, row_positions[start:stop], axis=0, out=a)
        np.take(col_data, col_positions[start:stop], axis=0, out=b)
        np.bitwise_and(a, b, out=a)
        np.bitwise_count(a, out=c)
        accumulator += int(c.sum())
    return accumulator


def pair_popcounts(
    row_data: np.ndarray,
    col_data: np.ndarray,
    row_positions: np.ndarray,
    col_positions: np.ndarray,
    workspace: _Workspace | None = None,
) -> np.ndarray:
    """Per-pair gather → AND → popcount: one int64 count per matched pair.

    The vector-valued sibling of :func:`pair_popcount`: instead of
    accumulating one scalar over the whole position list, it returns
    ``popcount(row_data[r] & col_data[c])`` for every pair — the quantity
    the per-edge and per-vertex workload kernels
    (:mod:`repro.core.kernels`) reduce over edge runs.  Summing the
    result equals :func:`pair_popcount` exactly; both walk the same
    chunked word-view gather.
    """
    total_pairs = int(row_positions.size)
    result = np.zeros(total_pairs, dtype=np.int64)
    if total_pairs == 0:
        return result
    wide_row = bitops.word_view(row_data)
    wide_col = bitops.word_view(col_data)
    if wide_row is not None and wide_col is not None:
        row_data, col_data = wide_row, wide_col
    lanes = row_data.shape[1]
    if lanes == 0:
        return result
    if workspace is None:
        workspace = _Workspace()
    chunk_rows = max(1, CONJUNCTION_CHUNK_LANES // lanes)
    left, right, counts = workspace.buffers(
        min(chunk_rows, total_pairs), lanes, row_data.dtype
    )
    for start in range(0, total_pairs, chunk_rows):
        stop = min(start + chunk_rows, total_pairs)
        n = stop - start
        a = left[:n]
        b = right[:n]
        c = counts[:n]
        np.take(row_data, row_positions[start:stop], axis=0, out=a)
        np.take(col_data, col_positions[start:stop], axis=0, out=b)
        np.bitwise_and(a, b, out=a)
        np.bitwise_count(a, out=c)
        c.sum(axis=1, dtype=np.int64, out=result[start:stop])
    return result


def join_batches(
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    batch_candidates: int = DEFAULT_BATCH_CANDIDATES,
    with_edge_ids: bool = False,
):
    """Merge-join the valid slice pairs of an oriented edge list, batched.

    Yields ``(row_positions, col_positions, edge_ids)`` per batch:
    positions of each matched pair in ``row_sliced.data`` /
    ``col_sliced.data``, in the oracle iteration order (edges in input
    order, slice ids ascending within an edge).  ``edge_ids`` (the index
    into ``sources`` of each match's edge) is only materialised when
    ``with_edge_ids`` — the plan compiler needs it, the executor does
    not.

    This is the shared join of the batched executor and the
    :mod:`repro.core.plan` compiler; keeping it in one place is what
    makes the planned fast path structurally incapable of joining
    differently from the plan-free one.
    """
    if batch_candidates < 1:
        batch_candidates = 1
    num_edges = int(sources.size)
    slices_per_row = row_sliced.slices_per_row
    row_starts, row_counts = row_sliced.row_slice_ranges(sources)
    col_starts, col_counts = col_sliced.row_slice_ranges(destinations)
    # A valid pair needs both sides valid, so either side can be probed
    # against the other's sorted global keys; probe the one that expands
    # into fewer candidates.  The matched slice ids — and with them the
    # cache trace order — are identical either way.
    probe_rows = int(row_counts.sum()) <= int(col_counts.sum())
    if probe_rows:
        probe_starts, probe_counts = row_starts, row_counts
        probe_ids, probe_owner = row_sliced.slice_ids, destinations
        build = col_sliced
    else:
        probe_starts, probe_counts = col_starts, col_counts
        probe_ids, probe_owner = col_sliced.slice_ids, sources
        build = row_sliced
    # Global keys fit int32 whenever the slice-position space does; the
    # narrower dtype halves the memory the batch binary searches touch.
    key_space = build.num_rows * slices_per_row
    key_dtype = np.int32 if key_space <= np.iinfo(np.int32).max else np.int64
    spr_key = key_dtype(slices_per_row)
    build_keys = build.global_keys().astype(key_dtype, copy=False)
    position_table = None
    # The dense table costs one O(key_space) fill up front; only pay it
    # when the probe volume amortises it (full runs always do, the tiny
    # delta re-joins of the incremental path almost never do — they fall
    # back to binary search over the build side's sorted keys).
    total_candidates = int(probe_counts.sum())
    if 0 < key_space <= DENSE_LOOKUP_MAX_KEYS and total_candidates >= key_space // 16:
        position_table = np.full(key_space, -1, dtype=np.int32)
        position_table[build_keys] = np.arange(build_keys.size, dtype=np.int32)
    bounds = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(probe_counts, out=bounds[1:])
    start = 0
    while start < num_edges:
        stop = int(
            np.searchsorted(bounds, bounds[start] + batch_candidates, side="right")
        ) - 1
        stop = min(max(stop, start + 1), num_edges)
        total = int(bounds[stop] - bounds[start])
        if total == 0:
            start = stop
            continue
        # Expand the batch: one entry per (edge, probe slice) candidate.
        # Candidate t of edge e sits at probe position start_e + offset_t;
        # a single repeat of the per-edge delta turns the flat arange into
        # all probe positions at once.
        counts = probe_counts[start:stop]
        delta = probe_starts[start:stop] - (bounds[start:stop] - bounds[start])
        probe_positions = np.arange(total, dtype=np.int64) + np.repeat(delta, counts)
        slice_ids = probe_ids[probe_positions].astype(key_dtype, copy=False)
        owners = np.repeat(
            probe_owner[start:stop].astype(key_dtype, copy=False), counts
        )
        targets = owners * spr_key + slice_ids
        if position_table is not None:
            build_positions = position_table[targets]
            matched = build_positions >= 0
        elif build_keys.size:
            build_positions = np.searchsorted(build_keys, targets)
            build_positions = np.minimum(build_positions, build_keys.size - 1)
            matched = build_keys[build_positions] == targets
        else:
            matched = np.zeros(total, dtype=bool)
        if matched.any():
            probe_hit = probe_positions[matched]
            build_hit = build_positions[matched]
            edge_ids = None
            if with_edge_ids:
                edge_ids = np.repeat(
                    np.arange(start, stop, dtype=np.int64), counts
                )[matched]
            if probe_rows:
                yield probe_hit, build_hit, edge_ids
            else:
                yield build_hit, probe_hit, edge_ids
        start = stop


def _base_events(num_edges: int, slices_per_row: int, row_writes: int) -> dict:
    """The per-edge event fields every execution path shares."""
    return {
        "row_slice_writes": row_writes,
        "edges_processed": num_edges,
        "index_lookups": num_edges,
        "dense_pair_operations": num_edges * slices_per_row,
    }
