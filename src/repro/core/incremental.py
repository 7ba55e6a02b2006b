"""Incremental (streaming) updates on the vectorized fast path.

:class:`repro.core.dynamic.DynamicTriangleCounter` maintains the count
under edge insertions/deletions with pure-Python set intersections —
exact, but untouched by the ~29x batched executor.  This module routes a
*batch* of updates through :func:`repro.core.kernels.execute_workload`
itself, as a delta re-join of only the affected rows' slice pairs.

Mathematical core
-----------------
Let ``A`` be the symmetric adjacency matrix of the base graph and ``D``
the (symmetric, disjoint) adjacency matrix of the batch of new edges.
The triangles gained by ``A -> A + D`` split by how many delta edges
each new triangle uses:

* **1 delta edge** — for each delta edge ``{u, v}``, the common
  neighbours of ``u`` and ``v`` in ``A``: a join of two ``A`` rows;
* **2 delta edges** — ``tr(DAD) / 2``: for each *directed* delta edge
  ``(u, v)``, a join of ``A``'s row ``u`` against ``D``'s row ``v``;
* **3 delta edges** — ``tr(D^3) / 6``: for each delta edge ``{u, v}``,
  a join of two ``D`` rows (each all-new triangle is seen three times).

Every term is exactly the counting dataflow of the batched executor —
ANDing valid slice pairs of a "row" structure against a "column"
structure over an edge list and popcounting — so each term runs on the
vectorized engine with its own event accounting, touching only the rows
the batch references.  Deletions are the time-reversed picture: remove
the edges first, then the same three terms on the *post-deletion* graph
count the destroyed triangles.

Sharding
--------
Each term's edge list runs through
:func:`repro.core.sharding.run_position_split` across
``config.num_arrays`` simulated arrays (same partitioners, same
per-array capacity split as a full sharded run) and the per-shard
:class:`EventCounts` deltas merge — incremental updates get the same
critical-path pricing story as full sharded runs.  With
``num_arrays=1`` each term is one call into the executor.

The differential oracle remains :class:`DynamicTriangleCounter`; the
randomized op-stream suite in ``tests/test_api.py`` checks this module
against it op by op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accelerator import AcceleratorConfig, EventCounts
from repro.core.kernels import CountKernel
from repro.core.reuse import CacheStatistics
from repro.core.sharding import run_position_split
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError, GraphError
from repro.graph.graph import Graph

__all__ = [
    "DeltaOutcome",
    "StructureDelta",
    "canonical_delta_edges",
    "delta_sliced",
    "set_bit",
    "set_bits",
    "clear_bit",
    "clear_bits",
    "net_delta",
    "splice_bits",
    "splice_graph",
    "symmetric_delta",
]


@dataclass
class DeltaOutcome:
    """Result of one incremental batch join.

    ``triangles`` is the number of triangles the batch creates (for
    insertions) or destroys (for deletions) — always non-negative; the
    caller applies the sign.  ``events`` and ``cache_stats`` account the
    engine work of all three terms, merged across shards.
    """

    triangles: int
    events: EventCounts = field(default_factory=EventCounts)
    cache_stats: CacheStatistics = field(default_factory=CacheStatistics)


# ----------------------------------------------------------------------
# Delta edge handling
# ----------------------------------------------------------------------
def canonical_delta_edges(edges, num_vertices: int) -> np.ndarray:
    """Normalise a batch of undirected edges into canonical delta form.

    Returns an ``(k, 2)`` int64 array with ``u < v`` per row, self-loops
    dropped, duplicates merged, sorted lexicographically (the iteration
    order the batched executor expects).  Raises
    :class:`~repro.errors.GraphError` on out-of-range endpoints.
    """
    array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    array = array.astype(np.int64, copy=False).reshape(-1, 2)
    low, high = int(array.min()), int(array.max())
    if low < 0 or high >= num_vertices:
        raise GraphError(
            f"edge endpoint out of range [0, {num_vertices}): "
            f"saw vertex {low if low < 0 else high}"
        )
    u = np.minimum(array[:, 0], array[:, 1])
    v = np.maximum(array[:, 0], array[:, 1])
    keep = u != v
    u, v = u[keep], v[keep]
    if u.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = np.unique(u * np.int64(num_vertices) + v)
    out = np.empty((keys.size, 2), dtype=np.int64)
    out[:, 0] = keys // num_vertices
    out[:, 1] = keys % num_vertices
    return out


def delta_sliced(
    delta_edges: np.ndarray, num_vertices: int, slice_bits: int
) -> SlicedMatrix:
    """Symmetric :class:`SlicedMatrix` of a canonical delta edge batch."""
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    return SlicedMatrix.from_nonzeros(
        np.concatenate([u, v]),
        np.concatenate([v, u]),
        num_vertices,
        num_vertices,
        slice_bits=slice_bits,
    )


# ----------------------------------------------------------------------
# In-place bit maintenance of a symmetric SlicedMatrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StructureDelta:
    """Structural change report of one :func:`set_bits`/:func:`clear_bits`.

    Describes exactly how the valid-slice arrays moved, in the
    coordinates a position-holding artifact (the keys cache, a resident
    :class:`~repro.core.plan.JoinPlan`) needs to renumber itself:

    ``inserted_before``
        Sorted insertion points in *pre-insert* coordinates — the
        ``obj`` argument handed to :func:`np.insert` (duplicates mark
        several new slices landing at one point).  A pre-mutation
        position ``p`` now lives at
        ``p + searchsorted(inserted_before, p, side="right")``.
    ``removed_at``
        Sorted removed positions in *pre-delete* coordinates; a
        surviving position ``p`` now lives at
        ``p - searchsorted(removed_at, p)``.
    ``inserted_rows`` / ``removed_rows``
        Owning row of each inserted/removed slice (aligned with the
        position arrays) — the rows whose valid-slice *set* changed,
        i.e. whose join pairs must be recomputed.

    One call only ever inserts (``set_bits``) or removes
    (``clear_bits``).  :meth:`compose` joins a removal and the insertion
    that followed it into one delta: ``removed_at`` then stays in
    pre-removal coordinates and ``inserted_before`` is in post-removal
    coordinates, the order :func:`splice_bits` produces and a resident
    plan renumbers in.  :attr:`changed` is ``False`` for a payload-only
    mutation, whose positions all stay valid.
    """

    inserted_before: np.ndarray
    inserted_rows: np.ndarray
    removed_at: np.ndarray
    removed_rows: np.ndarray

    @property
    def changed(self) -> bool:
        return bool(self.inserted_before.size or self.removed_at.size)

    @classmethod
    def unchanged(cls) -> "StructureDelta":
        empty = np.empty(0, dtype=np.int64)
        return cls(empty, empty, empty, empty)

    @classmethod
    def compose(
        cls, removal: "StructureDelta", insertion: "StructureDelta"
    ) -> "StructureDelta":
        """One delta for a removal followed by an insertion.

        Only that order composes: a ``removal`` that inserted slices or
        an ``insertion`` that removed some raises
        :class:`~repro.errors.ArchitectureError`.
        """
        if removal.inserted_before.size or insertion.removed_at.size:
            raise ArchitectureError(
                "a StructureDelta composes a removal followed by an "
                "insertion, never insertions before removals"
            )
        return cls(
            inserted_before=insertion.inserted_before,
            inserted_rows=insertion.inserted_rows,
            removed_at=removal.removed_at,
            removed_rows=removal.removed_rows,
        )


def set_bits(
    sliced: SlicedMatrix, rows: np.ndarray, cols: np.ndarray
) -> StructureDelta:
    """Set many bits at once, inserting new valid slices as needed.

    One ``np.insert`` covers every structural change of the batch, so a
    k-bit update costs ``O(N_VS + k log N_VS)`` instead of the
    ``O(k * N_VS)`` a per-bit loop would pay.  Keeps the CSR-of-slices
    invariants (ascending slice ids per row, no invalid slices stored),
    so a mutated matrix is indistinguishable from one rebuilt from
    scratch — the property the equivalence tests rely on.

    Returns a :class:`StructureDelta` naming the inserted slices (empty
    for a payload-only update), and bumps
    :attr:`SlicedMatrix.structure_version` iff slices were inserted.
    """
    rows, cols, positions, exists, bytes_, masks = _locate_bits(sliced, rows, cols)
    if rows.size == 0:
        return StructureDelta.unchanged()
    # Existing slices: in-place OR.  ``.at`` handles several bits landing
    # in the same (slice, byte) cell.
    if exists.any():
        np.bitwise_or.at(
            sliced.data, (positions[exists], bytes_[exists]), masks[exists]
        )
    missing = ~exists
    if not missing.any():
        return StructureDelta.unchanged()
    # New slices: group the missing bits by global slice key, build each
    # payload, and splice them all in with one insert per array.
    spr = np.int64(sliced.slices_per_row)
    keys = rows[missing] * spr + cols[missing] // sliced.slice_bits
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    head = np.empty(keys_sorted.size, dtype=bool)
    if keys_sorted.size:
        head[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=head[1:])
    unique_keys = keys_sorted[head]
    ordinal = np.cumsum(head) - 1
    payloads = np.zeros((unique_keys.size, sliced.slice_bits // 8), dtype=np.uint8)
    np.bitwise_or.at(
        payloads, (ordinal, bytes_[missing][order]), masks[missing][order]
    )
    # A missing bit's located position is exactly where its new slice
    # belongs, so no second search over the structure is needed.
    insert_at = positions[missing][order][head]
    sliced.slice_ids = np.insert(
        sliced.slice_ids, insert_at, unique_keys % spr
    )
    sliced.data = np.insert(sliced.data, insert_at, payloads, axis=0)
    owner_rows = (unique_keys // spr).astype(np.int64)
    owner_counts = np.bincount(owner_rows, minlength=sliced.num_rows)
    sliced.indptr[1:] += np.cumsum(owner_counts)
    sliced.mark_structure_changed()
    empty = np.empty(0, dtype=np.int64)
    return StructureDelta(
        inserted_before=insert_at.astype(np.int64),
        inserted_rows=owner_rows,
        removed_at=empty,
        removed_rows=empty,
    )


def clear_bits(
    sliced: SlicedMatrix, rows: np.ndarray, cols: np.ndarray
) -> StructureDelta:
    """Clear many bits at once, dropping slices that become empty.

    Returns a :class:`StructureDelta` naming the dropped slices (empty
    when every touched slice kept at least one bit), and bumps
    :attr:`SlicedMatrix.structure_version` iff slices were dropped.
    """
    rows, cols, positions, exists, bytes_, masks = _locate_bits(sliced, rows, cols)
    if not exists.any():
        return StructureDelta.unchanged()
    np.bitwise_and.at(
        sliced.data,
        (positions[exists], bytes_[exists]),
        np.bitwise_not(masks[exists]),
    )
    touched = np.unique(positions[exists])
    emptied = touched[~sliced.data[touched].any(axis=1)]
    if emptied.size == 0:
        return StructureDelta.unchanged()
    owners = np.searchsorted(sliced.indptr, emptied, side="right") - 1
    sliced.slice_ids = np.delete(sliced.slice_ids, emptied)
    sliced.data = np.delete(sliced.data, emptied, axis=0)
    sliced.indptr[1:] -= np.cumsum(
        np.bincount(owners, minlength=sliced.num_rows)
    )
    sliced.mark_structure_changed()
    empty = np.empty(0, dtype=np.int64)
    return StructureDelta(
        inserted_before=empty,
        inserted_rows=empty,
        removed_at=emptied.astype(np.int64),
        removed_rows=owners.astype(np.int64),
    )


def splice_bits(
    sliced: SlicedMatrix,
    removals: tuple[np.ndarray, np.ndarray],
    insertions: tuple[np.ndarray, np.ndarray],
) -> StructureDelta:
    """Clear the ``(rows, cols)`` of ``removals``, then set ``insertions``.

    One :func:`clear_bits` and one :func:`set_bits` pass, reported as a
    single composed :class:`StructureDelta` — the net-delta splice a
    read applies for every write batch queued since the last one.
    """
    removal = clear_bits(sliced, *removals)
    return StructureDelta.compose(removal, set_bits(sliced, *insertions))


def set_bit(sliced: SlicedMatrix, row: int, col: int) -> StructureDelta:
    """Single-bit convenience wrapper over :func:`set_bits`."""
    return set_bits(sliced, np.array([row]), np.array([col]))


def clear_bit(sliced: SlicedMatrix, row: int, col: int) -> StructureDelta:
    """Single-bit convenience wrapper over :func:`clear_bits`."""
    return clear_bits(sliced, np.array([row]), np.array([col]))


def _locate_bits(sliced: SlicedMatrix, rows, cols):
    """Vectorized lookup of each bit's slice position.

    Returns ``(rows, cols, positions, exists, byte_index, bit_mask)``
    int64/bool/uint8 arrays; ``positions[i]`` is the index of bit ``i``'s
    slice in the valid-slice arrays when ``exists[i]``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise GraphError(
            f"rows/cols must be matching 1-D arrays, got {rows.shape} vs {cols.shape}"
        )
    if rows.size and (
        rows.min() < 0
        or rows.max() >= sliced.num_rows
        or cols.min() < 0
        or cols.max() >= sliced.num_cols
    ):
        raise GraphError(
            f"bit out of range for a ({sliced.num_rows}, {sliced.num_cols}) matrix"
        )
    slice_of = cols // sliced.slice_bits
    keys = rows * np.int64(sliced.slices_per_row) + slice_of
    if rows.size <= 64:
        # Small batches (the per-op differential mode, single-edge
        # updates) search each row's slice-id segment directly instead of
        # materialising the O(N_VS) global key array.
        positions = np.empty(rows.size, dtype=np.int64)
        exists = np.empty(rows.size, dtype=bool)
        indptr, slice_ids = sliced.indptr, sliced.slice_ids
        for i in range(rows.size):
            lo, hi = int(indptr[rows[i]]), int(indptr[rows[i] + 1])
            position = lo + int(np.searchsorted(slice_ids[lo:hi], slice_of[i]))
            positions[i] = position
            exists[i] = position < hi and int(slice_ids[position]) == slice_of[i]
    else:
        global_keys = sliced.global_keys()
        positions = np.searchsorted(global_keys, keys)
        if global_keys.size:
            clamped = np.minimum(positions, global_keys.size - 1)
            exists = global_keys[clamped] == keys
        else:
            exists = np.zeros(rows.size, dtype=bool)
    within = cols % sliced.slice_bits
    bytes_ = within // 8
    masks = (np.uint8(1) << (within % 8).astype(np.uint8)).astype(np.uint8)
    return rows, cols, positions, exists, bytes_, masks


# ----------------------------------------------------------------------
# Net deltas: many committed batches, one splice
# ----------------------------------------------------------------------
def net_delta(batches, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold queued ``(delta_edges, insert)`` batches into one net change.

    Returns canonical ``(deletions, insertions)`` edge arrays (``u < v``,
    sorted).  Every batch must hold only edges that really changed at
    its commit — the session filters no-ops — so one edge's operations
    alternate: an even count cancels, an odd count takes the sign of the
    edge's first operation.
    """
    if not batches:
        empty = np.empty((0, 2), dtype=np.int64)
        return empty, empty
    scale = np.int64(max(num_vertices, 1))
    keys = np.concatenate([edges[:, 0] * scale + edges[:, 1] for edges, _ in batches])
    inserts = np.concatenate(
        [np.full(edges.shape[0], insert) for edges, insert in batches]
    )
    unique, first, counts = np.unique(keys, return_index=True, return_counts=True)
    odd = counts % 2 == 1
    first_insert = inserts[first]

    def decode(selected: np.ndarray) -> np.ndarray:
        return np.stack([selected // scale, selected % scale], axis=1)

    return decode(unique[odd & ~first_insert]), decode(unique[odd & first_insert])


def splice_graph(
    graph: Graph, deletions: np.ndarray, insertions: np.ndarray
) -> Graph:
    """``graph`` after a net delta, spliced into its canonical arrays.

    ``deletions``/``insertions`` are canonical disjoint edge arrays (see
    :func:`net_delta`).  The sorted edge list splices by ``u*n+v`` key and
    the symmetric CSR by half-edge ``row*n+col`` key — ``searchsorted``
    plus one ``np.delete`` and one ``np.insert`` each, with ``indptr``
    moved by ``bincount`` — so the cost is a few O(|E|) array moves, not
    a re-canonicalising sort.  A deleted edge that is missing, or an
    inserted edge that is already present, raises
    :class:`~repro.errors.ArchitectureError`.
    """
    n = graph.num_vertices
    scale = np.int64(max(n, 1))
    edges = graph.edge_array()
    gone_at, fresh_at = _splice_positions(
        edges[:, 0] * scale + edges[:, 1],
        deletions[:, 0] * scale + deletions[:, 1],
        insertions[:, 0] * scale + insertions[:, 1],
    )
    # Spliced flat: 1-D moves are several times cheaper than axis=0 ones.
    flat = np.delete(
        edges.reshape(-1), (2 * gone_at[:, None] + np.arange(2)).reshape(-1)
    )
    flat = np.insert(flat, np.repeat(2 * fresh_at, 2), insertions.reshape(-1))
    # Half-edges, both directions, in CSR order (row, then column).
    indptr, indices = graph.csr
    degrees = np.diff(indptr)
    gone_rows, gone_cols = _half_edges(deletions, scale)
    fresh_rows, fresh_cols = _half_edges(insertions, scale)
    half_keys = np.repeat(np.arange(n, dtype=np.int64), degrees) * scale + indices
    gone_at, fresh_at = _splice_positions(
        half_keys, gone_rows * scale + gone_cols, fresh_rows * scale + fresh_cols
    )
    indices = np.insert(np.delete(indices, gone_at), fresh_at, fresh_cols)
    degrees = (
        degrees
        - np.bincount(gone_rows, minlength=n)
        + np.bincount(fresh_rows, minlength=n)
    )
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=new_indptr[1:])
    return Graph.from_parts(n, flat.reshape(-1, 2), new_indptr, indices)


def _half_edges(edges: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of both directions of canonical edges, key-sorted."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(rows * scale + cols)
    return rows[order], cols[order]


def _splice_positions(
    keys: np.ndarray, gone: np.ndarray, fresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``np.delete``/``np.insert`` positions of a splice into sorted ``keys``.

    ``gone`` keys must be present and ``fresh`` keys absent (both sorted);
    the insertion positions are in post-deletion coordinates.
    """
    gone_at = np.searchsorted(keys, gone)
    if gone.size and not bool(
        (gone_at < keys.size).all()
        and (keys[np.minimum(gone_at, keys.size - 1)] == gone).all()
    ):
        raise ArchitectureError(
            "net deletions name edges missing from the graph snapshot"
        )
    fresh_at = np.searchsorted(keys, fresh)
    if fresh.size and keys.size and bool(
        (keys[np.minimum(fresh_at, keys.size - 1)] == fresh).any()
    ):
        raise ArchitectureError(
            "net insertions name edges already in the graph snapshot"
        )
    return gone_at, fresh_at - np.searchsorted(gone, fresh)


# ----------------------------------------------------------------------
# The delta re-join
# ----------------------------------------------------------------------
def symmetric_delta(
    num_vertices: int,
    base_sym: SlicedMatrix,
    delta_edges: np.ndarray,
    config: AcceleratorConfig,
) -> DeltaOutcome:
    """Triangles created (or, time-reversed, destroyed) by a delta batch.

    ``base_sym`` is the symmetric slice structure of the base graph —
    *excluding* every edge in ``delta_edges`` (for insertions: the state
    before the batch; for deletions: the state after removal).
    ``delta_edges`` is canonical (see :func:`canonical_delta_edges`) and
    must be disjoint from the base edge set; overlap silently miscounts,
    so the session filters no-op edges before calling in.

    Only the vertex count is needed, not a :class:`Graph` — the planner
    and the engine consume explicit edge arrays here, so a session can
    keep applying batches without ever materialising a graph snapshot.

    The three inclusion–exclusion terms each run through
    :func:`~repro.core.sharding.run_position_split` across
    ``config.num_arrays`` simulated arrays, and the returned
    :class:`EventCounts` / cache statistics merge every term's and
    every shard's accounting.
    """
    if delta_edges.size == 0:
        return DeltaOutcome(triangles=0)
    slice_bits = config.slice_bits
    if base_sym.slice_bits != slice_bits:
        raise ArchitectureError(
            f"base structure uses {base_sym.slice_bits}-bit slices but the "
            f"config asks for {slice_bits}"
        )
    d_sym = delta_sliced(delta_edges, num_vertices, slice_bits)
    undirected_src = delta_edges[:, 0]
    undirected_dst = delta_edges[:, 1]
    # Both directions of every delta edge, in engine iteration order.
    directed_src = np.concatenate([undirected_src, undirected_dst])
    directed_dst = np.concatenate([undirected_dst, undirected_src])
    order = np.lexsort((directed_dst, directed_src))
    directed_src, directed_dst = directed_src[order], directed_dst[order]
    # (row structure, column structure, edges, divisor): the three terms of
    # the module docstring.  Divisors fold the multiplicity with which each
    # term sees a triangle back to 1.
    terms = (
        (base_sym, base_sym, undirected_src, undirected_dst, 1),
        (base_sym, d_sym, directed_src, directed_dst, 2),
        (d_sym, d_sym, undirected_src, undirected_dst, 3),
    )
    triangles = 0
    events = EventCounts()
    cache_stats = CacheStatistics()
    for row_sliced, col_sliced, sources, destinations, divisor in terms:
        accumulator, _, term_events, term_cache = run_position_split(
            CountKernel(), row_sliced, col_sliced, sources, destinations, config
        )
        events = events.merge(term_events)
        cache_stats = cache_stats.merge(term_cache)
        if accumulator % divisor:
            raise ArchitectureError(
                f"delta re-join parity violated: term accumulator "
                f"{accumulator} is not divisible by {divisor} — the delta "
                "batch overlaps the base edge set"
            )
        triangles += accumulator // divisor
    return DeltaOutcome(
        triangles=triangles, events=events, cache_stats=cache_stats
    )
