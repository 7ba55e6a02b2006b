"""Sharded multi-array execution (paper Fig. 4 bank organisation).

The TCIM chip is not one monolithic array: Fig. 4 organises it as banks of
mats of sub-arrays — 128 sub-arrays in the paper's configuration — each
with its own row buffer and local bit counter.  The analytic layer
(:mod:`repro.arch.pipeline`) has always *priced* that parallelism by
Amdahl-scaling a single-array run; this module makes the functional
simulator actually execute it.

Every shard is a :class:`ShardContext`: a row structure plus one or more
**lanes**, each an edge list joined against a column structure with its
own compiled :class:`~repro.core.plan.JoinPlan`.  One executor runs them
all (:func:`execute_contexts` per call, :class:`ContextPool` resident):
each shard reserves a private row region sized to the rows it touches
out of its equal share of the array capacity, runs the vectorized
kernel over its lanes with a private column-slice cache, and the
per-shard results merge — the triangle accumulator and the additive
:class:`~repro.core.accelerator.EventCounts` sum exactly, cache
statistics merge element-wise, and the per-shard breakdown is kept so
the architecture model can price the *measured* critical path (slowest
shard) instead of a uniform analytic scaling.

Partitioning strategy matters as much as unit count — real-PIM follow-up
work (Asquini et al.) shows per-bank load balance dominates multi-array
triangle-counting performance — so four partitioners are provided.
Three split *positions* of one shared oriented edge list
(:func:`plan_shards` → :class:`ShardPlan`):

* ``"edges"`` — contiguous edge ranges, the cheapest split (a row's edges
  may straddle a boundary, costing duplicate row-slice loads);
* ``"rows"`` — row round-robin (``row % num_arrays``), keeping each row's
  edges on one array;
* ``"degree"`` — greedy longest-processing-time assignment of whole rows
  by successor count, balancing expected AND work across arrays.

:func:`build_position_contexts` turns such a plan into single-lane
contexts that *reference* the caller's global row and column structures
(the lane holds the shard's edge subset and its
:meth:`~repro.core.plan.JoinPlan.subset`), so every shard still reads the
same slice structures and the orchestrator merges partial results
afterwards.  The **coloring** partitioner (PIM-TC; Asquini et al.,
"Accelerating Triangle Counting with Real Processing-in-Memory Systems")
instead makes each shard *self-contained*: ``C`` vertex colors induce
``Binom(C+2, 3)`` shards, one per color triple ``{x <= y <= z}``, and
each shard owns its own oriented edge arrays, its own locally built
:class:`SlicedMatrix` structures and its own compiled join plans.  Every
triangle's vertex-color multiset names exactly one shard, so the
per-shard counts sum to the exact total with **zero cross-shard slice
traffic**: a process (or, later, a host) can own a context outright and
answer repeat queries without ever touching shared state.  See
:func:`build_shard_contexts` for the construction and the lane
decomposition that keeps monochromatic triples exact.

Invariants (asserted by ``tests/test_sharding.py``,
``tests/test_position_golden.py`` and ``tests/test_coloring.py``):
``num_arrays=1`` reproduces the single-array vectorized engine bit for
bit; for any ``num_arrays`` the merged triangle count is exact; position
partitioners conserve the additive event counters (``edges_processed``,
``and_operations``, ``dense_pair_operations``, ...) against their
single-array totals, while coloring replicates each edge into ``C``
contexts (the PIM-TC trade: ``C×`` the edge volume buys zero
communication) and conserves the merged counters against the field-wise
sum of its shards.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import oriented_edges
from repro.core.reuse import CacheStatistics
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph.graph import Graph

__all__ = [
    "PARTITIONERS",
    "POSITION_PARTITIONERS",
    "ContextPool",
    "ShardContext",
    "ShardLane",
    "ShardPlan",
    "ShardResult",
    "ShardedOutcome",
    "array_budget",
    "assign_colors",
    "build_position_contexts",
    "build_shard_contexts",
    "color_triples",
    "context_balance",
    "execute_contexts",
    "min_colors",
    "num_color_shards",
    "plan_shards",
    "run_position_split",
]

#: Partitioners that split positions of one shared oriented edge list
#: (the only values :func:`plan_shards` accepts).
POSITION_PARTITIONERS = ("edges", "rows", "degree")

#: Recognised values of ``AcceleratorConfig.shard_by``: the position
#: partitioners plus ``"coloring"``, which builds self-contained
#: :class:`ShardContext` shards instead of a :class:`ShardPlan`.
PARTITIONERS = POSITION_PARTITIONERS + ("coloring",)


@dataclass(frozen=True, eq=False)
class ShardPlan:
    """Assignment of every oriented-edge position to one simulated array.

    ``assignments[s]`` holds the positions (indices into the oriented
    edge arrays) owned by shard ``s``, ascending — so each shard walks its
    edges in the legacy iteration order and its private cache trace stays
    deterministic.  Shards may be empty (more arrays than edges).

    ``orientation`` records which oriented edge list the positions index
    into; :func:`build_position_contexts` rejects a plan built for a
    different orientation or a different edge count (the position spaces
    differ, so reusing one silently selects the wrong edges).

    ``eq=False``: ndarray fields make the generated ``__eq__`` ambiguous,
    so plans compare (and hash) by identity.
    """

    num_arrays: int
    shard_by: str
    assignments: tuple[np.ndarray, ...]
    orientation: str = "upper"

    def __post_init__(self) -> None:
        if self.num_arrays < 1:
            raise ArchitectureError(
                f"num_arrays must be >= 1, got {self.num_arrays}"
            )
        if self.shard_by not in POSITION_PARTITIONERS:
            raise ArchitectureError(
                f"a ShardPlan splits positions of a shared edge list, so "
                f"shard_by must be one of {POSITION_PARTITIONERS}, got "
                f"{self.shard_by!r} (coloring builds ShardContexts instead "
                "— see build_shard_contexts)"
            )
        if len(self.assignments) != self.num_arrays:
            raise ArchitectureError(
                f"plan has {len(self.assignments)} shards for "
                f"{self.num_arrays} arrays"
            )

    @property
    def num_edges(self) -> int:
        """Total edges across all shards."""
        return sum(int(positions.size) for positions in self.assignments)

    def edges_per_shard(self) -> list[int]:
        """Edge count of each shard (load-balance diagnostic)."""
        return [int(positions.size) for positions in self.assignments]


@dataclass
class ShardResult:
    """Outcome of one simulated array's run over its shard."""

    shard_id: int
    edges: int
    rows: int
    accumulator: int
    events: "EventCounts"  # noqa: F821 - imported lazily to avoid a cycle
    cache_stats: CacheStatistics
    row_region_slices: int
    column_cache_slices: int


@dataclass
class ShardedOutcome:
    """Merged result of a sharded execution plus the per-shard breakdown."""

    accumulator: int
    events: "EventCounts"  # noqa: F821
    cache_stats: CacheStatistics
    shards: list[ShardResult] = field(default_factory=list)


def _partition_edges(sources: np.ndarray, num_arrays: int) -> list[np.ndarray]:
    """Contiguous edge ranges of near-equal size."""
    return list(np.array_split(np.arange(sources.size, dtype=np.int64), num_arrays))

def _partition_rows(sources: np.ndarray, num_arrays: int) -> list[np.ndarray]:
    """Row round-robin: shard ``row % num_arrays`` owns all of a row's edges."""
    shard_of = sources % num_arrays
    positions = np.arange(sources.size, dtype=np.int64)
    return [positions[shard_of == s] for s in range(num_arrays)]

def _partition_degree(sources: np.ndarray, num_arrays: int) -> list[np.ndarray]:
    """Greedy LPT over whole rows, weighted by oriented out-degree.

    Rows are assigned heaviest-first to the currently lightest shard —
    the classic longest-processing-time heuristic, deterministic via
    stable sorting.  Out-degree (successor count) is proportional to the
    candidate slice-pair work a row generates, so this balances expected
    AND operations, not just edge counts.
    """
    if sources.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return [empty.copy() for _ in range(num_arrays)]
    import heapq

    rows, counts = np.unique(sources, return_counts=True)
    order = np.argsort(counts, kind="stable")[::-1]
    shard_of_row = np.empty(rows.size, dtype=np.int64)
    heap = [(0, s) for s in range(num_arrays)]
    for r in order.tolist():
        load, target = heapq.heappop(heap)
        shard_of_row[r] = target
        heapq.heappush(heap, (load + int(counts[r]), target))
    # Edge positions are sorted by row, so mapping each edge to its row's
    # shard and selecting per shard preserves ascending position order.
    row_index = np.searchsorted(rows, sources)
    shard_of = shard_of_row[row_index]
    positions = np.arange(sources.size, dtype=np.int64)
    return [positions[shard_of == s] for s in range(num_arrays)]


_PARTITIONER_FUNCS = {
    "edges": _partition_edges,
    "rows": _partition_rows,
    "degree": _partition_degree,
}


def plan_shards(
    graph: Graph | None,
    orientation: str,
    num_arrays: int,
    shard_by: str = "edges",
    sources: np.ndarray | None = None,
) -> ShardPlan:
    """Split the oriented edge list of ``graph`` across ``num_arrays``.

    ``sources`` optionally passes the already-materialised oriented
    source array (``oriented_edges(graph, orientation)[0]``) so callers
    that hold it anyway skip a second O(m) expansion — with it given,
    ``graph`` is never touched and may be ``None`` (the incremental
    engine plans shards over delta edge lists without a graph snapshot).
    """
    if num_arrays < 1:
        raise ArchitectureError(f"num_arrays must be >= 1, got {num_arrays}")
    if shard_by == "coloring":
        raise ArchitectureError(
            "the coloring partitioner builds self-contained ShardContexts, "
            "not position assignments; use build_shard_contexts"
        )
    if shard_by not in POSITION_PARTITIONERS:
        raise ArchitectureError(
            f"shard_by must be one of {POSITION_PARTITIONERS}, got {shard_by!r}"
        )
    if sources is None:
        if graph is None:
            raise ArchitectureError(
                "plan_shards needs a graph when sources is not provided"
            )
        sources, _ = oriented_edges(graph, orientation)
    assignments = _PARTITIONER_FUNCS[shard_by](sources, num_arrays)
    return ShardPlan(
        num_arrays=num_arrays,
        shard_by=shard_by,
        assignments=tuple(assignments),
        orientation=orientation,
    )


# ----------------------------------------------------------------------
# Vertex-coloring partitioner: self-contained shard contexts
# ----------------------------------------------------------------------
#
# PIM-TC's insight for hardware with expensive inter-core communication:
# color the vertices with C colors and give each of the Binom(C+2, 3)
# color triples {x <= y <= z} its own processing unit.  A triangle's
# three vertex colors form a multiset that names exactly one triple, and
# all three of its edges have color pairs contained in that triple — so
# a shard holding every edge whose color pair is a sub-multiset of its
# triple can count all of its triangles *locally*.  Each edge lands in
# exactly C shards (one per choice of third color), which is the whole
# communication bill: C× edge replication up front, zero slice traffic
# at query time.
#
# Counting *exactly* the triangles of the shard's multiset needs one
# refinement: the edges induced by a triple T also close triangles whose
# multiset is a strict sub-multiset pattern of T (e.g. an {a,a,a}
# triangle lies inside every {a,a,x} shard's edge set).  Each context
# therefore splits its work into **lanes**, one per distinct witness
# color r in T: the lane's pivot edges are those whose color pair equals
# the multiset T ∖ {r}, joined against a column structure holding only
# third-vertices of color r.  Removing an element from a multiset is
# injective, so a triangle with multiset exactly T is counted by exactly
# one lane of exactly one shard — and by none elsewhere.  A shard has 3
# lanes when its triple's colors are distinct, 2 when two coincide, and
# 1 when monochromatic; C=1 degenerates to one shard with one unmasked
# lane, bit-identical to the unsharded engine.


def num_color_shards(colors: int) -> int:
    """Shards induced by ``colors`` vertex colors: ``Binom(colors+2, 3)``."""
    if colors < 1:
        raise ArchitectureError(f"colors must be >= 1, got {colors}")
    return colors * (colors + 1) * (colors + 2) // 6


def min_colors(num_arrays: int) -> int:
    """Smallest color count whose shard count covers ``num_arrays``.

    ``--shard-by=coloring`` asks for at least ``num_arrays`` independent
    units; the triple construction quantises that to the next
    ``Binom(C+2, 3)``: 1 → 1 (C=1), 4 → 4 (C=2), 16 → 20 (C=4),
    32 → 35 (C=5).
    """
    if num_arrays < 1:
        raise ArchitectureError(f"num_arrays must be >= 1, got {num_arrays}")
    colors = 1
    while num_color_shards(colors) < num_arrays:
        colors += 1
    return colors


def color_triples(colors: int) -> list[tuple[int, int, int]]:
    """All color multisets ``{x <= y <= z}``, lexicographic — shard ids."""
    if colors < 1:
        raise ArchitectureError(f"colors must be >= 1, got {colors}")
    return [
        (x, y, z)
        for x in range(colors)
        for y in range(x, colors)
        for z in range(y, colors)
    ]


def assign_colors(
    num_vertices: int, colors: int, seed: int = 0
) -> np.ndarray:
    """Deterministic seeded vertex coloring (splitmix64 finalizer).

    Hash-based rather than ``vertex % colors`` so that structured vertex
    orderings (BFS, degree sort, file order) cannot correlate with the
    color classes and skew the shard sizes; the same ``(num_vertices,
    colors, seed)`` always produces the same coloring, which is what
    lets a session rebuild identical contexts from a snapshot.
    """
    if num_vertices < 0:
        raise ArchitectureError(f"num_vertices must be >= 0, got {num_vertices}")
    if colors < 1:
        raise ArchitectureError(f"colors must be >= 1, got {colors}")
    x = np.arange(num_vertices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x += np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x % np.uint64(colors)).astype(np.int64)


def _triple_lanes(triple: tuple[int, int, int]) -> list[tuple[int, tuple[int, int]]]:
    """The distinct ``(witness_color, pivot_pair)`` lanes of one triple.

    Removing one element from the multiset is injective, so distinct
    witness colors give distinct pivot pairs and each edge color pair
    contained in the triple matches exactly one lane.
    """
    lanes: list[tuple[int, tuple[int, int]]] = []
    for witness in dict.fromkeys(triple):
        remaining = list(triple)
        remaining.remove(witness)
        lanes.append((witness, (remaining[0], remaining[1])))
    return lanes


@dataclass(eq=False)
class ShardLane:
    """One witness-color lane of a :class:`ShardContext`.

    ``sources``/``destinations`` are the lane's pivot edges — the
    context's oriented edges whose color pair equals ``pair`` — in the
    global lexicographic order.  ``col_sliced`` is the lane's private
    column structure: the predecessor bits of *all* context edges whose
    source vertex has ``witness_color``, so the AND against the shared
    row structure keeps exactly the witnesses of that color.
    ``join_plan`` is the lane's own compiled valid-pair index
    (:func:`repro.core.plan.build_join_plan` over these structures),
    patched in place on incremental ``apply``.
    """

    witness_color: int
    pair: tuple[int, int]
    sources: np.ndarray
    destinations: np.ndarray
    col_sliced: SlicedMatrix
    join_plan: object | None = None

    @property
    def num_edges(self) -> int:
        return int(self.sources.size)

    @property
    def nbytes(self) -> int:
        plan_bytes = self.join_plan.nbytes if self.join_plan is not None else 0
        return (
            self.sources.nbytes
            + self.destinations.nbytes
            + self.col_sliced.compressed_bytes
            + plan_bytes
        )


@dataclass(eq=False)
class ShardContext:
    """One simulated array's shard: a row structure and its lanes.

    A coloring context (:func:`build_shard_contexts`) is fully
    self-contained: it carries everything one simulated array (or one
    pool process, or one remote host) needs to count its color triple's
    triangles — the shard's own oriented edge arrays (one lane per
    witness color), its own row :class:`SlicedMatrix` built from exactly
    its edges, each lane's own color-masked column structure, and each
    lane's own compiled :class:`~repro.core.plan.JoinPlan`.  Such
    contexts reference **no** global structure, so shipping one to a
    worker ships the whole shard and repeat queries dispatch by shard id
    alone (see :class:`ContextPool`).

    A position context (:func:`build_position_contexts`) is the
    degenerate single-color case restricted to a :class:`ShardPlan`'s
    positions: ``triple=(0, 0, 0)``, one unmasked lane, and *shared*
    global row and column structures.  It is never adopted into shared
    memory — adoption would rebind the caller's resident arrays.

    ``triple`` is the color multiset this shard owns; every triangle
    whose vertex colors form that multiset is counted here and nowhere
    else.  Exactness is orientation-generic: under ``"upper"`` each
    triangle contributes once (at its (min, max) pivot edge), under
    ``"symmetric"`` six times — all six in this one shard, so the
    merged accumulator keeps its usual ``// 6``.
    """

    shard_id: int
    triple: tuple[int, int, int]
    orientation: str
    num_vertices: int
    slice_bits: int
    colors: int
    color_seed: int
    row_sliced: SlicedMatrix
    lanes: list[ShardLane] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        """Oriented edges this context owns (every lane's pivot edges)."""
        return sum(lane.num_edges for lane in self.lanes)

    @property
    def nbytes(self) -> int:
        """Resident footprint: structures, edge arrays and lane plans."""
        return self.row_sliced.compressed_bytes + sum(
            lane.nbytes for lane in self.lanes
        )

    def touched_rows(self) -> np.ndarray:
        """Distinct pivot rows across all lanes (row-region sizing)."""
        if not self.lanes:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([lane.sources for lane in self.lanes]))

    def owned_mask(
        self, delta_edges: np.ndarray, vertex_colors: np.ndarray
    ) -> np.ndarray:
        """Which canonical delta edges this shard owns (pair ⊆ triple)."""
        lo = vertex_colors[delta_edges[:, 0]]
        hi = vertex_colors[delta_edges[:, 1]]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        x, y, z = self.triple
        return (
            ((lo == x) & (hi == y))
            | ((lo == x) & (hi == z))
            | ((lo == y) & (hi == z))
        )

    def apply_delta(
        self,
        delta_edges: np.ndarray,
        vertex_colors: np.ndarray,
        insert: bool,
        batch_candidates: int | None = None,
    ) -> bool:
        """Route one canonical delta batch into this shard, in place.

        Mutates only what the batch touches: the shard row structure
        gets every owned oriented bit (one :class:`StructureDelta`
        shared by all lane-plan patches), each lane's column structure
        gets the owned bits whose *source* vertex carries the lane's
        witness color, and each lane whose pivot pair matches an owned
        edge splices its edge list and patches its compiled plan
        (:func:`repro.core.plan.patch_join_plan`).  Returns ``False``
        without touching anything when the shard owns no edge of the
        batch — the routing property that makes sharded ``apply``
        O(owning shards), not O(all shards).
        """
        from repro.core.engine import DEFAULT_BATCH_CANDIDATES
        from repro.core.incremental import StructureDelta, clear_bits, set_bits
        from repro.core.plan import (
            merge_oriented_edges,
            oriented_structure_bits,
            patch_join_plan,
        )

        owned = self.owned_mask(delta_edges, vertex_colors)
        if not bool(owned.any()):
            return False
        owned_edges = delta_edges[owned]
        mutate = set_bits if insert else clear_bits
        row_bits = oriented_structure_bits(owned_edges, self.orientation, "row")
        row_delta = mutate(self.row_sliced, *row_bits)
        # Oriented (source, destination) directions of the owned batch —
        # the coordinates both the lane column masks and the lane edge
        # splices are expressed in.
        u, v = owned_edges[:, 0], owned_edges[:, 1]
        if self.orientation == "upper":
            delta_src, delta_dst = u, v
        else:
            delta_src = np.concatenate([u, v])
            delta_dst = np.concatenate([v, u])
        src_colors = vertex_colors[delta_src]
        pair_lo = np.minimum(vertex_colors[u], vertex_colors[v])
        pair_hi = np.maximum(vertex_colors[u], vertex_colors[v])
        candidates = batch_candidates or DEFAULT_BATCH_CANDIDATES
        for lane in self.lanes:
            # Column bits route by *source-vertex* color (the witness
            # side of the AND); edge-list membership routes by the
            # edge's color *pair* (the pivot side).  These are different
            # selections on purpose.
            mask = src_colors == lane.witness_color
            if bool(mask.any()):
                col_delta = mutate(
                    lane.col_sliced, delta_dst[mask], delta_src[mask]
                )
            else:
                col_delta = StructureDelta.unchanged()
            lane_owned = (pair_lo == lane.pair[0]) & (pair_hi == lane.pair[1])
            old_src, old_dst = lane.sources, lane.destinations
            if bool(lane_owned.any()):
                new_src, new_dst = merge_oriented_edges(
                    old_src,
                    old_dst,
                    owned_edges[lane_owned],
                    self.orientation,
                    self.num_vertices,
                    insert,
                )
            else:
                new_src, new_dst = old_src, old_dst
            if lane.join_plan is not None:
                lane.join_plan = patch_join_plan(
                    lane.join_plan,
                    self.row_sliced,
                    lane.col_sliced,
                    old_src,
                    old_dst,
                    new_src,
                    new_dst,
                    row_delta,
                    col_delta,
                    candidates,
                )
            lane.sources, lane.destinations = new_src, new_dst
        return True


def build_shard_contexts(
    graph: Graph | None,
    orientation: str,
    num_arrays: int,
    *,
    slice_bits: int = 64,
    seed: int = 0,
    edge_arrays: tuple[np.ndarray, np.ndarray] | None = None,
    num_vertices: int | None = None,
    use_plan: bool = True,
    batch_candidates: int | None = None,
) -> list[ShardContext]:
    """Build the self-contained coloring shards of a graph.

    ``num_arrays`` is quantised up to the next triple count:
    ``C = min_colors(num_arrays)`` colors give ``Binom(C+2, 3)``
    contexts (the effective array count).  ``edge_arrays`` optionally
    passes the already-materialised oriented ``(sources, destinations)``
    (then ``graph`` may be ``None`` if ``num_vertices`` is given).
    ``use_plan=False`` skips the per-lane plan compiles — queries then
    re-derive the merge-join, bit-identically.

    Construction cost is the PIM-TC replication bill: each oriented
    edge is copied into ``C`` contexts and every context slices its own
    structures.  That one-time cost is what
    :meth:`repro.arch.perf.PimPerformanceModel.evaluate_context_build`
    prices; at query time the contexts are communication-free.
    """
    from repro.core.plan import build_join_plan

    if orientation not in ("upper", "symmetric"):
        raise ArchitectureError(
            f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
        )
    if edge_arrays is None:
        if graph is None:
            raise ArchitectureError(
                "build_shard_contexts needs a graph when edge_arrays "
                "is not provided"
            )
        sources, destinations = oriented_edges(graph, orientation)
    else:
        sources, destinations = edge_arrays
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
    if num_vertices is None:
        if graph is None:
            raise ArchitectureError(
                "build_shard_contexts needs num_vertices when graph is None"
            )
        num_vertices = graph.num_vertices
    colors = min_colors(num_arrays)
    vertex_colors = assign_colors(num_vertices, colors, seed)
    src_colors = vertex_colors[sources] if sources.size else np.empty(0, np.int64)
    dst_colors = (
        vertex_colors[destinations] if destinations.size else np.empty(0, np.int64)
    )
    pair_lo = np.minimum(src_colors, dst_colors)
    pair_hi = np.maximum(src_colors, dst_colors)
    # Group edge positions by color pair once: C(C+1)/2 small buckets,
    # each ascending, so every lane keeps the global lexicographic edge
    # order (what merge_oriented_edges and the cache traces rely on).
    pair_positions: dict[tuple[int, int], np.ndarray] = {}
    for x in range(colors):
        for y in range(x, colors):
            pair_positions[(x, y)] = np.flatnonzero(
                (pair_lo == x) & (pair_hi == y)
            )
    contexts: list[ShardContext] = []
    for shard_id, triple in enumerate(color_triples(colors)):
        lane_specs = _triple_lanes(triple)
        own_positions = np.sort(
            np.concatenate([pair_positions[pair] for _, pair in lane_specs])
        )
        own_src = sources[own_positions]
        own_dst = destinations[own_positions]
        # Lexicographic (source, destination) order is non-decreasing in
        # the slice key, so from_nonzeros skips its argsort here.
        row_sliced = SlicedMatrix.from_nonzeros(
            own_src, own_dst, num_vertices, num_vertices, slice_bits=slice_bits
        )
        own_src_colors = (
            vertex_colors[own_src] if own_src.size else np.empty(0, np.int64)
        )
        lanes: list[ShardLane] = []
        for witness, pair in lane_specs:
            positions = pair_positions[pair]
            lane_src = sources[positions]
            lane_dst = destinations[positions]
            mask = own_src_colors == witness
            col_sliced = SlicedMatrix.from_nonzeros(
                own_dst[mask],
                own_src[mask],
                num_vertices,
                num_vertices,
                slice_bits=slice_bits,
            )
            join_plan = None
            if use_plan:
                from repro.core.engine import DEFAULT_BATCH_CANDIDATES

                join_plan = build_join_plan(
                    row_sliced,
                    col_sliced,
                    lane_src,
                    lane_dst,
                    batch_candidates or DEFAULT_BATCH_CANDIDATES,
                )
            lanes.append(
                ShardLane(
                    witness_color=witness,
                    pair=pair,
                    sources=lane_src,
                    destinations=lane_dst,
                    col_sliced=col_sliced,
                    join_plan=join_plan,
                )
            )
        contexts.append(
            ShardContext(
                shard_id=shard_id,
                triple=triple,
                orientation=orientation,
                num_vertices=num_vertices,
                slice_bits=slice_bits,
                colors=colors,
                color_seed=seed,
                row_sliced=row_sliced,
                lanes=lanes,
            )
        )
    return contexts


def build_position_contexts(
    plan: ShardPlan,
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    edge_arrays: tuple[np.ndarray, np.ndarray],
    orientation: str,
    join_plan=None,
) -> list[ShardContext]:
    """One single-lane :class:`ShardContext` per shard of ``plan``.

    Each context's row structure *is* ``row_sliced`` and its one lane
    joins the shard's positions of ``edge_arrays`` against
    ``col_sliced`` — nothing is copied but the edge subsets.
    ``join_plan`` optionally passes the full edge list's compiled
    :class:`repro.core.plan.JoinPlan`; each lane then carries its
    :meth:`~repro.core.plan.JoinPlan.subset` and skips the merge-join.
    A plan built for another orientation, or for an edge list of a
    different length, raises rather than silently selecting the wrong
    edges; so does a join plan that does not cover this edge list.
    """
    sources, destinations = edge_arrays
    if plan.orientation != orientation:
        raise ArchitectureError(
            f"plan was built for orientation {plan.orientation!r} but the "
            f"run uses {orientation!r}; shard positions index different "
            "edge lists — rebuild the plan with plan_shards"
        )
    if plan.num_edges != int(sources.size):
        raise ArchitectureError(
            f"plan covers {plan.num_edges} edges but the oriented edge list "
            f"has {sources.size}; the plan was built for a different graph "
            "— rebuild it with plan_shards"
        )
    if join_plan is not None and join_plan.num_edges != int(sources.size):
        raise ArchitectureError(
            f"join plan covers {join_plan.num_edges} edges but the oriented "
            f"edge list has {sources.size}; compile a plan for this edge list"
        )
    return [
        ShardContext(
            shard_id=shard_id,
            triple=(0, 0, 0),
            orientation=orientation,
            num_vertices=row_sliced.num_rows,
            slice_bits=row_sliced.slice_bits,
            colors=1,
            color_seed=0,
            row_sliced=row_sliced,
            lanes=[
                ShardLane(
                    witness_color=0,
                    pair=(0, 0),
                    sources=sources[positions],
                    destinations=destinations[positions],
                    col_sliced=col_sliced,
                    join_plan=(
                        join_plan.subset(positions)
                        if join_plan is not None
                        else None
                    ),
                )
            ],
        )
        for shard_id, positions in enumerate(plan.assignments)
    ]


def context_balance(contexts: list[ShardContext]) -> float:
    """Partitioner balance: max shard edges over mean shard edges.

    1.0 is perfect balance; the ratio is the latency multiplier the
    slowest shard imposes on an otherwise even fleet.  Empty fleets (or
    all-empty shards) report 1.0.
    """
    if not contexts:
        return 1.0
    loads = [ctx.num_edges for ctx in contexts]
    mean = sum(loads) / len(loads)
    return max(loads) / mean if mean else 1.0


def _run_context(
    context: ShardContext,
    per_array_capacity: int,
    policy,
    seed: int,
    batch_candidates: int | None,
    use_plan: bool,
) -> ShardResult:
    """Execute one context on its private array.

    Each lane is one gather → AND → popcount pass over the context's
    structures; lane accumulators, events and cache statistics merge
    into the shard's :class:`ShardResult`.  Nothing here reads
    module-level state, so a worker holding the context can run it.
    """
    from repro.core.accelerator import EventCounts
    from repro.core.engine import DEFAULT_BATCH_CANDIDATES
    from repro.core.kernels import CountKernel, execute_workload

    touched = context.touched_rows()
    _, touched_counts = context.row_sliced.row_slice_ranges(touched)
    row_region, column_capacity = array_budget(
        touched_counts, per_array_capacity, f"shard {context.shard_id}"
    )
    accumulator = 0
    events = EventCounts()
    cache_stats = CacheStatistics()
    kernel = CountKernel()
    for lane in context.lanes:
        lane_rows = np.unique(lane.sources)
        _, lane_counts = context.row_sliced.row_slice_ranges(lane_rows)
        outcome = execute_workload(
            kernel,
            None,
            context.row_sliced,
            lane.col_sliced,
            context.orientation,
            column_capacity,
            policy=policy,
            seed=seed,
            batch_candidates=batch_candidates or DEFAULT_BATCH_CANDIDATES,
            edges=(lane.sources, lane.destinations),
            row_writes=int(lane_counts.sum()),
            plan=lane.join_plan if use_plan else None,
        )
        accumulator += outcome.accumulator
        events = events + EventCounts(**outcome.events)
        cache_stats = cache_stats.merge(outcome.cache_stats)
    return ShardResult(
        shard_id=context.shard_id,
        edges=context.num_edges,
        rows=int(touched.size),
        accumulator=accumulator,
        events=events,
        cache_stats=cache_stats,
        row_region_slices=row_region,
        column_cache_slices=column_capacity,
    )


def _merge_shard_results(shard_results: list[ShardResult]) -> ShardedOutcome:
    """Sum accumulators and additive counters across shard results."""
    from repro.core.accelerator import EventCounts

    accumulator = sum(result.accumulator for result in shard_results)
    events = EventCounts()
    cache_stats = CacheStatistics()
    for result in shard_results:
        events = events + result.events
        cache_stats = cache_stats.merge(result.cache_stats)
    return ShardedOutcome(
        accumulator=accumulator,
        events=events,
        cache_stats=cache_stats,
        shards=shard_results,
    )


def array_budget(
    row_slice_counts: np.ndarray, per_array_capacity: int, what: str
) -> tuple[int, int]:
    """Split one array's slice budget into ``(row_region, column_capacity)``.

    The row region holds the widest row the pass touches
    (``row_slice_counts`` are its rows' valid-slice counts); whatever is
    left is the column cache, which must hold at least one slice.
    ``what`` names the pass in the error (``"array"``, ``"shard 3"``).
    """
    row_region = int(row_slice_counts.max(initial=0))
    column_capacity = per_array_capacity - row_region
    if column_capacity < 1:
        raise ArchitectureError(
            f"{what}: capacity of {per_array_capacity} slices cannot hold "
            f"its row region ({row_region} slices) plus a column cache; "
            "use fewer arrays or a larger array"
        )
    return row_region, column_capacity


def _context_capacity(capacity_slices: int, num_contexts: int) -> int:
    """Each array's equal share of ``capacity_slices`` (at least 2)."""
    per_array_capacity = capacity_slices // num_contexts
    if per_array_capacity < 2:
        raise ArchitectureError(
            f"array of {capacity_slices} slices split {num_contexts} ways "
            f"leaves {per_array_capacity} slices per array; need at least 2"
        )
    return per_array_capacity


def execute_contexts(
    contexts: list[ShardContext],
    capacity_slices: int,
    policy,
    seed: int,
    workers: int = 0,
    batch_candidates: int | None = None,
    use_plan: bool = True,
) -> ShardedOutcome:
    """Run a list of shard contexts and merge their results.

    The one per-call shard executor: coloring contexts execute against
    what they own, position contexts (:func:`build_position_contexts`)
    against the shared global structures they reference.  ``workers>0``
    fans contexts out over a one-shot :class:`ProcessPoolExecutor` whose
    forked workers inherit the contexts through its initializer; a
    worker death raises :class:`~repro.errors.ArchitectureError`.  For
    resident repeat-query serving, hold a :class:`ContextPool` open
    instead.
    """
    if not contexts:
        raise ArchitectureError("execute_contexts needs at least one context")
    if workers < 0:
        raise ArchitectureError(f"workers must be >= 0, got {workers}")
    per_array_capacity = _context_capacity(capacity_slices, len(contexts))
    if workers > 0 and len(contexts) > 1:
        max_workers = min(workers, len(contexts), os.cpu_count() or 1)
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_init_context_worker,
                initargs=(
                    contexts, per_array_capacity, policy, seed, batch_candidates
                ),
            ) as pool:
                shard_results = list(
                    pool.map(
                        _run_resident_context,
                        [(ctx.shard_id, use_plan) for ctx in contexts],
                    )
                )
        except BrokenProcessPool:
            raise ArchitectureError(
                "execute_contexts worker died mid-sweep; the one-shot pool "
                "has been shut down"
            ) from None
    else:
        shard_results = [
            _run_context(
                ctx, per_array_capacity, policy, seed, batch_candidates, use_plan
            )
            for ctx in contexts
        ]
    return _merge_shard_results(shard_results)


def run_position_split(
    kernel,
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    config,
    join_plan=None,
) -> tuple[int, np.ndarray | None, "EventCounts", CacheStatistics]:  # noqa: F821
    """One transient symmetric-orientation pass over ``config.num_arrays`` arrays.

    The position split every non-resident multi-array pass shares (the
    incremental delta terms, sharded workload supports): the edge list
    is cut with :func:`plan_shards` — coloring owns edges only for
    resident count contexts, so it falls back to the degree-LPT
    balancer here — and each shard gets an equal per-array slice budget
    with a private row region and column-cache trace, running
    ``kernel`` over its edges (and its :meth:`~repro.core.plan.JoinPlan.subset`
    of ``join_plan``, when one is given).  One array runs the whole list.

    Returns ``(accumulator, per_edge, events, cache_stats)``:
    ``per_edge`` is the kernel's per-edge value scattered back to
    ``sources`` order (``None`` unless ``kernel.per_edge``).
    """
    from repro.core.accelerator import EventCounts
    from repro.core.kernels import execute_workload

    per_array_capacity = _context_capacity(
        config.capacity_slices, config.num_arrays
    )
    if config.num_arrays > 1:
        shard_by = "degree" if config.shard_by == "coloring" else config.shard_by
        assignments = plan_shards(
            None, "symmetric", config.num_arrays, shard_by, sources=sources
        ).assignments
    else:
        assignments = [np.arange(sources.size, dtype=np.int64)]
    accumulator = 0
    per_edge = np.zeros(sources.size, dtype=np.int64) if kernel.per_edge else None
    events = EventCounts()
    cache_stats = CacheStatistics()
    for shard_id, positions in enumerate(assignments):
        if positions.size == 0:
            continue
        shard_sources = sources[positions]
        _, touched_counts = row_sliced.row_slice_ranges(np.unique(shard_sources))
        _, column_capacity = array_budget(
            touched_counts, per_array_capacity, f"shard {shard_id}"
        )
        result = execute_workload(
            kernel,
            None,
            row_sliced,
            col_sliced,
            "symmetric",
            column_capacity,
            config.policy,
            config.seed,
            edges=(shard_sources, destinations[positions]),
            row_writes=int(touched_counts.sum()),
            plan=join_plan.subset(positions) if join_plan is not None else None,
        )
        accumulator += result.accumulator
        if per_edge is not None:
            per_edge[positions] = result.value
        events = events + EventCounts(**result.events)
        cache_stats = cache_stats.merge(result.cache_stats)
    return accumulator, per_edge, events, cache_stats


#: Per-process resident contexts installed by :func:`_init_context_worker`.
_CONTEXT_SHARED: tuple | None = None


def _init_context_worker(
    contexts, per_array_capacity, policy, seed, batch_candidates
) -> None:
    """Pool initializer: adopt the shipped contexts as process residents."""
    global _CONTEXT_SHARED
    _CONTEXT_SHARED = (
        {ctx.shard_id: ctx for ctx in contexts},
        per_array_capacity,
        policy,
        seed,
        batch_candidates,
    )


def _run_resident_context(job: tuple[int, bool]) -> ShardResult:
    """Run one resident context by shard id (the O(1) dispatch path)."""
    shard_id, use_plan = job
    by_id, per_array_capacity, policy, seed, batch_candidates = _CONTEXT_SHARED
    return _run_context(
        by_id[shard_id], per_array_capacity, policy, seed, batch_candidates, use_plan
    )


# ----------------------------------------------------------------------
# Zero-copy manifests: contexts as segment names instead of array bytes
# ----------------------------------------------------------------------
#
# A :class:`ShardContext` in a :class:`ContextPool` lives in named
# shared-memory segments (see :mod:`repro.storage.backing`).  What
# crosses the process boundary is a *manifest* — nested dicts of
# ``{"segment": name, "dtype": ..., "shape": ...}`` entries plus the
# scalar fields (structure versions, plan validity counters) the worker
# needs to reassemble bit-identical ``SlicedMatrix``/``JoinPlan``
# objects over attached views of the same physical pages.  Arrays the
# store does not share (empty ones) travel inline by value.


def _share_array(owner, attr: str, store) -> dict:
    """Adopt ``owner.attr`` into ``store`` (rebinding it in place) and
    return its manifest entry.

    The rebind is the load-bearing step: after it, the parent's in-place
    payload mutations (``set_bits``/``clear_bits``) write the very pages
    attached workers read, so deltas need no re-ship.
    """
    array = getattr(owner, attr)
    shared = store.adopt(array)
    if shared is not array:
        setattr(owner, attr, shared)
    name = store.segment_of(shared)
    if name is None:
        return {"array": shared}
    return {"segment": name, "dtype": str(shared.dtype), "shape": shared.shape}


def _share_sliced(sliced: SlicedMatrix, store) -> dict:
    return {
        "num_rows": sliced.num_rows,
        "num_cols": sliced.num_cols,
        "slice_bits": sliced.slice_bits,
        "structure_version": sliced.structure_version,
        "indptr": _share_array(sliced, "indptr", store),
        "slice_ids": _share_array(sliced, "slice_ids", store),
        "data": _share_array(sliced, "data", store),
    }


def _share_plan(plan, store) -> dict | None:
    if plan is None:
        return None
    return {
        "num_edges": plan.num_edges,
        "row_version": plan.row_version,
        "col_version": plan.col_version,
        "row_valid_slices": plan.row_valid_slices,
        "col_valid_slices": plan.col_valid_slices,
        "row_positions": _share_array(plan, "row_positions", store),
        "col_positions": _share_array(plan, "col_positions", store),
        "trace_keys": _share_array(plan, "trace_keys", store),
        "pair_counts": _share_array(plan, "pair_counts", store),
    }


def _share_context(context: ShardContext, store) -> dict:
    """Adopt every array of ``context`` into ``store`` and manifest it."""
    return {
        "shard_id": context.shard_id,
        "triple": context.triple,
        "orientation": context.orientation,
        "num_vertices": context.num_vertices,
        "slice_bits": context.slice_bits,
        "colors": context.colors,
        "color_seed": context.color_seed,
        "row_sliced": _share_sliced(context.row_sliced, store),
        "lanes": [
            {
                "witness_color": lane.witness_color,
                "pair": lane.pair,
                "sources": _share_array(lane, "sources", store),
                "destinations": _share_array(lane, "destinations", store),
                "col_sliced": _share_sliced(lane.col_sliced, store),
                "join_plan": _share_plan(lane.join_plan, store),
            }
            for lane in context.lanes
        ],
    }


def _attach_entry(entry: dict, segments: dict, names: set) -> np.ndarray:
    """Materialise one manifest entry: attached view or inline array."""
    inline = entry.get("array")
    if inline is not None:
        return inline
    name = entry["segment"]
    segment = segments.get(name)
    if segment is None:
        from repro.storage.backing import attach_segment

        segment = attach_segment(name)
        segments[name] = segment
    names.add(name)
    return np.ndarray(
        tuple(entry["shape"]), dtype=np.dtype(entry["dtype"]), buffer=segment.buf
    )


def _sliced_from_manifest(manifest: dict, segments: dict, names: set) -> SlicedMatrix:
    sliced = SlicedMatrix(
        int(manifest["num_rows"]),
        int(manifest["num_cols"]),
        int(manifest["slice_bits"]),
        _attach_entry(manifest["indptr"], segments, names),
        _attach_entry(manifest["slice_ids"], segments, names),
        _attach_entry(manifest["data"], segments, names),
    )
    # The constructor resets the version; restore the recorded one so
    # JoinPlan.matches() staleness checks agree with the owner's plans.
    sliced.structure_version = int(manifest["structure_version"])
    return sliced


def _plan_from_manifest(manifest: dict | None, segments: dict, names: set):
    if manifest is None:
        return None
    from repro.core.plan import JoinPlan

    return JoinPlan(
        row_positions=_attach_entry(manifest["row_positions"], segments, names),
        col_positions=_attach_entry(manifest["col_positions"], segments, names),
        trace_keys=_attach_entry(manifest["trace_keys"], segments, names),
        pair_counts=_attach_entry(manifest["pair_counts"], segments, names),
        num_edges=int(manifest["num_edges"]),
        row_version=int(manifest["row_version"]),
        col_version=int(manifest["col_version"]),
        row_valid_slices=int(manifest["row_valid_slices"]),
        col_valid_slices=int(manifest["col_valid_slices"]),
    )


def _context_from_manifest(manifest: dict, segments: dict, names: set) -> ShardContext:
    return ShardContext(
        shard_id=int(manifest["shard_id"]),
        triple=tuple(manifest["triple"]),
        orientation=manifest["orientation"],
        num_vertices=int(manifest["num_vertices"]),
        slice_bits=int(manifest["slice_bits"]),
        colors=int(manifest["colors"]),
        color_seed=int(manifest["color_seed"]),
        row_sliced=_sliced_from_manifest(manifest["row_sliced"], segments, names),
        lanes=[
            ShardLane(
                witness_color=int(lane["witness_color"]),
                pair=tuple(lane["pair"]),
                sources=_attach_entry(lane["sources"], segments, names),
                destinations=_attach_entry(lane["destinations"], segments, names),
                col_sliced=_sliced_from_manifest(
                    lane["col_sliced"], segments, names
                ),
                join_plan=_plan_from_manifest(lane["join_plan"], segments, names),
            )
            for lane in manifest["lanes"]
        ],
    )


def _sliced_identity(sliced: SlicedMatrix) -> tuple:
    return (
        sliced.num_rows,
        sliced.num_cols,
        sliced.structure_version,
        id(sliced.indptr),
        id(sliced.slice_ids),
        id(sliced.data),
    )


def _plan_identity(plan) -> tuple | None:
    if plan is None:
        return None
    return (
        plan.num_edges,
        plan.row_version,
        plan.col_version,
        plan.row_valid_slices,
        plan.col_valid_slices,
        id(plan.row_positions),
        id(plan.col_positions),
        id(plan.trace_keys),
        id(plan.pair_counts),
    )


def _context_identity(context: ShardContext) -> tuple:
    """Cheap publish-time change probe: array identities plus scalars.

    If nothing in this tuple moved since the last export, no array was
    reallocated and no manifest scalar changed, so the previously
    exported manifest is still exact — in-place payload writes landed
    in the shared pages and need no re-export at all.  Any difference
    falls through to a full re-export plus fingerprint comparison.
    """
    return (
        _sliced_identity(context.row_sliced),
        tuple(
            (
                lane.witness_color,
                lane.pair,
                id(lane.sources),
                id(lane.destinations),
                _sliced_identity(lane.col_sliced),
                _plan_identity(lane.join_plan),
            )
            for lane in context.lanes
        ),
    )


def _manifest_signature(value):
    """A hashable fingerprint of a manifest subtree.

    Equal signatures mean a worker's cached rebuild is still valid:
    shared entries compare by segment identity (payload writes land in
    the attached pages and need no rebuild to become visible), inline
    entries by content, scalars by value.  :meth:`ContextPool.publish`
    compares fingerprints to bump per-shard versions only for shards a
    structural mutation actually reallocated.
    """
    if isinstance(value, dict):
        if "segment" in value:
            return ("seg", value["segment"], value["dtype"], tuple(value["shape"]))
        if "array" in value:
            array = value["array"]
            return ("inline", str(array.dtype), array.shape, array.tobytes())
        return tuple(
            (key, _manifest_signature(item)) for key, item in sorted(value.items())
        )
    if isinstance(value, list):
        return tuple(_manifest_signature(item) for item in value)
    return value


#: Worker-process execution params installed by :func:`_init_pool_worker`.
_POOL_SHARED: tuple | None = None
#: Worker-process attached segments: name -> SharedMemory (attach once).
_POOL_SEGMENTS: dict = {}
#: Worker-process rebuilt contexts: shard_id -> (generation, context,
#: segment names the context references).
_POOL_CONTEXTS: dict = {}


def _init_pool_worker(per_array_capacity, policy, seed, batch_candidates) -> None:
    """Zero-copy pool initializer: execution params only, no array bytes."""
    global _POOL_SHARED
    _POOL_SHARED = (per_array_capacity, policy, seed, batch_candidates)
    _POOL_SEGMENTS.clear()
    _POOL_CONTEXTS.clear()


def _evict_stale_segments() -> None:
    """Close attached segments no resident context references any more.

    Structural mutations republish reallocated arrays under fresh
    segment names; once every shard caching the old name has rebuilt,
    the worker's attachment is the last thing pinning those pages.
    """
    referenced: set = set()
    for _version, _context, names in _POOL_CONTEXTS.values():
        referenced |= names
    for name in [n for n in _POOL_SEGMENTS if n not in referenced]:
        segment = _POOL_SEGMENTS.pop(name)
        try:
            segment.close()
        except BufferError:  # pragma: no cover - an array still views it
            _POOL_SEGMENTS[name] = segment


def _resident_pool_context(
    shard_id: int, version: int, manifest: dict
) -> ShardContext:
    """The worker's cached context for a shard, rebuilt on a new version.

    The version is per shard, not per pool: a publish that only lands
    in-place payload deltas leaves every version untouched, so workers
    keep their built contexts and the sweep reads the new bytes straight
    out of the attached pages.
    """
    cached = _POOL_CONTEXTS.get(shard_id)
    if cached is not None and cached[0] == version:
        return cached[1]
    names: set = set()
    context = _context_from_manifest(manifest, _POOL_SEGMENTS, names)
    _POOL_CONTEXTS[shard_id] = (version, context, names)
    _evict_stale_segments()
    return context


def _run_manifest_chunk(job: tuple) -> list[ShardResult]:
    """Run one batched dispatch message: every shard in the chunk."""
    entries, use_plan = job
    per_array_capacity, policy, seed, batch_candidates = _POOL_SHARED
    results = []
    for shard_id, version, manifest in entries:
        context = _resident_pool_context(shard_id, version, manifest)
        results.append(
            _run_context(
                context, per_array_capacity, policy, seed, batch_candidates, use_plan
            )
        )
    return results


class ContextPool:
    """A persistent zero-copy worker pool with the shard contexts resident.

    A per-call :func:`execute_contexts` pool pays its data movement on
    every call: a fresh process pool, and every context inherited or
    shipped again.  The resident pool pays it once.  Every context array
    is adopted into named shared-memory segments
    (:class:`repro.storage.BackingStore`, ``kind="shm"``) at
    construction; workers attach each segment **once** and every
    :meth:`run` sends one batched message per worker — a chunk of shard
    ids plus byte-free manifests — instead of one future per shard.
    In-place payload deltas applied by the owner are visible to workers
    with **no re-ship**; structural mutations are fenced by
    :meth:`publish`, which bumps a generation counter so workers rebuild
    from the republished manifests.  :meth:`run` and :meth:`publish`
    serialise on one lock, so a concurrent delta is either fully visible
    to a sweep or fully invisible — never torn.

    Adoption rebinds the contexts' arrays onto the shared pages, so only
    self-contained (coloring) contexts belong here — never position
    contexts, whose structures are the caller's resident globals.

    Use as a context manager or call :meth:`close` (idempotent; a
    worker crash mid-sweep, or a failed construction, reclaims the
    executor and every shm segment before the error propagates).
    Results are bit-identical to :func:`execute_contexts` serial
    execution.
    """

    def __init__(
        self,
        contexts: list[ShardContext],
        capacity_slices: int,
        policy,
        seed: int,
        workers: int,
        batch_candidates: int | None = None,
    ) -> None:
        if not contexts:
            raise ArchitectureError("ContextPool needs at least one context")
        if workers < 1:
            raise ArchitectureError(
                f"ContextPool needs workers >= 1, got {workers}"
            )
        from repro.storage.backing import BackingStore

        per_array_capacity = _context_capacity(capacity_slices, len(contexts))
        self._contexts = contexts
        self._shard_ids = [ctx.shard_id for ctx in contexts]
        self._max_workers = min(workers, len(contexts), os.cpu_count() or 1)
        self._lock = threading.Lock()
        self._closed = False
        self._generation = 0
        self._executor = None
        self._store = BackingStore("shm")
        try:
            self._manifests = {
                ctx.shard_id: _share_context(ctx, self._store) for ctx in contexts
            }
            self._versions = {sid: 0 for sid in self._manifests}
            self._signatures = {
                sid: _manifest_signature(manifest)
                for sid, manifest in self._manifests.items()
            }
            # Identities are recorded after export: adoption rebinds the
            # context arrays onto the shared pages, so these are the ids
            # a structural mutation would replace.
            self._identities = {
                ctx.shard_id: _context_identity(ctx) for ctx in contexts
            }
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers,
                initializer=_init_pool_worker,
                initargs=(per_array_capacity, policy, seed, batch_candidates),
            )
        except BaseException:
            # A half-built pool (e.g. /dev/shm full mid-export) must not
            # leave the segments created so far linked.
            self._reclaim()
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker processes the pool dispatches over."""
        return self._max_workers

    @property
    def generation(self) -> int:
        """Publish-fence counter (bumps on every :meth:`publish`)."""
        return self._generation

    @property
    def shared_bytes(self) -> int:
        """Bytes in live shared segments."""
        return self._store.shared_bytes

    @property
    def shared_segments(self) -> int:
        """Live shared segments."""
        return self._store.shared_segments

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Sweeps and deltas
    # ------------------------------------------------------------------

    def run(self, use_plan: bool = True) -> ShardedOutcome:
        """One full sweep over the resident shards.

        One batched message per worker (chunked shard-id lists +
        manifests); workers read the attached arrays zero-copy.
        """
        with self._lock:
            if self._closed:
                raise ArchitectureError("ContextPool is closed")
            chunks = [
                self._shard_ids[i :: self._max_workers]
                for i in range(self._max_workers)
            ]
            jobs = [
                (
                    [
                        (sid, self._versions[sid], self._manifests[sid])
                        for sid in chunk
                    ],
                    use_plan,
                )
                for chunk in chunks
                if chunk
            ]
            try:
                shard_results = [
                    result
                    for chunk_results in self._executor.map(
                        _run_manifest_chunk, jobs
                    )
                    for result in chunk_results
                ]
            except BrokenProcessPool:
                # A worker died mid-sweep: nothing it held can be
                # trusted and the executor is unusable — reclaim the
                # processes and every shm segment before surfacing.
                self._reclaim()
                raise ArchitectureError(
                    "ContextPool worker died mid-sweep; the pool has been "
                    "closed and its shared segments reclaimed"
                ) from None
        shard_results.sort(key=lambda result: result.shard_id)
        return _merge_shard_results(shard_results)

    def publish(self, mutator=None) -> None:
        """Fence a delta: apply ``mutator`` (if any) and re-export.

        Runs under the same lock as :meth:`run`, so the delta is atomic
        with respect to sweeps — a sweep observes either none of it or
        all of it.  Re-adopting each context re-exports only arrays a
        structural mutation reallocated (in-place payload writes already
        landed in the shared pages), and only shards whose manifest
        fingerprint actually changed get a version bump — workers keep
        their cached rebuilds for every other shard, so a payload-only
        delta costs the next sweep nothing.
        """
        with self._lock:
            if self._closed:
                raise ArchitectureError("ContextPool is closed")
            if mutator is not None:
                mutator()
            self._generation += 1
            for context in self._contexts:
                sid = context.shard_id
                if _context_identity(context) == self._identities[sid]:
                    # No array reallocated, no manifest scalar moved: the
                    # exported manifest is still exact and the workers'
                    # cached rebuilds stay valid.
                    continue
                manifest = _share_context(context, self._store)
                signature = _manifest_signature(manifest)
                if signature != self._signatures[sid]:
                    self._versions[sid] += 1
                    self._signatures[sid] = signature
                self._manifests[sid] = manifest
                self._identities[sid] = _context_identity(context)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _reclaim(self) -> None:
        # Lock held by the caller.  Safe to run repeatedly.
        if self._closed:
            return
        self._closed = True
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
        finally:
            self._manifests = {}
            self._versions = {}
            self._signatures = {}
            self._identities = {}
            self._store.close()

    def close(self) -> None:
        """Shut the workers down and unlink every shared segment.

        Idempotent: safe to call any number of times, including after a
        mid-sweep worker crash already reclaimed the pool.
        """
        with self._lock:
            self._reclaim()

    def __enter__(self) -> "ContextPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
