"""Resident join plans: compile the valid-pair index once, reuse forever.

The paper's central software insight (Section IV-B, Table IV) is that
only *valid slice pairs* ever reach the computational array — and for a
resident graph, which pairs those are is a pure function of the slice
*structure*, not of the payload bits.  Yet every plan-free query
through :func:`repro.core.kernels.execute_workload` re-derives them:
candidate expansion, the merge-join against the sorted global keys, and
the column-key cache trace are recomputed per call, which dominates repeat
queries on an unchanged graph (the serving tier's bread and butter).

A :class:`JoinPlan` materialises that derivation once:

* ``row_positions`` / ``col_positions`` — the matched pair positions
  into the row/column :class:`~repro.core.slicing.SlicedMatrix` payload
  arrays, in the exact legacy iteration order (int32 wherever the
  position space allows);
* ``trace_keys`` — the column-slice cache trace the pairs induce, whose
  hit/miss/exchange classification is memoised per cache configuration;
* ``pair_counts`` — pairs per oriented edge, so any edge subset (a
  shard of the Fig. 4 bank organisation) can slice its own sub-plan out
  with :meth:`JoinPlan.subset`.

With a plan, a query is gather → AND → popcount and nothing else; the
engine's ``plan=`` fast path is bit-identical to the plan-free one.

Plans stay *coherent* with their structures through
:attr:`SlicedMatrix.structure_version`: the in-place slice maintenance
of :mod:`repro.core.incremental` reports every structural change as a
:class:`~repro.core.incremental.StructureDelta`, and
:func:`patch_join_plan` splices exactly the affected edges' pair sets
into a new plan — position renumbering for shifted slices, a delta
re-join only for edges whose endpoint structures changed — instead of
recompiling the whole thing.  ``tests/test_plan.py`` asserts a patched
plan is array-equal to a from-scratch rebuild after every operation of
randomized insert/delete streams.

This mirrors what real-PIM follow-ups observe (PIM-TC, Asquini et al.
2025): precomputed, partition-local work assignments are what make
repeated and dynamic triangle workloads pay off on processing-in-memory
substrates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core import engine
from repro.core.incremental import StructureDelta
from repro.core.reuse import CacheStatistics, ReplacementPolicy, simulate_key_trace
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError

__all__ = [
    "FusedPlan",
    "JoinPlan",
    "build_join_plan",
    "fuse_plans",
    "patch_join_plan",
    "merge_oriented_edges",
    "oriented_structure_bits",
]


def _position_dtype(size: int) -> np.dtype:
    """int32 wherever the position space allows, int64 beyond."""
    return np.dtype(np.int32 if size <= np.iinfo(np.int32).max else np.int64)


def _alloc(store, shape, dtype) -> np.ndarray:
    """Uninitialised array through a backing store (heap when ``store=None``)."""
    if store is None:
        return np.empty(shape, dtype=dtype)
    return store.empty(shape, dtype)


def _adopt(store, array: np.ndarray) -> np.ndarray:
    """Move an array into the store's backing (identity when ``store=None``)."""
    if store is None:
        return array
    return store.adopt(array)


def _expand_runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``[starts[i], starts[i] + counts[i])``.

    The engine's batch-expansion trick: one ``arange`` plus a repeat of
    the per-run delta enumerates every run element at once.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    delta = starts.astype(np.int64, copy=False) - offsets
    return np.arange(total, dtype=np.int64) + np.repeat(delta, counts)


@dataclass(eq=False)
class JoinPlan:
    """The compiled valid-pair index of one oriented edge list.

    Built by :func:`build_join_plan` against a specific pair of slice
    structures; validity is keyed on their
    :attr:`~repro.core.slicing.SlicedMatrix.structure_version` (payload
    mutation inside existing slices leaves a plan valid — the positions
    and the trace depend only on which slices exist).  Plans are
    immutable in practice: :func:`patch_join_plan` returns a *new* plan,
    so a reader holding a reference never observes a half-patched state.
    """

    #: Matched pair position into the row structure's payload array.
    row_positions: np.ndarray
    #: Matched pair position into the column structure's payload array.
    col_positions: np.ndarray
    #: Column-structure global key of each pair — the cache access trace.
    trace_keys: np.ndarray
    #: Pairs per oriented edge (aligned with the compiled edge list).
    pair_counts: np.ndarray
    #: Edges the plan covers.
    num_edges: int
    #: ``structure_version`` of the row structure at compile/patch time.
    row_version: int
    #: ``structure_version`` of the column structure at compile/patch time.
    col_version: int
    #: Valid-slice counts at compile time (second staleness guard: two
    #: *different* structures can share a version counter value).
    row_valid_slices: int
    col_valid_slices: int
    _bounds: np.ndarray | None = field(default=None, repr=False)
    #: ``(capacity, policy, seed) -> CacheStatistics`` — the trace is part
    #: of the plan, so its classification per cache configuration is too.
    _stats_memo: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Matched valid slice pairs (= AND operations per query)."""
        return int(self.row_positions.size)

    @property
    def nbytes(self) -> int:
        """Resident footprint of the plan arrays (pool-budget quantity)."""
        return (
            self.row_positions.nbytes
            + self.col_positions.nbytes
            + self.trace_keys.nbytes
            + self.pair_counts.nbytes
        )

    @property
    def bounds(self) -> np.ndarray:
        """Exclusive prefix bounds of each edge's pair run (cached)."""
        if self._bounds is None:
            bounds = np.zeros(self.num_edges + 1, dtype=np.int64)
            np.cumsum(self.pair_counts, out=bounds[1:])
            self._bounds = bounds
        return self._bounds

    def staleness(
        self, row_sliced: SlicedMatrix, col_sliced: SlicedMatrix
    ) -> str | None:
        """Why this plan cannot serve these structures (``None`` = current)."""
        if (
            self.row_version != row_sliced.structure_version
            or self.row_valid_slices != row_sliced.num_valid_slices
        ):
            return (
                f"row structure moved to version "
                f"{row_sliced.structure_version} "
                f"({row_sliced.num_valid_slices} slices), plan was compiled "
                f"at version {self.row_version} ({self.row_valid_slices})"
            )
        if (
            self.col_version != col_sliced.structure_version
            or self.col_valid_slices != col_sliced.num_valid_slices
        ):
            return (
                f"column structure moved to version "
                f"{col_sliced.structure_version} "
                f"({col_sliced.num_valid_slices} slices), plan was compiled "
                f"at version {self.col_version} ({self.col_valid_slices})"
            )
        return None

    def matches(self, row_sliced: SlicedMatrix, col_sliced: SlicedMatrix) -> bool:
        """Whether the plan is current for these structures."""
        return self.staleness(row_sliced, col_sliced) is None

    # ------------------------------------------------------------------
    # Query-time services
    # ------------------------------------------------------------------
    def cache_statistics(self, capacity: int, policy, seed: int) -> CacheStatistics:
        """Hit/miss/exchange classification of the plan's trace (memoised).

        The trace is a plan artifact, so for a fixed cache configuration
        its simulation result is too; repeat queries pay a dictionary
        lookup instead of an O(n log n) trace pass.  A fresh copy is
        returned per call so callers may merge/mutate freely.
        """
        key = (int(capacity), ReplacementPolicy(policy).value, int(seed))
        stats = self._stats_memo.get(key)
        if stats is None:
            stats = simulate_key_trace(
                self.trace_keys, capacity, policy=policy, seed=seed
            )
            self._stats_memo[key] = stats
        return dataclasses.replace(stats)

    def subset(self, positions: np.ndarray) -> "JoinPlan":
        """The sub-plan of an edge subset (one shard's share of the plan).

        ``positions`` are ascending indices into the compiled edge list —
        exactly one entry of a :class:`~repro.core.sharding.ShardPlan`'s
        ``assignments`` — so the sub-plan's pair order matches what a
        plan-free run over that edge subset would produce.
        """
        positions = np.asarray(positions, dtype=np.int64)
        counts = self.pair_counts[positions]
        take = _expand_runs(self.bounds[positions], counts)
        return JoinPlan(
            row_positions=self.row_positions[take],
            col_positions=self.col_positions[take],
            trace_keys=self.trace_keys[take],
            pair_counts=counts,
            num_edges=int(positions.size),
            row_version=self.row_version,
            col_version=self.col_version,
            row_valid_slices=self.row_valid_slices,
            col_valid_slices=self.col_valid_slices,
        )


def build_join_plan(
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    batch_candidates: int = engine.DEFAULT_BATCH_CANDIDATES,
    *,
    chunk_edges: int | None = None,
    store=None,
) -> JoinPlan:
    """Compile the join plan of an oriented edge list — the one-time cost.

    Runs the engine's own merge-join (:func:`repro.core.engine.join_batches`)
    and records, instead of executing, every matched pair.  Sharing the
    join keeps the compiled plan structurally identical to what the
    plan-free executor would derive per query.

    ``chunk_edges`` streams the compile through bounded edge windows:
    each window's matched pairs are materialised, pushed into ``store``
    (spilling to disk when large), and released before the next window
    starts, so peak heap during compile is O(window pairs) instead of
    O(total pairs).  The join order is window-independent (edges in
    input order, slice ids ascending per edge — see
    :func:`~repro.core.engine.join_batches`), so the chunked result is
    array-equal to the unchunked one.  ``store`` alone (no chunking)
    still moves the finished plan arrays into spill backing.
    """
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    num_edges = int(sources.size)
    if chunk_edges is not None:
        if chunk_edges <= 0:
            raise ArchitectureError(
                f"chunk_edges must be a positive edge-window size, got {chunk_edges}"
            )
        if num_edges > chunk_edges:
            return _build_join_plan_chunked(
                row_sliced, col_sliced, sources, destinations,
                batch_candidates, int(chunk_edges), store,
            )
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    edge_parts: list[np.ndarray] = []
    for row_hit, col_hit, edge_ids in engine.join_batches(
        row_sliced, col_sliced, sources, destinations,
        batch_candidates, with_edge_ids=True,
    ):
        row_parts.append(row_hit)
        col_parts.append(col_hit)
        edge_parts.append(edge_ids)
    row_dtype = _position_dtype(max(row_sliced.num_valid_slices, 1) - 1)
    col_dtype = _position_dtype(max(col_sliced.num_valid_slices, 1) - 1)
    key_space = col_sliced.num_rows * col_sliced.slices_per_row
    trace_dtype = _position_dtype(key_space)
    if row_parts:
        row_positions = np.concatenate(row_parts).astype(row_dtype, copy=False)
        col_positions = np.concatenate(col_parts).astype(col_dtype, copy=False)
        edge_ids = np.concatenate(edge_parts)
        pair_counts = np.bincount(edge_ids, minlength=num_edges)
        trace_keys = col_sliced.global_keys()[col_positions].astype(
            trace_dtype, copy=False
        )
    else:
        row_positions = np.empty(0, dtype=row_dtype)
        col_positions = np.empty(0, dtype=col_dtype)
        pair_counts = np.zeros(num_edges, dtype=np.int64)
        trace_keys = np.empty(0, dtype=trace_dtype)
    return JoinPlan(
        row_positions=_adopt(store, row_positions),
        col_positions=_adopt(store, col_positions),
        trace_keys=_adopt(store, trace_keys),
        pair_counts=pair_counts.astype(np.int64, copy=False),
        num_edges=num_edges,
        row_version=row_sliced.structure_version,
        col_version=col_sliced.structure_version,
        row_valid_slices=row_sliced.num_valid_slices,
        col_valid_slices=col_sliced.num_valid_slices,
    )


def _build_join_plan_chunked(
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    batch_candidates: int,
    chunk_edges: int,
    store,
) -> JoinPlan:
    """The bounded-window compile loop behind ``build_join_plan(chunk_edges=)``.

    One window at a time: join, record the window's pairs, adopt them
    into the store (disk when large), release the heap copy.  After the
    sweep the per-window records are copied — window by window — into
    the final store-allocated arrays, so neither pass ever holds more
    than one window of pair records on the heap.
    """
    num_edges = int(sources.size)
    row_dtype = _position_dtype(max(row_sliced.num_valid_slices, 1) - 1)
    col_dtype = _position_dtype(max(col_sliced.num_valid_slices, 1) - 1)
    trace_dtype = _position_dtype(col_sliced.num_rows * col_sliced.slices_per_row)
    col_keys = col_sliced.global_keys()
    pair_counts = np.zeros(num_edges, dtype=np.int64)
    windows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for start in range(0, num_edges, chunk_edges):
        stop = min(start + chunk_edges, num_edges)
        row_parts: list[np.ndarray] = []
        col_parts: list[np.ndarray] = []
        edge_parts: list[np.ndarray] = []
        # edge_ids are relative to the window's edge slice, exactly the
        # offsets needed for this pair_counts stripe.
        for row_hit, col_hit, edge_ids in engine.join_batches(
            row_sliced, col_sliced, sources[start:stop], destinations[start:stop],
            batch_candidates, with_edge_ids=True,
        ):
            row_parts.append(row_hit)
            col_parts.append(col_hit)
            edge_parts.append(edge_ids)
        if not row_parts:
            continue
        rows = np.concatenate(row_parts).astype(row_dtype, copy=False)
        cols = np.concatenate(col_parts)
        pair_counts[start:stop] = np.bincount(
            np.concatenate(edge_parts), minlength=stop - start
        )
        windows.append(
            (
                _adopt(store, rows),
                _adopt(store, cols.astype(col_dtype, copy=False)),
                _adopt(store, col_keys[cols].astype(trace_dtype, copy=False)),
            )
        )
    total = int(pair_counts.sum())
    row_positions = _alloc(store, total, row_dtype)
    col_positions = _alloc(store, total, col_dtype)
    trace_keys = _alloc(store, total, trace_dtype)
    offset = 0
    while windows:
        # Pop as we copy so each window's (possibly spilled) staging
        # arrays are reclaimed before the next one lands.
        rows, cols, traces = windows.pop(0)
        size = rows.size
        row_positions[offset: offset + size] = rows
        col_positions[offset: offset + size] = cols
        trace_keys[offset: offset + size] = traces
        offset += size
    return JoinPlan(
        row_positions=row_positions,
        col_positions=col_positions,
        trace_keys=trace_keys,
        pair_counts=pair_counts,
        num_edges=num_edges,
        row_version=row_sliced.structure_version,
        col_version=col_sliced.structure_version,
        row_valid_slices=row_sliced.num_valid_slices,
        col_valid_slices=col_sliced.num_valid_slices,
    )


# ----------------------------------------------------------------------
# Cross-plan fusion
# ----------------------------------------------------------------------
@dataclass(eq=False)
class FusedPlan:
    """Several compiled plans concatenated into one fused pair space.

    The serving tier's fusion scheduler groups compatible queries across
    *different* resident sessions and executes the whole group as one
    gather → AND → popcount sweep.  A fused plan is the index of that
    sweep: each member plan's gather positions shifted by its segment's
    payload-row offset (so they address a virtually *stacked* payload —
    segment 0's rows first, then segment 1's, ...), plus the pair-space
    bounds needed to split the fused reductions back per segment.

    Fusion is pure concatenation: the pair order inside each segment is
    exactly the member plan's order, so every per-segment reduction is
    bit-identical to running that plan alone.
    """

    #: Fused gather positions into the stacked row payload (offset-baked).
    row_positions: np.ndarray
    #: Fused gather positions into the stacked column payload.
    col_positions: np.ndarray
    #: Exclusive prefix bounds of each segment's pair run (size ``n+1``).
    segment_bounds: np.ndarray
    #: Payload-row offset of each segment in the stacked row payload.
    row_offsets: np.ndarray
    #: Payload-row offset of each segment in the stacked column payload.
    col_offsets: np.ndarray
    #: The member plans, in segment order.
    plans: tuple

    @property
    def num_segments(self) -> int:
        return len(self.plans)

    @property
    def num_pairs(self) -> int:
        """Total matched pairs (= AND operations of the fused sweep)."""
        return int(self.row_positions.size)

    @property
    def nbytes(self) -> int:
        return (
            self.row_positions.nbytes
            + self.col_positions.nbytes
            + self.segment_bounds.nbytes
            + self.row_offsets.nbytes
            + self.col_offsets.nbytes
        )

    def segment_slice(self, index: int) -> slice:
        """The fused pair-space slice owned by segment ``index``."""
        return slice(
            int(self.segment_bounds[index]), int(self.segment_bounds[index + 1])
        )

    def split(self, per_pair: np.ndarray) -> list[np.ndarray]:
        """Split a fused per-pair array back into per-segment views.

        The inverse of the concatenation: ``split(pops)[i]`` is exactly
        what a lone sweep of ``plans[i]`` would have produced, so each
        segment's reduction (scalar accumulator, per-edge runs) proceeds
        as if it had never been fused.
        """
        per_pair = np.asarray(per_pair)
        if per_pair.shape[0] != self.num_pairs:
            raise ArchitectureError(
                f"fused split expects {self.num_pairs} per-pair values, "
                f"got {per_pair.shape[0]}"
            )
        return [per_pair[self.segment_slice(i)] for i in range(self.num_segments)]


def fuse_plans(plans, store=None) -> FusedPlan:
    """Concatenate compiled plans into one fused pair space.

    Each member's positions are shifted by the cumulative valid-slice
    counts of the preceding members — the offsets a physical
    ``np.concatenate`` of the payload arrays induces — so one sweep over
    the stacked payloads executes every member plan at once.  Callers
    group only lane-compatible plans (same slice width); this function
    is pure index arithmetic and does not see the payloads.  A ``store``
    routes the fused gather arrays through a backing store (disk-backed
    when large); per-sweep fused plans are usually left on heap.
    """
    plans = tuple(plans)
    if not plans:
        raise ArchitectureError("fuse_plans needs at least one plan")
    num = len(plans)
    row_offsets = np.zeros(num, dtype=np.int64)
    col_offsets = np.zeros(num, dtype=np.int64)
    np.cumsum([p.row_valid_slices for p in plans[:-1]], out=row_offsets[1:])
    np.cumsum([p.col_valid_slices for p in plans[:-1]], out=col_offsets[1:])
    segment_bounds = np.zeros(num + 1, dtype=np.int64)
    np.cumsum([p.num_pairs for p in plans], out=segment_bounds[1:])
    total = int(segment_bounds[-1])
    row_positions = _alloc(store, total, np.int64)
    col_positions = _alloc(store, total, np.int64)
    for i, plan in enumerate(plans):
        lo, hi = int(segment_bounds[i]), int(segment_bounds[i + 1])
        np.add(
            plan.row_positions, row_offsets[i], out=row_positions[lo:hi],
            casting="unsafe",
        )
        np.add(
            plan.col_positions, col_offsets[i], out=col_positions[lo:hi],
            casting="unsafe",
        )
    return FusedPlan(
        row_positions=row_positions,
        col_positions=col_positions,
        segment_bounds=segment_bounds,
        row_offsets=row_offsets,
        col_offsets=col_offsets,
        plans=plans,
    )


# ----------------------------------------------------------------------
# Incremental maintenance
# ----------------------------------------------------------------------
def oriented_structure_bits(
    delta_edges: np.ndarray, orientation: str, structure: str
) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) bit coordinates a delta batch touches in one
    oriented structure.

    ``structure`` is ``"row"`` (the successor structure) or ``"col"``
    (the predecessor structure, i.e. the transpose's rows).  For the
    ``"upper"`` orientation an edge ``u < v`` is bit ``(u, v)`` of the
    row structure and bit ``(v, u)`` of the column structure; for
    ``"symmetric"`` both structures hold both directions.
    """
    if structure not in ("row", "col"):
        raise ArchitectureError(f"structure must be 'row' or 'col', got {structure!r}")
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    if orientation == "upper":
        return (u, v) if structure == "row" else (v, u)
    if orientation == "symmetric":
        return np.concatenate([u, v]), np.concatenate([v, u])
    raise ArchitectureError(
        f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
    )


def merge_oriented_edges(
    sources: np.ndarray,
    destinations: np.ndarray,
    delta_edges: np.ndarray,
    orientation: str,
    num_vertices: int,
    insert: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Splice a canonical delta batch into a sorted oriented edge list.

    ``insert=True`` merges the delta edges in (they must be absent);
    ``insert=False`` removes them (they must be present) — the session
    filters no-ops before calling, exactly as for the slice maintenance.
    Preserves the legacy iteration order (lexicographic by source, then
    destination) for both orientations.
    """
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    if orientation == "upper":
        delta_src, delta_dst = u, v
    elif orientation == "symmetric":
        delta_src = np.concatenate([u, v])
        delta_dst = np.concatenate([v, u])
    else:
        raise ArchitectureError(
            f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
        )
    scale = np.int64(max(num_vertices, 1))
    delta_keys = delta_src * scale + delta_dst
    order = np.argsort(delta_keys, kind="stable")
    delta_keys = delta_keys[order]
    delta_src, delta_dst = delta_src[order], delta_dst[order]
    old_keys = sources * scale + destinations
    where = np.searchsorted(old_keys, delta_keys)
    if insert:
        if old_keys.size:
            clamped = np.minimum(where, old_keys.size - 1)
            if bool((old_keys[clamped] == delta_keys).any()):
                raise ArchitectureError(
                    "delta batch overlaps the resident edge list; filter "
                    "no-op insertions before splicing"
                )
        return (
            np.insert(sources, where, delta_src),
            np.insert(destinations, where, delta_dst),
        )
    if old_keys.size == 0 or bool(
        (old_keys[np.minimum(where, old_keys.size - 1)] != delta_keys).any()
    ):
        raise ArchitectureError(
            "delta batch names edges missing from the resident edge list; "
            "filter no-op deletions before splicing"
        )
    return np.delete(sources, where), np.delete(destinations, where)


def _shift_positions(positions: np.ndarray, delta: StructureDelta) -> np.ndarray:
    """Renumber surviving slice positions across one structural mutation.

    A composed delta (:meth:`StructureDelta.compose`) applies in its one
    order: the removal in pre-removal coordinates, then the insertion in
    post-removal coordinates.
    """
    if delta.removed_at.size:
        positions = positions - np.searchsorted(delta.removed_at, positions)
    if delta.inserted_before.size:
        positions = positions + np.searchsorted(
            delta.inserted_before, positions, side="right"
        )
    return positions


def _membership(sorted_keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Boolean membership of ``probes`` in a sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(probes.size, dtype=bool)
    where = np.searchsorted(sorted_keys, probes)
    clamped = np.minimum(where, sorted_keys.size - 1)
    return sorted_keys[clamped] == probes


def patch_join_plan(
    plan: JoinPlan,
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    old_sources: np.ndarray,
    old_destinations: np.ndarray,
    new_sources: np.ndarray,
    new_destinations: np.ndarray,
    row_delta: StructureDelta,
    col_delta: StructureDelta,
    batch_candidates: int = engine.DEFAULT_BATCH_CANDIDATES,
    *,
    store=None,
) -> JoinPlan:
    """Splice one update — a batch or a whole net delta — into a plan.

    ``plan`` was compiled for ``(old_sources, old_destinations)`` against
    the structures *before* the update; ``row_sliced``/``col_sliced`` are
    the structures *after* the in-place slice maintenance, whose
    structural changes are described by ``row_delta``/``col_delta``
    (what :func:`repro.core.incremental.set_bits`/``clear_bits`` return,
    or the removal-then-insertion composition
    :func:`~repro.core.incremental.splice_bits` returns for a net delta
    of deletions and insertions).  Only the affected edges — those added
    or removed, plus any existing edge whose source row or destination
    column gained/lost a valid slice — are re-joined; every other pair
    survives with a vectorised position renumbering.  Returns a **new**
    plan (the input is never mutated), array-equal to
    ``build_join_plan`` on the new edge list against the new structures.
    """
    num_rows = row_sliced.num_rows
    scale = np.int64(max(num_rows, 1))
    old_keys = old_sources * scale + old_destinations
    new_keys = new_sources * scale + new_destinations
    affected_row = np.zeros(num_rows, dtype=bool)
    affected_row[row_delta.inserted_rows] = True
    affected_row[row_delta.removed_rows] = True
    affected_col = np.zeros(col_sliced.num_rows, dtype=bool)
    affected_col[col_delta.inserted_rows] = True
    affected_col[col_delta.removed_rows] = True
    keep_old = (
        _membership(new_keys, old_keys)
        & ~affected_row[old_sources]
        & ~affected_col[old_destinations]
    )
    redo_new = (
        ~_membership(old_keys, new_keys)
        | affected_row[new_sources]
        | affected_col[new_destinations]
    )
    keep_new = ~redo_new
    if int(keep_old.sum()) != int(keep_new.sum()):
        raise ArchitectureError(
            "plan patch lost alignment between the old and new edge lists; "
            "this is a bug — rebuild the plan"
        )
    # --- surviving pairs: gather, then renumber shifted positions ------
    keep_idx = np.flatnonzero(keep_old)
    kept_counts = plan.pair_counts[keep_idx]
    kept_take = _expand_runs(plan.bounds[keep_idx], kept_counts)
    kept_row = _shift_positions(plan.row_positions[kept_take], row_delta)
    kept_col = _shift_positions(plan.col_positions[kept_take], col_delta)
    # Global keys of surviving column slices are invariant (owner row and
    # slice id never change), so the kept trace is a pure gather.
    kept_trace = plan.trace_keys[kept_take]
    # --- affected edges: delta re-join against the updated structures --
    redo_idx = np.flatnonzero(redo_new)
    redo_row_parts: list[np.ndarray] = []
    redo_col_parts: list[np.ndarray] = []
    redo_edge_parts: list[np.ndarray] = []
    for row_hit, col_hit, edge_ids in engine.join_batches(
        row_sliced,
        col_sliced,
        new_sources[redo_idx],
        new_destinations[redo_idx],
        batch_candidates,
        with_edge_ids=True,
    ):
        redo_row_parts.append(row_hit)
        redo_col_parts.append(col_hit)
        redo_edge_parts.append(edge_ids)
    if redo_row_parts:
        redo_row = np.concatenate(redo_row_parts)
        redo_col = np.concatenate(redo_col_parts)
        redo_counts = np.bincount(
            np.concatenate(redo_edge_parts), minlength=redo_idx.size
        )
        redo_trace = col_sliced.global_keys()[redo_col]
    else:
        redo_row = np.empty(0, dtype=np.int64)
        redo_col = np.empty(0, dtype=np.int64)
        redo_counts = np.zeros(redo_idx.size, dtype=np.int64)
        redo_trace = np.empty(0, dtype=np.int64)
    # --- splice ---------------------------------------------------------
    num_edges = int(new_sources.size)
    pair_counts = np.zeros(num_edges, dtype=np.int64)
    pair_counts[keep_new] = kept_counts
    pair_counts[redo_idx] = redo_counts
    bounds = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=bounds[1:])
    total = int(bounds[-1])
    row_dtype = _position_dtype(max(row_sliced.num_valid_slices, 1) - 1)
    col_dtype = _position_dtype(max(col_sliced.num_valid_slices, 1) - 1)
    trace_dtype = _position_dtype(col_sliced.num_rows * col_sliced.slices_per_row)
    row_positions = _alloc(store, total, row_dtype)
    col_positions = _alloc(store, total, col_dtype)
    trace_keys = _alloc(store, total, trace_dtype)
    kept_targets = _expand_runs(bounds[np.flatnonzero(keep_new)], kept_counts)
    row_positions[kept_targets] = kept_row
    col_positions[kept_targets] = kept_col
    trace_keys[kept_targets] = kept_trace
    redo_targets = _expand_runs(bounds[redo_idx], redo_counts)
    row_positions[redo_targets] = redo_row
    col_positions[redo_targets] = redo_col
    trace_keys[redo_targets] = redo_trace
    patched = JoinPlan(
        row_positions=row_positions,
        col_positions=col_positions,
        trace_keys=trace_keys,
        pair_counts=pair_counts,
        num_edges=num_edges,
        row_version=row_sliced.structure_version,
        col_version=col_sliced.structure_version,
        row_valid_slices=row_sliced.num_valid_slices,
        col_valid_slices=col_sliced.num_valid_slices,
    )
    patched._bounds = bounds
    return patched
