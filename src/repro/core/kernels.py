"""Generic bulk-bitwise subgraph kernels over the shared join machinery.

TCIM's core primitive is not "triangles" — it is bulk bitwise AND →
popcount over sliced adjacency rows.  The journal extension of the paper
generalises the architecture beyond triangle counting, and every kernel
of that family consumes the *same* joined (row, col) slice-pair
positions; only the reduction differs:

* **triangle counting** sums every pair popcount into one scalar
  accumulator (the paper's pipelined bit counter);
* **edge support** (k-truss seeding, common-neighbour scores) reduces
  the pair popcounts *per oriented edge* — over the symmetric
  orientation each directed edge's popcount is ``|N(u) ∩ N(v)|``;
* **per-vertex tallies** (clustering coefficients) further reduce the
  per-edge supports onto their source vertices.

:func:`execute_workload` is the one executor behind all of them: the
batched triangle dataflow, generalised so it can additionally
materialise per-edge popcount sums.  It shares
:func:`repro.core.engine.join_batches` and the resident
:class:`repro.core.plan.JoinPlan` fast path, so the compiled valid-pair
index — and its incremental patching — serves *every* workload, not
just triangle counts.  Events and cache statistics are identical to the
counting path field by field: the array executes the same gathers, ANDs
and popcounts regardless of how the host reduces them.

A :class:`BitwiseKernel` is deliberately small: a flag saying whether
per-edge popcount sums must be materialised, plus a ``finalize`` that
turns ``(accumulator, per_edge, sources, destinations)`` into the
workload's value.  The executor owns all the heavy machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import engine
from repro.core.reuse import CacheStatistics, simulate_key_trace
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph.graph import Graph

__all__ = [
    "BitwiseKernel",
    "CountKernel",
    "EdgeSupportKernel",
    "FusedSegment",
    "VertexTallyKernel",
    "WorkloadResult",
    "execute_fused",
    "execute_workload",
    "vertex_tallies_from_supports",
]

#: Physically stack the payloads only while the fused gather volume
#: amortises the copy; below this pairs-per-payload-row ratio the sweep
#: gathers segment-locally into the shared output instead (identical
#: results — the stack is an execution detail, not a semantic one).
FUSED_STACK_MAX_ROWS_PER_PAIR = 2


def vertex_tallies_from_supports(
    sources: np.ndarray, supports: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Per-vertex triangle counts from per-*directed*-edge supports.

    Over the symmetric orientation, each triangle ``{u, v, w}`` at vertex
    ``u`` contributes 1 to the support of both directed edges ``(u, v)``
    and ``(u, w)``, so the per-source sum double-counts triangles:
    ``t(u) = sum(support(u, ·)) / 2``.  Exact in int64 (the float64
    bincount weights are whole numbers far below 2**53).
    """
    summed = np.bincount(
        sources, weights=supports.astype(np.float64), minlength=num_vertices
    )
    return np.rint(summed).astype(np.int64) // 2


class BitwiseKernel:
    """One workload of the gather → AND → popcount family.

    ``per_edge`` tells :func:`execute_workload` whether per-edge popcount
    sums must be materialised (the counting fast path keeps a scalar
    accumulator and never allocates them).  ``finalize`` receives the
    scalar ``accumulator``, the per-edge int64 array (``None`` unless
    ``per_edge``), and the oriented edge arrays, and returns the
    workload's value.
    """

    name = "bitwise"
    per_edge = False

    def finalize(self, accumulator, per_edge, sources, destinations):
        raise NotImplementedError


class CountKernel(BitwiseKernel):
    """Triangle counting: the raw popcount accumulator (pre orientation
    division)."""

    name = "count"
    per_edge = False

    def finalize(self, accumulator, per_edge, sources, destinations):
        return accumulator


class EdgeSupportKernel(BitwiseKernel):
    """Per-oriented-edge popcount sums.

    Over the *symmetric* orientation the value of directed edge
    ``(u, v)`` is ``|N(u) ∩ N(v)|`` — the triangle support of the
    undirected edge ``{u, v}``, and the common-neighbour score of the
    (not necessarily linked) pair.  Over the ``"upper"`` orientation it
    is the oriented successor intersection, whose sum is the triangle
    count.
    """

    name = "support"
    per_edge = True

    def finalize(self, accumulator, per_edge, sources, destinations):
        return per_edge


class VertexTallyKernel(BitwiseKernel):
    """Per-vertex triangle tallies (clustering-coefficient numerators).

    Requires the full symmetric oriented edge list — the per-source
    reduction halves the double count each triangle leaves on its
    corner's two directed edges (see
    :func:`vertex_tallies_from_supports`).
    """

    name = "tally"
    per_edge = True

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)

    def finalize(self, accumulator, per_edge, sources, destinations):
        return vertex_tallies_from_supports(sources, per_edge, self.num_vertices)


@dataclass
class WorkloadResult:
    """Outcome of one :func:`execute_workload` run.

    ``value`` is whatever the kernel's ``finalize`` produced;
    ``accumulator`` is always the raw popcount sum (pre orientation
    division), and ``events``/``cache_stats`` match the counting
    executor field by field.
    """

    value: object
    accumulator: int
    events: dict
    cache_stats: CacheStatistics


def execute_workload(
    kernel: BitwiseKernel,
    graph: Graph | None,
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    orientation: str,
    column_capacity: int,
    policy,
    seed: int,
    batch_candidates: int = engine.DEFAULT_BATCH_CANDIDATES,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
    row_writes: int | None = None,
    plan=None,
) -> WorkloadResult:
    """Run one bulk-bitwise workload over the shared dataflow.

    ``edges`` restricts the run to one shard: a ``(sources,
    destinations)`` pair holding a subset of the oriented edge list in
    the oracle iteration order (rows ascending, successors ascending
    within a row).  The shard pays row-slice WRITEs only for the rows it
    touches (``row_writes`` passes that count when the caller already
    holds it) and runs its own private column-cache trace — one
    sub-array of the paper's Fig. 4 organisation.  With ``edges`` given,
    ``graph`` is never consulted and may be ``None``.

    ``plan`` passes a resident :class:`repro.core.plan.JoinPlan`
    compiled against these structures and this edge list: the
    merge-join is skipped and per-edge reductions run over the plan's
    ``pair_counts`` runs — so the one compiled valid-pair index serves
    every workload.  A stale plan (the structures mutated since
    compilation) raises :class:`~repro.errors.ArchitectureError`.  All
    paths (planned or not, whole-list or one shard's ``edges``) produce
    identical values, events and cache statistics.
    """
    if orientation not in ("upper", "symmetric"):
        raise ArchitectureError(
            f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
        )
    if batch_candidates < 1:
        batch_candidates = 1
    if plan is not None:
        if edges is None and graph is not None:
            # The oriented edge count is known without materialising the
            # list; a plan compiled for a different edge list must not be
            # trusted for its event accounting (mirrors the sharded
            # orchestrator's check).
            expected = (
                graph.num_edges
                if orientation == "upper"
                else 2 * graph.num_edges
            )
            if plan.num_edges != expected:
                raise ArchitectureError(
                    f"join plan covers {plan.num_edges} edges but the "
                    f"oriented graph has {expected}; compile a plan for "
                    "this edge list"
                )
        return _execute_planned(
            kernel, row_sliced, col_sliced, column_capacity, policy, seed,
            plan, edges=edges, row_writes=row_writes,
        )
    if edges is None:
        sources, destinations = engine.oriented_edges(graph, orientation)
        # Rows without successors carry no valid slices, so the per-row sum
        # of the oracle loop equals the total valid-slice count.
        row_writes = row_sliced.num_valid_slices
    else:
        sources, destinations = edges
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        if row_writes is None:
            # A shard loads only the rows it owns edges for, once each.
            _, touched_counts = row_sliced.row_slice_ranges(np.unique(sources))
            row_writes = int(touched_counts.sum())
    num_edges = int(sources.size)
    events = engine._base_events(num_edges, row_sliced.slices_per_row, row_writes)
    # The cache key of a column-slice access is exactly that slice's global
    # key in the column structure, whichever side was probed.
    col_global = col_sliced.global_keys()
    accumulator = 0
    matches = 0
    per_edge = np.zeros(num_edges, dtype=np.int64) if kernel.per_edge else None
    trace_parts: list[np.ndarray] = []
    workspace = engine._Workspace()
    for row_hit, col_hit, edge_ids in engine.join_batches(
        row_sliced, col_sliced, sources, destinations, batch_candidates,
        with_edge_ids=kernel.per_edge,
    ):
        if kernel.per_edge:
            pops = engine.pair_popcounts(
                row_sliced.data, col_sliced.data, row_hit, col_hit, workspace
            )
            accumulator += int(pops.sum())
            # Float64 bincount weights are exact here: every pair count
            # and partial sum is bounded far below 2**53.
            per_edge += np.bincount(
                edge_ids, weights=pops.astype(np.float64), minlength=num_edges
            ).astype(np.int64)
        else:
            accumulator += engine.pair_popcount(
                row_sliced.data, col_sliced.data, row_hit, col_hit, workspace
            )
        trace_parts.append(col_global[col_hit])
        matches += int(row_hit.size)
    events["and_operations"] = matches
    events["bitcount_operations"] = matches
    trace = (
        np.concatenate(trace_parts) if trace_parts else np.empty(0, dtype=np.int64)
    )
    cache_stats = simulate_key_trace(
        trace, column_capacity, policy=policy, seed=seed
    )
    events["col_slice_writes"] = cache_stats.writes
    events["col_slice_hits"] = cache_stats.hits
    return WorkloadResult(
        value=kernel.finalize(accumulator, per_edge, sources, destinations),
        accumulator=accumulator,
        events=events,
        cache_stats=cache_stats,
    )


def _execute_planned(
    kernel: BitwiseKernel,
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    column_capacity: int,
    policy,
    seed: int,
    plan,
    edges: tuple[np.ndarray, np.ndarray] | None,
    row_writes: int | None,
) -> WorkloadResult:
    """The resident-plan fast path: gather → AND → popcount, nothing else."""
    stale = plan.staleness(row_sliced, col_sliced)
    if stale:
        raise ArchitectureError(f"stale join plan: {stale}; rebuild or patch it")
    sources = destinations = None
    if edges is None:
        num_edges = plan.num_edges
        row_writes = row_sliced.num_valid_slices
    else:
        sources = np.asarray(edges[0], dtype=np.int64)
        destinations = np.asarray(edges[1], dtype=np.int64)
        num_edges = int(sources.size)
        if num_edges != plan.num_edges:
            raise ArchitectureError(
                f"join plan covers {plan.num_edges} edges but the run "
                f"supplies {num_edges}; compile a plan for this edge list"
            )
        if row_writes is None:
            _, touched_counts = row_sliced.row_slice_ranges(np.unique(sources))
            row_writes = int(touched_counts.sum())
    events = engine._base_events(num_edges, row_sliced.slices_per_row, row_writes)
    per_edge = None
    if kernel.per_edge:
        pops = engine.pair_popcounts(
            row_sliced.data, col_sliced.data, plan.row_positions, plan.col_positions
        )
        # Reduce each edge's pair run via prefix sums: exact for runs of
        # any length, including the zero-pair edges np.add.reduceat
        # would mis-handle.
        prefix = np.zeros(pops.size + 1, dtype=np.int64)
        np.cumsum(pops, out=prefix[1:])
        bounds = plan.bounds
        per_edge = prefix[bounds[1:]] - prefix[bounds[:-1]]
        accumulator = int(prefix[-1])
    else:
        accumulator = engine.pair_popcount(
            row_sliced.data, col_sliced.data, plan.row_positions, plan.col_positions
        )
    matches = plan.num_pairs
    events["and_operations"] = matches
    events["bitcount_operations"] = matches
    cache_stats = plan.cache_statistics(column_capacity, policy, seed)
    events["col_slice_writes"] = cache_stats.writes
    events["col_slice_hits"] = cache_stats.hits
    return WorkloadResult(
        value=kernel.finalize(accumulator, per_edge, sources, destinations),
        accumulator=accumulator,
        events=events,
        cache_stats=cache_stats,
    )


# ----------------------------------------------------------------------
# Cross-session fusion
# ----------------------------------------------------------------------
@dataclass
class FusedSegment:
    """One session's share of a fused sweep.

    Pairs a resident (or ad-hoc) :class:`repro.core.plan.JoinPlan` with
    the payload arrays it was compiled against plus the event/cache
    parameters its lone run would have used, so the fused executor can
    reproduce that run's ``WorkloadResult`` field by field.
    """

    kernel: BitwiseKernel
    plan: object
    row_data: np.ndarray
    col_data: np.ndarray
    slices_per_row: int
    row_writes: int
    column_capacity: int
    policy: object
    seed: int
    sources: np.ndarray | None = None
    destinations: np.ndarray | None = None


def execute_fused(
    segments, force_stacked: bool | None = None
) -> list[WorkloadResult]:
    """Execute many sessions' workloads as **one** gather→AND→popcount sweep.

    The fusion scheduler's kernel: concatenates the segments' plans into
    one fused pair space (:func:`repro.core.plan.fuse_plans`), runs a
    single popcount pass over it, then splits the reductions back per
    segment.  Each returned :class:`WorkloadResult` is bit-identical —
    value, accumulator, events, cache statistics — to running that
    segment alone through :func:`execute_workload` with its plan.

    When the fused gather volume amortises the copy, the payloads are
    physically stacked (``np.concatenate`` of the uint8 payload views —
    lane widths must match, which the scheduler's grouping guarantees)
    and the offset-baked fused positions drive one
    :func:`repro.core.engine.pair_popcounts` call.  For sparse probe
    batches whose pair count is small against the resident payloads, the
    sweep gathers segment-locally into the shared output instead; both
    paths produce the same bits (``force_stacked`` pins one for tests).
    """
    from repro.core.plan import fuse_plans

    segments = list(segments)
    if not segments:
        return []
    width = segments[0].row_data.shape[1]
    for seg in segments:
        if seg.row_data.shape[1] != width or seg.col_data.shape[1] != width:
            raise ArchitectureError(
                "fused segments must share one slice width; group by "
                "lane-compatible configurations before fusing"
            )
        if seg.plan.row_valid_slices != seg.row_data.shape[0] or (
            seg.plan.col_valid_slices != seg.col_data.shape[0]
        ):
            raise ArchitectureError(
                "fused segment plan does not match its payload arrays; "
                "snapshot plan and payload under one lock"
            )
    fused = fuse_plans([seg.plan for seg in segments])
    total_pairs = fused.num_pairs
    stack_rows = sum(s.row_data.shape[0] + s.col_data.shape[0] for s in segments)
    if force_stacked is None:
        stacked = stack_rows <= FUSED_STACK_MAX_ROWS_PER_PAIR * total_pairs
    else:
        stacked = bool(force_stacked)
    if stacked and len(segments) > 1:
        row_stack = np.concatenate([s.row_data for s in segments])
        col_stack = np.concatenate([s.col_data for s in segments])
        pops = engine.pair_popcounts(
            row_stack, col_stack, fused.row_positions, fused.col_positions
        )
    elif stacked:
        seg = segments[0]
        pops = engine.pair_popcounts(
            seg.row_data, seg.col_data,
            seg.plan.row_positions, seg.plan.col_positions,
        )
    else:
        workspace = engine._Workspace()
        pops = np.empty(total_pairs, dtype=np.int64)
        for i, seg in enumerate(segments):
            pops[fused.segment_slice(i)] = engine.pair_popcounts(
                seg.row_data, seg.col_data,
                seg.plan.row_positions, seg.plan.col_positions,
                workspace,
            )
    prefix = np.zeros(total_pairs + 1, dtype=np.int64)
    np.cumsum(pops, out=prefix[1:])
    results: list[WorkloadResult] = []
    for i, seg in enumerate(segments):
        lo = int(fused.segment_bounds[i])
        hi = int(fused.segment_bounds[i + 1])
        accumulator = int(prefix[hi] - prefix[lo])
        per_edge = None
        if seg.kernel.per_edge:
            bounds = seg.plan.bounds + lo
            per_edge = prefix[bounds[1:]] - prefix[bounds[:-1]]
        events = engine._base_events(
            seg.plan.num_edges, seg.slices_per_row, seg.row_writes
        )
        events["and_operations"] = seg.plan.num_pairs
        events["bitcount_operations"] = seg.plan.num_pairs
        cache_stats = seg.plan.cache_statistics(
            seg.column_capacity, seg.policy, seg.seed
        )
        events["col_slice_writes"] = cache_stats.writes
        events["col_slice_hits"] = cache_stats.hits
        results.append(
            WorkloadResult(
                value=seg.kernel.finalize(
                    accumulator, per_edge, seg.sources, seg.destinations
                ),
                accumulator=accumulator,
                events=events,
                cache_stats=cache_stats,
            )
        )
    return results
