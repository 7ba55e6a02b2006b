"""Unified session facade: one stateful entry point for the reproduction.

The paper's controller (Fig. 4) holds the sliced, compressed graph
resident in the MRAM array and serves queries against it.  Before this
module, every caller re-created that residency by hand: functional runs
went through :meth:`TCIMAccelerator.run` (re-slicing per call), priced
runs through :func:`repro.arch.pipeline.simulate_sharded`, and dynamic
workloads through :class:`~repro.core.dynamic.DynamicTriangleCounter`
(pure-Python set intersections).  :class:`TCIMSession` models the
resident controller directly:

* the graph is loaded **once** — the oriented edge list, both
  :class:`SlicedMatrix` structures, the slice statistics, the shard
  plan, and the compiled valid-pair :class:`~repro.core.plan.JoinPlan`
  are cached and reused across queries (repeat queries skip the
  merge-join entirely; disable with ``use_plan=False`` / ``--no-plan``);
* :meth:`TCIMSession.count` / :meth:`TCIMSession.simulate` /
  :meth:`TCIMSession.slice_stats` / :meth:`TCIMSession.baseline` serve
  repeated queries without re-slicing;
* :meth:`TCIMSession.apply` / :meth:`TCIMSession.apply_edges` stream
  edge insertions/deletions through the **vectorized engine** as a
  delta re-join of only the affected rows' slice pairs
  (:mod:`repro.core.incremental`), shard-aware and with per-shard
  :class:`EventCounts` deltas merged — dynamic workloads get the same
  speedup as full runs.

Engine and baseline dispatch goes through :mod:`repro.registry`, so new
backends plug in without touching this facade.

Usage::

    from repro import open_session

    session = open_session("dataset:com-dblp@0.05", num_arrays=4)
    print(session.count())                   # cached compressed graph
    report = session.simulate()              # unified RunReport
    update = session.apply([("+", 0, 1), ("-", 2, 3)])
    print(update.triangles, update.delta_triangles)
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import registry
from repro.core import incremental
from repro.core import kernels
from repro.core import plan as joinplan
from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    TCIMAccelerator,
    TCIMRunResult,
)
from repro.core.engine import oriented_edges
from repro.core.reuse import CacheStatistics
from repro.core.sharding import array_budget, plan_shards, run_position_split
from repro.core.slicing import SlicedMatrix, SliceStatistics, slice_statistics
from repro.errors import ArchitectureError, GraphError, ReproError, StorageError
from repro.graph.graph import Graph
from repro.storage import snapshot as storage_snapshot
from repro.storage.backing import BackingStore

_log = logging.getLogger(__name__)

__all__ = [
    "ClusteringReport",
    "RunReport",
    "UpdateReport",
    "TCIMSession",
    "open_session",
    "resolve_graph",
]


#: Edge-window size of chunked plan compiles on memmap-backed sessions.
#: 64k edges keeps the compile's transient heap in the tens of MB even
#: on dense pair distributions, while large enough that the per-window
#: merge-join overhead stays negligible.
_PLAN_CHUNK_EDGES = 65_536


def resolve_graph(spec) -> Graph:
    """Resolve a graph source: a :class:`Graph`, a file path, or a
    ``<scheme>:<rest>`` spec such as ``dataset:roadnet-pa@0.02``.

    Scheme specs dispatch through the source registry
    (:func:`repro.registry.register_source`), so custom loaders — remote
    fetchers, generators, caches — plug in without touching this
    function; anything whose prefix is not a registered scheme is
    treated as a file path, keeping paths with colons working.
    """
    if isinstance(spec, Graph):
        return spec
    if not isinstance(spec, str):
        raise ReproError(
            f"graph source must be a Graph, a path, or a dataset spec, "
            f"got {type(spec).__name__}"
        )
    scheme, sep, remainder = spec.partition(":")
    if sep and scheme in registry.source_schemes():
        return registry.source_resolver(scheme)(remainder, spec)
    from repro.graph.io import load_graph

    return load_graph(spec)


@dataclass
class RunReport:
    """Unified outcome of one priced session query.

    Combines the functional result (:class:`TCIMRunResult` — triangles,
    events, cache and slice statistics, per-shard breakdown) with the
    architecture model's pricing (a :class:`~repro.arch.perf.PerfReport`;
    for sharded runs the measured critical path — slowest shard — plus
    one :class:`PerfReport` per simulated array).
    """

    result: TCIMRunResult
    perf: "PerfReport"  # noqa: F821 - repro.arch.perf, imported lazily
    shard_perf: list = field(default_factory=list)

    @property
    def triangles(self) -> int:
        return self.result.triangles

    @property
    def events(self) -> EventCounts:
        return self.result.events

    @property
    def cache_stats(self) -> CacheStatistics:
        return self.result.cache_stats

    @property
    def slice_stats(self) -> SliceStatistics:
        return self.result.slice_stats

    @property
    def shards(self) -> list:
        return self.result.shards

    @property
    def latency_s(self) -> float:
        return self.perf.latency_s

    def to_mapping(self) -> dict:
        """JSON-able summary (the CLI's ``--json`` payload)."""
        config = self.result.config
        payload = {
            "triangles": self.result.triangles,
            "num_arrays": config.num_arrays,
            "shard_by": config.shard_by,
            "events": asdict(self.result.events),
            "cache": asdict(self.result.cache_stats),
            "cache_hit_percent": self.result.cache_stats.hit_percent,
            "write_savings_percent": self.result.events.write_savings_percent,
            "computation_reduction_percent":
                self.result.events.computation_reduction_percent,
            "latency_s": self.perf.latency_s,
            "array_energy_j": self.perf.array_energy_j,
            "system_energy_j": self.perf.system_energy_j,
        }
        if self.result.notes:
            payload["notes"] = dict(self.result.notes)
        if self.result.shards:
            loads = [shard.edges for shard in self.result.shards]
            mean = sum(loads) / len(loads)
            # Partitioner balance: the latency multiplier the heaviest
            # shard imposes on an otherwise even fleet (1.0 = perfect).
            payload["balance"] = max(loads) / mean if mean else 1.0
            reports = self.shard_perf or [None] * len(self.result.shards)
            payload["shards"] = [
                {
                    "shard_id": shard.shard_id,
                    "edges": shard.edges,
                    "rows": shard.rows,
                    "events": asdict(shard.events),
                    **(
                        {"latency_s": report.latency_s}
                        if report is not None
                        else {}
                    ),
                }
                for shard, report in zip(self.result.shards, reports)
            ]
        return payload


@dataclass
class UpdateReport:
    """Outcome of one incremental update batch/stream.

    ``events`` / ``cache_stats`` account the engine work of the delta
    re-joins (merged across segments, terms, and shards) — the numbers
    the performance model prices, exactly as for full runs.
    """

    #: Operations submitted (including no-ops).
    requested: int
    #: Edges actually inserted (submitted minus no-ops/duplicates).
    inserted: int
    #: Edges actually deleted.
    deleted: int
    #: Net triangle-count change of the whole batch.
    delta_triangles: int
    #: Exact triangle count after the batch.
    triangles: int
    #: Engine batches executed (consecutive same-type ops coalesce).
    segments: int
    events: EventCounts = field(default_factory=EventCounts)
    cache_stats: CacheStatistics = field(default_factory=CacheStatistics)
    #: Signed per-operation deltas, only with ``record=True`` (each op
    #: runs as its own segment, the differential-testing mode).
    per_op_deltas: list[int] | None = None

    def to_mapping(self) -> dict:
        """JSON-able summary (the CLI's ``--json`` payload)."""
        payload = {
            "requested": self.requested,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "delta_triangles": self.delta_triangles,
            "triangles": self.triangles,
            "segments": self.segments,
            "events": asdict(self.events),
            "cache": asdict(self.cache_stats),
        }
        if self.per_op_deltas is not None:
            payload["per_op_deltas"] = list(self.per_op_deltas)
        return payload


@dataclass
class ClusteringReport:
    """Clustering metrics derived from one per-vertex tally workload.

    Every field comes from the engine's per-edge supports reduced onto
    vertices — one gather → AND → popcount pass over the resident
    symmetric structures serves the local coefficients, the global
    transitivity, and the triangle total at once.  Value-identical to
    the pure-Python oracles in :mod:`repro.analysis.metrics`.
    """

    #: Local clustering coefficient per vertex (0.0 where degree < 2).
    local: np.ndarray
    #: Exact triangle count through each vertex.
    triangles_per_vertex: np.ndarray
    #: Mean of the local coefficients (Watts–Strogatz).
    average: float
    #: Global transitivity ``3 * triangles / wedges`` (0.0 without wedges).
    transitivity: float
    #: Number of wedges (paths of length 2), ``sum C(deg, 2)``.
    wedges: int
    #: Total triangle count.
    triangles: int

    def to_mapping(self) -> dict:
        """JSON-able summary (the serving tier's ``cluster`` payload)."""
        return {
            "num_vertices": int(self.local.size),
            "average_clustering": self.average,
            "transitivity": self.transitivity,
            "wedges": self.wedges,
            "triangles": self.triangles,
        }


class TCIMSession:
    """Stateful TCIM entry point: one resident graph, many queries.

    Construct via :func:`open_session` (which also resolves dataset
    specs and config mappings), or directly from a :class:`Graph`.
    The session is also a context manager; ``close()`` drops the cached
    structures.

    **Concurrency**: every public method holds the session's reentrant
    lock for its whole duration, so a session may be shared between
    threads — an in-flight :meth:`apply` can never interleave with
    :meth:`count`/:meth:`simulate` and expose half-maintained slice
    structures.  The lock serialises *per session*; for concurrency
    across many resident graphs, put sessions behind
    :class:`repro.serve.Service`, which multiplexes them on a worker
    pool.
    """

    def __init__(
        self,
        graph: Graph,
        config: AcceleratorConfig | None = None,
        model=None,
    ) -> None:
        self.config = config or AcceleratorConfig()
        # Validates the config eagerly (partitioner names, capacity).
        self._accelerator = TCIMAccelerator(self.config)
        self._model = model
        # One reentrant lock serialises every public entry point (count
        # calls itself from _apply_segments, hence reentrant).
        self._lock = threading.RLock()
        # Bumped on every successful mutation (and on close); lets callers
        # — the serving tier's cache coalescing in particular — detect
        # that resident caches were rebuilt, i.e. engine work was redone.
        self._generation = 0
        self._num_vertices = graph.num_vertices
        # The last materialised graph plus the batches committed since:
        # reading ``graph`` splices their net delta into this snapshot
        # (repro.core.incremental.splice_graph) rather than re-sorting
        # the edge set.  The backlog is bounded like _pending_patches.
        self._graph: Graph = graph
        self._graph_pending: list[tuple[np.ndarray, bool]] = []
        self._graph_pending_edges = 0
        self._edge_set: set[tuple[int, int]] | None = None
        # Where the large resident arrays live (repro.storage.backing):
        # config.storage_dir selects a memmap store that spills slice
        # payloads and plan arrays to disk; the default ram store keeps
        # the historical heap behaviour.  With a memmap store, plan
        # compilation also streams through bounded edge windows so its
        # peak heap is O(window), not O(pairs).
        self._store = BackingStore.from_config(self.config)
        self._plan_chunk_edges = (
            _PLAN_CHUNK_EDGES if self._store.kind == "memmap" else None
        )
        # Resident compressed state, built lazily and reused across queries.
        self._row_sliced: SlicedMatrix | None = None
        self._col_sliced: SlicedMatrix | None = None
        self._edge_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._plan = None
        # Self-contained coloring shards (shard_by="coloring"): each
        # holds its own structures, edge lanes and compiled lane plans
        # (repro.core.sharding.ShardContext).  Built lazily by _prepare,
        # patched in place per committed batch — apply routes each delta
        # to the owning contexts only — and dropped with the other
        # structural caches on any patching failure (rebuildable).
        self._shard_contexts: list | None = None
        self._shard_colors: np.ndarray | None = None
        self._use_contexts = (
            self.config.num_arrays > 1 and self.config.shard_by == "coloring"
        )
        # The zero-copy execution plane (backing="shm" with workers):
        # a resident ContextPool whose workers hold the coloring shards
        # attached as shared-memory segments.  Created lazily with the
        # contexts, published to after every context patch, closed
        # whenever the contexts drop.
        self._context_pool = None
        self._use_pool = (
            self._use_contexts
            and self.config.workers > 0
            and self.config.backing == "shm"
        )
        self._sym_sliced: SlicedMatrix | None = None
        # The compiled valid-pair index (repro.core.plan.JoinPlan):
        # built once per generation, incrementally patched by apply, and
        # handed to every vectorized engine run so repeat queries skip
        # the merge-join.  Gated by config.use_plan (CLI --no-plan).
        self._join_plan = None
        # Coloring sessions never consume the global count-orientation
        # plan — every context lane compiles its own — so skip building
        # it; config.use_plan still gates the per-lane plans.
        self._use_plan = bool(self.config.use_plan) and not self._use_contexts
        # The symmetric-orientation twin of the resident plan: workload
        # queries (support/truss/clustering/common-neighbors) all join
        # the symmetric structure against itself, so they share one
        # compiled valid-pair index.  The symmetric structure mutates
        # eagerly per committed batch (see _insert_batch/_delete_batch),
        # so this plan is patched eagerly too — gated by config.use_plan.
        self._sym_edge_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._sym_plan = None
        self._use_workload_plan = bool(self.config.use_plan)
        #: Cached workload results (per-edge supports, support map,
        #: clustering, common-neighbor candidate lists), invalidated on
        #: every mutation.
        self._workload_cache: dict = {}
        # Committed delta batches not yet folded into the oriented
        # structures/plan.  Applies only queue here (O(1)); the next
        # engine query folds the queue into one net delta and splices it
        # once — so pure update streams never pay splice costs, and
        # read-after-write pays one splice and one plan patch instead of
        # a re-slice + plan recompile.
        self._pending_patches: list[tuple[np.ndarray, bool]] = []
        self._pending_edges = 0
        # Times each incremental patch path gave up and dropped its
        # caches for a cold rebuild (see patch_fallbacks).
        self._patch_fallbacks = {"flush": 0, "contexts": 0, "sym_plan": 0}
        # Cached query results, invalidated by updates.
        self._slice_stats: SliceStatistics | None = None
        self._run: TCIMRunResult | None = None
        self._report: RunReport | None = None
        self._baseline_cache: dict[str, int] = {}
        self._triangles: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "TCIMSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop every cached structure (the session stays usable)."""
        with self._lock:
            self._invalidate()
            self._sym_sliced = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertex count (fixed for the session's lifetime)."""
        return self._num_vertices

    @property
    def lock(self) -> threading.RLock:
        """The session's reentrant lock.

        Every public method already holds it; take it explicitly to make
        a multi-step read atomic against concurrent updates, e.g.
        ``with session.lock: result, gen = session.run(), session.generation``.
        """
        return self._lock

    @property
    def generation(self) -> int:
        """Monotone mutation counter.

        Bumped every time the resident caches are invalidated (each
        applied update batch, and ``close()``).  Two reads of the same
        cached query under an unchanged generation did no new engine
        work — the signal :class:`repro.serve.Service` uses to coalesce
        repeat queries and to price only fresh work.
        """
        with self._lock:
            return self._generation

    @property
    def num_edges(self) -> int:
        """Current edge count."""
        with self._lock:
            if self._edge_set is not None:
                return len(self._edge_set)
            return self.graph.num_edges

    @property
    def graph(self) -> Graph:
        """Snapshot of the current graph.

        After updates, the last materialised snapshot advances by one
        splice of the net delta committed since
        (:func:`repro.core.incremental.splice_graph`): a few array moves
        over its edge list and CSR, with toggles that cancel out costing
        nothing.  The splice checks that the net deletions were present,
        the net insertions absent and the resulting edge count matches
        the maintained edge set, and raises
        :class:`~repro.errors.ArchitectureError` otherwise.
        """
        with self._lock:
            if self._graph_pending:
                self._fold_graph()
            return self._graph

    @property
    def patch_fallbacks(self) -> dict[str, int]:
        """How often each incremental patch path fell back to a rebuild.

        Keys: ``flush`` (the oriented structures, edge arrays and join
        plan folded on read), ``contexts`` (the coloring shard contexts
        and their pool) and ``sym_plan`` (the symmetric workload plan
        patched per committed batch).  A fallback drops that path's
        caches, so results stay exact and only get slower; each one
        also logs a ``patch_fallback`` event on the ``repro.api``
        logger.  A copy; never reset.
        """
        with self._lock:
            return dict(self._patch_fallbacks)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is currently present."""
        with self._lock:
            self._materialise_edge_set()
            return (min(u, v), max(u, v)) in self._edge_set

    def resident_bytes(self) -> int:
        """Estimated footprint of the resident compressed structures.

        Sums the numpy payloads of every cached :class:`SlicedMatrix`
        (row, column, and incrementally maintained symmetric structures),
        the oriented edge arrays, the compiled join plan, and a per-edge
        estimate for the materialised edge set.  This is the figure
        :class:`repro.serve.SessionPool` budgets its eviction against;
        a freshly opened session reports only its graph's edge list and
        CSR.
        """
        return self.resident_bytes_detail()["total"]

    def resident_bytes_detail(self) -> dict:
        """:meth:`resident_bytes` decomposed the way paging decisions need.

        Keys (all bytes): ``slices`` (the resident slice structures),
        ``plan`` / ``sym_plan`` (the compiled join plans), ``edges``
        (the oriented edge arrays), ``graph`` (the retained graph
        snapshot's edge list and CSR, plus the materialised edge set),
        ``shards`` (the self-contained coloring shard contexts —
        per-shard structures, edge lanes and lane plans; 0 unless
        ``shard_by="coloring"`` contexts are resident),
        ``spilled`` (how much of the above is disk-backed rather than
        on heap — 0 for a ram store), ``shared`` (how much lives in
        named shared-memory segments pool workers attach zero-copy —
        0 unless ``backing="shm"``), and ``total``
        (== :meth:`resident_bytes`).  Surfaced per session by the
        serving tier's ``stats`` protocol op.
        """
        with self._lock:
            slices = sum(
                sliced.data.nbytes + sliced.slice_ids.nbytes + sliced.indptr.nbytes
                for sliced in (self._row_sliced, self._col_sliced, self._sym_sliced)
                if sliced is not None
            )
            edges = sum(
                array.nbytes
                for arrays in (self._edge_arrays, self._sym_edge_arrays)
                if arrays is not None
                for array in arrays
            )
            plan = self._join_plan.nbytes if self._join_plan is not None else 0
            sym_plan = self._sym_plan.nbytes if self._sym_plan is not None else 0
            indptr, indices = self._graph.csr
            graph = self._graph.edge_array().nbytes + indptr.nbytes + indices.nbytes
            if self._edge_set is not None:
                # CPython footprint of a set of int 2-tuples, measured
                # ~200 B/edge; 128 keeps the estimate conservative-cheap.
                graph += 128 * len(self._edge_set)
            shards = sum(
                context.nbytes for context in (self._shard_contexts or ())
            )
            shared = self._store.shared_bytes
            if self._context_pool is not None:
                shared += self._context_pool.shared_bytes
            return {
                "slices": slices,
                "plan": plan,
                "sym_plan": sym_plan,
                "edges": edges,
                "graph": graph,
                "shards": shards,
                "spilled": self._store.spilled_bytes,
                "shared": shared,
                "total": slices + plan + sym_plan + edges + graph + shards,
            }

    def shard_residency(self) -> list[dict]:
        """Per-shard residency of the resident coloring contexts.

        One mapping per :class:`~repro.core.sharding.ShardContext` —
        shard id, owned color triple, owned oriented edges, and resident
        bytes (structures + lanes + compiled lane plans).  Empty unless
        ``shard_by="coloring"`` contexts are resident; surfaced per
        session by the serving tier's ``stats`` protocol op.
        """
        with self._lock:
            if not self._shard_contexts:
                return []
            return [
                {
                    "shard_id": context.shard_id,
                    "triple": list(context.triple),
                    "edges": context.num_edges,
                    "resident_bytes": context.nbytes,
                }
                for context in self._shard_contexts
            ]

    @property
    def join_plan(self):
        """The resident :class:`~repro.core.plan.JoinPlan` (or ``None``).

        Compiled lazily by the first engine-executing query when
        ``config.use_plan`` holds, then patched in place of rebuilt as
        updates commit.  Reading the property folds any pending update
        batches in first, so the returned plan always reflects the
        current graph.  Plans are immutable objects — the reference
        returned here stays internally consistent even if a later update
        swaps the session to a patched successor.
        """
        with self._lock:
            self._flush_patches()
            return self._join_plan

    def plan_resident_bytes(self) -> int:
        """Footprint of the compiled join plans (0 when none is resident).

        Counts both the count-orientation plan and its symmetric twin
        serving the workload queries.
        """
        with self._lock:
            return sum(
                plan.nbytes
                for plan in (self._join_plan, self._sym_plan)
                if plan is not None
            )

    # ------------------------------------------------------------------
    # Snapshots (repro.storage)
    # ------------------------------------------------------------------
    def snapshot(self, path, *, ensure: bool = True):
        """Persist the session's resident state as an on-disk snapshot.

        Writes the versioned manifest + content-hashed segment format of
        :mod:`repro.storage.snapshot`: the current edge list, every
        resident slice structure (row / column / symmetric), the
        oriented edge arrays, both compiled join plans, the generation
        counter, and the incrementally maintained triangle total — so
        ``open_session(snapshot=path)`` hydrates warm, without
        re-slicing or re-compiling.  ``ensure=True`` (the default) warms
        the structures and plans first; ``ensure=False`` (the pool's
        eviction write-back path) serialises only what is already
        resident, never forcing plan builds at eviction time.

        Returns the snapshot directory path.
        """
        with self._lock:
            self._flush_patches()
            if ensure:
                self._prepare()
                self._ensure_join_plan()
                self._sym()
                self._ensure_sym_edges()
                self._ensure_sym_plan()
            meta, arrays = self._snapshot_state()
            return storage_snapshot.write_snapshot(path, meta, arrays)

    def _snapshot_state(self) -> tuple[dict, dict]:
        """The ``(meta, arrays)`` pair a snapshot persists.

        Callers hold ``self._lock`` with patches flushed.  Only resident
        pieces are included; the manifest's ``structures`` /
        ``edge_lists`` / ``plans`` tables record what is present so
        hydration restores exactly the warmth that was serialised.
        """
        arrays: dict[str, np.ndarray] = {"graph.edges": self.graph.edge_array()}
        # The symmetric CSR rides along so hydration reassembles the
        # Graph via Graph.from_parts — skipping the canonicalise +
        # lexsort passes, which would otherwise dominate warm opens.
        indptr, indices = self.graph.csr
        arrays["graph.indptr"] = indptr
        arrays["graph.indices"] = indices
        structures: dict[str, dict] = {}
        for name, sliced in (
            ("row", self._row_sliced),
            ("col", self._col_sliced),
            ("sym", self._sym_sliced),
        ):
            if sliced is None:
                continue
            structures[name] = {
                "num_rows": sliced.num_rows,
                "num_cols": sliced.num_cols,
                "slice_bits": sliced.slice_bits,
                "structure_version": sliced.structure_version,
            }
            arrays[f"{name}.indptr"] = sliced.indptr
            arrays[f"{name}.slice_ids"] = sliced.slice_ids
            arrays[f"{name}.data"] = sliced.data
        edge_lists = []
        for name, pair in (
            ("edges", self._edge_arrays),
            ("sym_edges", self._sym_edge_arrays),
        ):
            if pair is None:
                continue
            edge_lists.append(name)
            arrays[f"{name}.sources"] = pair[0]
            arrays[f"{name}.destinations"] = pair[1]
        plans: dict[str, dict] = {}
        for name, plan in (("plan", self._join_plan), ("sym_plan", self._sym_plan)):
            if plan is None:
                continue
            plans[name] = {
                "num_edges": plan.num_edges,
                "row_version": plan.row_version,
                "col_version": plan.col_version,
                "row_valid_slices": plan.row_valid_slices,
                "col_valid_slices": plan.col_valid_slices,
            }
            arrays[f"{name}.row_positions"] = plan.row_positions
            arrays[f"{name}.col_positions"] = plan.col_positions
            arrays[f"{name}.trace_keys"] = plan.trace_keys
            arrays[f"{name}.pair_counts"] = plan.pair_counts
        # Coloring shard contexts are fully determined by (graph,
        # orientation, num_arrays, seed), so snapshots record their
        # summary for accounting and rebuild them deterministically on
        # the first post-hydration query instead of persisting C× the
        # edge volume.
        shard_contexts = None
        if self._shard_contexts:
            shard_contexts = {
                "colors": self._shard_contexts[0].colors,
                "seed": self._shard_contexts[0].color_seed,
                "num_shards": len(self._shard_contexts),
                "resident_bytes": sum(
                    context.nbytes for context in self._shard_contexts
                ),
                "edges_per_shard": [
                    context.num_edges for context in self._shard_contexts
                ],
            }
        meta = {
            "config": self.config.to_mapping(),
            "generation": self._generation,
            "triangles": self._triangles,
            "num_vertices": self._num_vertices,
            "num_edges": self.num_edges,
            "structures": structures,
            "edge_lists": edge_lists,
            "plans": plans,
            "shard_contexts": shard_contexts,
        }
        return meta, arrays

    def _hydrate(self, meta: dict, arrays: dict) -> None:
        """Adopt a snapshot's structural state (``open_session(snapshot=)``).

        The session is freshly constructed and unshared, so no lock is
        needed.  The generation counter and the maintained triangle
        total always carry over; the compressed structures, oriented
        edge arrays and compiled plans carry over only when the
        effective config agrees with the snapshot on the fields they
        were built under (slice width, orientation) — on a mismatch they
        are left to rebuild lazily under the new config.
        """
        self._generation = int(meta.get("generation", 0))
        triangles = meta.get("triangles")
        self._triangles = int(triangles) if triangles is not None else None
        saved = meta.get("config", {})
        if (
            saved.get("slice_bits") != self.config.slice_bits
            or saved.get("orientation") != self.config.orientation
        ):
            return
        adopt = self._store.adopt
        structures = meta.get("structures", {})

        def take(name: str) -> np.ndarray:
            try:
                return arrays[name]
            except KeyError:
                raise StorageError(
                    f"snapshot manifest names array {name!r} but the segment "
                    f"table has no such entry"
                ) from None

        def load_structure(name: str) -> SlicedMatrix | None:
            info = structures.get(name)
            if info is None:
                return None
            sliced = SlicedMatrix(
                int(info["num_rows"]),
                int(info["num_cols"]),
                int(info["slice_bits"]),
                take(f"{name}.indptr"),
                adopt(take(f"{name}.slice_ids")),
                adopt(take(f"{name}.data")),
            )
            sliced.structure_version = int(info["structure_version"])
            return sliced

        def load_edges(name: str) -> tuple[np.ndarray, np.ndarray] | None:
            if name not in meta.get("edge_lists", []):
                return None
            return (take(f"{name}.sources"), take(f"{name}.destinations"))

        def load_plan(name: str, row_sliced, col_sliced, enabled: bool):
            info = meta.get("plans", {}).get(name)
            if info is None or not enabled:
                return None
            if row_sliced is None or col_sliced is None:
                return None
            plan = joinplan.JoinPlan(
                row_positions=adopt(take(f"{name}.row_positions")),
                col_positions=adopt(take(f"{name}.col_positions")),
                trace_keys=adopt(take(f"{name}.trace_keys")),
                pair_counts=take(f"{name}.pair_counts"),
                num_edges=int(info["num_edges"]),
                row_version=int(info["row_version"]),
                col_version=int(info["col_version"]),
                row_valid_slices=int(info["row_valid_slices"]),
                col_valid_slices=int(info["col_valid_slices"]),
            )
            # Defensive: a hand-assembled snapshot could pair a plan with
            # structures it was not compiled for — rebuild, never serve.
            return plan if plan.matches(row_sliced, col_sliced) else None

        self._row_sliced = load_structure("row")
        self._col_sliced = load_structure("col")
        self._sym_sliced = load_structure("sym")
        self._edge_arrays = load_edges("edges")
        self._sym_edge_arrays = load_edges("sym_edges")
        self._join_plan = load_plan(
            "plan", self._row_sliced, self._col_sliced, self._use_plan
        )
        self._sym_plan = load_plan(
            "sym_plan", self._sym_sliced, self._sym_sliced, self._use_workload_plan
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Exact triangle count of the current graph.

        Served from the incrementally maintained total when updates have
        been applied; otherwise one full run on the resident compressed
        structures (cached for repeat calls).
        """
        with self._lock:
            if self._triangles is None:
                self._triangles = self._full_run().triangles
            return self._triangles

    def simulate(self) -> RunReport:
        """Full priced run: functional result + architecture-model pricing.

        Bit-identical to ``TCIMAccelerator(config).run(graph)`` plus the
        matching perf evaluation — the session only skips the re-slicing,
        never changes the dataflow.  Cached until the graph changes.
        """
        with self._lock:
            if self._report is None:
                from repro.arch.perf import default_pim_model

                result = self._full_run()
                model = self._model or default_pim_model()
                if result.shards:
                    from repro.arch.pipeline import measured_shard_report

                    perf = measured_shard_report(result, model)
                    shard_perf = [
                        model.evaluate(shard.events, shard.rows)
                        for shard in result.shards
                    ]
                else:
                    perf = model.evaluate(result.events)
                    shard_perf = []
                self._report = RunReport(
                    result=result, perf=perf, shard_perf=shard_perf
                )
            return self._report

    def run(self) -> TCIMRunResult:
        """The raw functional run result (``simulate()`` without pricing)."""
        with self._lock:
            return self._full_run()

    def slice_stats(self) -> SliceStatistics:
        """Table III/IV compression statistics of the resident structures."""
        with self._lock:
            if self._slice_stats is None:
                self._prepare()
                self._slice_stats = slice_statistics(
                    self.graph,
                    slice_bits=self.config.slice_bits,
                    orientation=self.config.orientation,
                    row_sliced=self._row_sliced,
                    col_sliced=self._col_sliced,
                )
            return self._slice_stats

    def baseline(self, name: str) -> int:
        """Triangle count via a registered software baseline (cached)."""
        with self._lock:
            if name not in self._baseline_cache:
                self._baseline_cache[name] = int(registry.baseline(name)(self.graph))
            return self._baseline_cache[name]

    # ------------------------------------------------------------------
    # Bulk-bitwise workloads (the shared kernel path)
    # ------------------------------------------------------------------
    def support(self) -> dict[tuple[int, int], int]:
        """Triangle support of every undirected edge.

        ``support[(u, v)] = |N(u) ∩ N(v)|`` for each edge ``u < v`` — the
        quantity k-truss peeling consumes.  Computed by one per-edge
        :class:`~repro.core.kernels.EdgeSupportKernel` pass over the
        resident symmetric structures (sharded across
        ``config.num_arrays``, reusing the resident symmetric join plan),
        value-identical to :func:`repro.analysis.truss.edge_support`.
        Cached until the graph changes.
        """
        with self._lock:
            cached = self._workload_cache.get("support_map")
            if cached is None:
                per_edge, _, _ = self._supports_run()
                sources, destinations = self._ensure_sym_edges()
                forward = sources < destinations
                cached = {
                    (u, v): score
                    for u, v, score in zip(
                        sources[forward].tolist(),
                        destinations[forward].tolist(),
                        per_edge[forward].tolist(),
                    )
                }
                self._workload_cache["support_map"] = cached
            # Hand out a copy: peeling callers mutate their support maps.
            return dict(cached)

    def truss(self, k: int | None = None):
        """Truss decomposition seeded from the engine-computed supports.

        ``truss()`` returns the full ``{(u, v): trussness}`` mapping;
        ``truss(k)`` returns the k-truss subgraph as a :class:`Graph`.
        The peeling itself is the oracle's
        (:func:`repro.analysis.truss.truss_decomposition`), but its
        O(E·d) support recomputation is replaced by :meth:`support`.
        """
        from repro.analysis.truss import k_truss, truss_decomposition

        with self._lock:
            decomposition = self._workload_cache.get("truss")
            if decomposition is None:
                decomposition = truss_decomposition(
                    self.graph, support=self.support()
                )
                self._workload_cache["truss"] = decomposition
            if k is None:
                return dict(decomposition)
            return k_truss(self.graph, k, support=self.support())

    def clustering(self) -> ClusteringReport:
        """Clustering metrics from one per-vertex tally workload.

        Local coefficients, per-vertex triangle counts, their average,
        the global transitivity, and the triangle total — all reduced
        from the same per-edge supports :meth:`support` computes, and
        value-identical to the :mod:`repro.analysis.metrics` oracles.
        """
        from repro.analysis import metrics

        with self._lock:
            cached = self._workload_cache.get("clustering")
            if cached is None:
                per_edge, _, _ = self._supports_run()
                sources, _ = self._ensure_sym_edges()
                tallies = kernels.vertex_tallies_from_supports(
                    sources, per_edge, self._num_vertices
                )
                graph = self.graph
                local = metrics.local_clustering(graph, triangles=tallies)
                wedges = metrics.wedge_count(graph)
                triangles = int(per_edge.sum()) // 6
                cached = ClusteringReport(
                    local=local,
                    triangles_per_vertex=tallies,
                    average=float(local.mean()) if local.size else 0.0,
                    transitivity=metrics.transitivity(graph, triangles),
                    wedges=wedges,
                    triangles=triangles,
                )
                self._workload_cache["clustering"] = cached
            return cached

    def common_neighbors(self, u: int, v: int | None = None, *, k: int | None = None):
        """Common-neighbor link-prediction scores from vertex ``u``.

        * ``common_neighbors(u, v)`` → the score ``|N(u) ∩ N(v)|``;
        * ``common_neighbors(u)`` → every candidate within two hops of
          ``u`` that is not already a neighbor, as ``(vertex, score)``
          pairs in ascending vertex order;
        * ``common_neighbors(u, k=10)`` → the top-``k`` of those, best
          score first (ties broken by ascending vertex).

        Scores run through the same
        :class:`~repro.core.kernels.EdgeSupportKernel` as :meth:`support`
        — the candidate pairs are just an ad-hoc edge list joined against
        the resident symmetric structures.
        """
        with self._lock:
            self._check_query_vertex(u)
            if v is not None:
                if k is not None:
                    raise GraphError(
                        "common_neighbors takes either a target vertex v "
                        "or a top-k, not both"
                    )
                self._check_query_vertex(v)
                scores = self._pair_scores(
                    np.array([u], dtype=np.int64), np.array([v], dtype=np.int64)
                )
                return int(scores[0])
            candidates = self._candidate_scores(u)
            if k is None:
                return list(candidates)
            if k < 1:
                raise GraphError(f"k must be >= 1, got {k}")
            ranked = sorted(candidates, key=lambda item: (-item[1], item[0]))
            return ranked[:k]

    def common_neighbors_many(self, pairs) -> list[int]:
        """Batched common-neighbor scores: many ``(u, v)`` probes, one run.

        ``pairs`` is an iterable of ``(u, v)`` vertex pairs; the return
        value is their scores ``|N(u) ∩ N(v)|`` in input order.  The
        whole batch joins against the resident symmetric structures in
        a single :class:`~repro.core.kernels.EdgeSupportKernel` pass, so
        a link-prediction sweep pays one kernel run instead of one per
        probe — and the serving tier can fuse many sessions' batches
        into one sweep.  Value-identical to calling
        :meth:`common_neighbors` per pair.
        """
        with self._lock:
            sources, destinations = self.parse_pairs(pairs)
            if not sources.size:
                return []
            scores = self._pair_scores(sources, destinations)
            return [int(score) for score in scores]

    def parse_pairs(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Validate an iterable of ``(u, v)`` probes into int64 arrays.

        The shared front door of :meth:`common_neighbors_many` and the
        serving tier's fused pair sweeps, so both reject exactly the
        same malformed input with exactly the same errors.
        """
        sources_list: list[int] = []
        destinations_list: list[int] = []
        for index, pair in enumerate(pairs):
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise GraphError(
                    f"pair {index}: expected a (u, v) vertex pair, "
                    f"got {pair!r}"
                ) from None
            u, v = int(u), int(v)
            self._check_query_vertex(u)
            self._check_query_vertex(v)
            sources_list.append(u)
            destinations_list.append(v)
        return (
            np.asarray(sources_list, dtype=np.int64),
            np.asarray(destinations_list, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Incremental updates (the vectorized fast path)
    # ------------------------------------------------------------------
    def apply(self, ops, record: bool = False) -> UpdateReport:
        """Apply one ordered stream of ``(op, u, v)`` updates.

        ``op`` is ``"+"``/``"insert"`` or ``"-"``/``"delete"``; the
        stream semantics match :meth:`DynamicTriangleCounter.apply_ops`
        exactly (order preserved, no-ops ignored).  Consecutive
        same-type operations commute, so they coalesce into one delta
        re-join batch on the vectorized engine; an alternating stream
        degenerates to per-op batches but never to full recounts.

        ``record=True`` forces one batch per operation and returns the
        signed per-op deltas in :attr:`UpdateReport.per_op_deltas` — the
        differential-testing mode cross-checked against the
        :class:`DynamicTriangleCounter` oracle in the test-suite.

        **Failure semantics**: if a batch raises (e.g. a capacity
        :class:`~repro.errors.ArchitectureError`), the failing batch is
        rolled back completely — slice structures, edge set, and count
        all restored — while batches already applied stay applied.  The
        session remains consistent and usable; re-submitting the same
        stream is safe because applied operations filter out as no-ops.
        """
        parsed = self._parse_ops(ops)
        segments: list[tuple[str, list[tuple[int, int]]]] = []
        for code, u, v in parsed:
            if record or not segments or segments[-1][0] != code:
                segments.append((code, []))
            segments[-1][1].append((u, v))
        with self._lock:
            return self._apply_segments(segments, len(parsed), record)

    def apply_edges(
        self, insertions=(), deletions=(), record: bool = False
    ) -> UpdateReport:
        """Two-list batch form: all insertions first, then all deletions.

        Matches :meth:`DynamicTriangleCounter.apply`'s ordering
        semantics; each list runs as one delta re-join batch.
        """
        ins = [("+", u, v) for u, v in insertions]
        dels = [("-", u, v) for u, v in deletions]
        return self.apply(ins + dels, record=record)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _parse_ops(self, ops) -> list[tuple[str, int, int]]:
        """Validate the whole stream before touching any state.

        Uses the oracle's shared parser (:func:`repro.core.dynamic.parse_op`)
        so the session and :class:`DynamicTriangleCounter` accept exactly
        the same streams.
        """
        from repro.core.dynamic import parse_op

        parsed: list[tuple[str, int, int]] = []
        for index, op in enumerate(ops):
            action, u, v = parse_op(op, index)
            u, v = int(u), int(v)
            for vertex in (u, v):
                if not 0 <= vertex < self._num_vertices:
                    raise GraphError(
                        f"op {index}: vertex {vertex} out of range "
                        f"[0, {self._num_vertices})"
                    )
            parsed.append(("+" if action == "insert" else "-", u, v))
        return parsed

    def _apply_segments(self, segments, requested: int, record: bool) -> UpdateReport:
        # Callers hold self._lock.  On failure, the *failing* segment is
        # rolled back completely (see _insert_batch/_delete_batch) while
        # segments already applied stay applied — the session is always
        # consistent, and re-submitting the stream is safe because
        # already-applied operations filter out as no-ops.
        # The delta path needs a base count to update; bootstrap with one
        # full run on the resident structures if none exists yet.
        self.count()
        self._materialise_edge_set()
        events = EventCounts()
        cache_stats = CacheStatistics()
        delta_total = 0
        inserted = deleted = executed = 0
        per_op: list[int] | None = [] if record else None
        for index, (code, batch) in enumerate(segments):
            try:
                canonical = incremental.canonical_delta_edges(
                    batch, self._num_vertices
                )
                if code == "+":
                    outcome, changed = self._insert_batch(canonical)
                    delta = outcome.triangles
                    inserted += changed
                else:
                    outcome, changed = self._delete_batch(canonical)
                    delta = -outcome.triangles
                    deleted += changed
            except Exception as error:
                # The failing segment rolled back; segments before it are
                # committed.  Attach what DID happen so callers that
                # account for engine work (the serving tier's pricing and
                # op journal) stay in sync with the session's real state.
                error.partial_update = UpdateReport(
                    requested=requested,
                    inserted=inserted,
                    deleted=deleted,
                    delta_triangles=delta_total,
                    triangles=self._triangles,
                    segments=executed,
                    events=events,
                    cache_stats=cache_stats,
                    per_op_deltas=per_op,
                )
                error.applied_operations = [
                    (earlier_code, u, v)
                    for earlier_code, earlier_batch in segments[:index]
                    for u, v in earlier_batch
                ]
                raise
            if changed:
                executed += 1
                delta_total += delta
                events = events.merge(outcome.events)
                cache_stats = cache_stats.merge(outcome.cache_stats)
            if record:
                per_op.append(delta)
        return UpdateReport(
            requested=requested,
            inserted=inserted,
            deleted=deleted,
            delta_triangles=delta_total,
            triangles=self._triangles,
            segments=executed,
            events=events,
            cache_stats=cache_stats,
            per_op_deltas=per_op,
        )

    def _insert_batch(self, canonical: np.ndarray):
        fresh = [
            (u, v)
            for u, v in canonical.tolist()
            if (u, v) not in self._edge_set
        ]
        if not fresh:
            return incremental.DeltaOutcome(triangles=0), 0
        delta_edges = np.asarray(fresh, dtype=np.int64)
        # The delta join runs against the pre-insertion structure and may
        # raise (capacity); mutate only after it succeeds.
        outcome = incremental.symmetric_delta(
            self._num_vertices, self._sym(), delta_edges, self.config
        )
        try:
            sym_delta = incremental.set_bits(
                self._sym(), *_both_directions(delta_edges)
            )
        except Exception:
            # The fresh edges were absent from the base, so their bits
            # were all zero: clearing both directions restores the
            # structure exactly even if set_bits died half-way.
            incremental.clear_bits(self._sym(), *_both_directions(delta_edges))
            raise
        self._edge_set.update(fresh)
        self._triangles += outcome.triangles
        self._commit_mutation(delta_edges, insert=True, sym_delta=sym_delta)
        return outcome, len(fresh)

    def _delete_batch(self, canonical: np.ndarray):
        present = [
            (u, v) for u, v in canonical.tolist() if (u, v) in self._edge_set
        ]
        if not present:
            return incremental.DeltaOutcome(triangles=0), 0
        # Remove first: the destroyed triangles are the ones the delta
        # edges would re-create on the post-deletion graph.  The join can
        # raise (capacity), so roll the removal back on failure to keep
        # the session consistent.
        delta_edges = np.asarray(present, dtype=np.int64)
        sym = self._sym()
        sym_delta = incremental.clear_bits(sym, *_both_directions(delta_edges))
        try:
            outcome = incremental.symmetric_delta(
                self._num_vertices, sym, delta_edges, self.config
            )
        except Exception:
            incremental.set_bits(sym, *_both_directions(delta_edges))
            raise
        self._edge_set.difference_update(present)
        self._triangles -= outcome.triangles
        self._commit_mutation(delta_edges, insert=False, sym_delta=sym_delta)
        return outcome, len(present)

    def _sym(self) -> SlicedMatrix:
        """The incrementally maintained symmetric slice structure."""
        if self._sym_sliced is None:
            self._sym_sliced = SlicedMatrix.from_graph(
                self.graph, "symmetric", slice_bits=self.config.slice_bits,
                store=self._store,
            )
        return self._sym_sliced

    def _materialise_edge_set(self) -> None:
        if self._edge_set is None:
            self._edge_set = set(map(tuple, self.graph.edge_array().tolist()))

    def _prepare(self) -> None:
        """Build (once) the resident structures full runs consume.

        Pending committed update batches are folded in first, so every
        structure handed to the engine reflects the current graph.
        """
        self._flush_patches()
        orientation = self.config.orientation
        if self._row_sliced is None:
            self._row_sliced = SlicedMatrix.from_graph(
                self.graph, orientation, slice_bits=self.config.slice_bits,
                store=self._store,
            )
        if self._col_sliced is None:
            col_orientation = "lower" if orientation == "upper" else "symmetric"
            self._col_sliced = SlicedMatrix.from_graph(
                self.graph, col_orientation, slice_bits=self.config.slice_bits,
                store=self._store,
            )
        if self._edge_arrays is None:
            self._edge_arrays = oriented_edges(self.graph, orientation)
        if self._use_contexts:
            if self._shard_contexts is None:
                from repro.core.sharding import (
                    assign_colors,
                    build_shard_contexts,
                    min_colors,
                )

                self._shard_contexts = build_shard_contexts(
                    self.graph,
                    orientation,
                    self.config.num_arrays,
                    slice_bits=self.config.slice_bits,
                    seed=self.config.seed,
                    edge_arrays=self._edge_arrays,
                    use_plan=bool(self.config.use_plan),
                )
                self._shard_colors = assign_colors(
                    self._num_vertices,
                    min_colors(self.config.num_arrays),
                    self.config.seed,
                )
            if self._use_pool and self._context_pool is None:
                from repro.core.sharding import ContextPool

                self._context_pool = ContextPool(
                    self._shard_contexts,
                    self.config.capacity_slices,
                    self.config.policy,
                    self.config.seed,
                    workers=self.config.workers,
                )
        elif self.config.num_arrays > 1 and self._plan is None:
            self._plan = plan_shards(
                self.graph,
                orientation,
                self.config.num_arrays,
                self.config.shard_by,
                sources=self._edge_arrays[0],
            )

    def _ensure_join_plan(self):
        """Compile (once per generation) the resident join plan.

        Callers hold ``self._lock`` and have run :meth:`_prepare`.  The
        staleness check is defensive: :meth:`_commit_mutation` always
        leaves the plan either patched-current or dropped, so a stale
        plan here would be a bug — rebuilt rather than served wrong.
        """
        if not self._use_plan:
            return None
        if self._join_plan is not None and not self._join_plan.matches(
            self._row_sliced, self._col_sliced
        ):
            self._join_plan = None
        if self._join_plan is None:
            self._join_plan = joinplan.build_join_plan(
                self._row_sliced, self._col_sliced, *self._edge_arrays,
                chunk_edges=self._plan_chunk_edges, store=self._store,
            )
        return self._join_plan

    def _ensure_sym_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetric oriented edge list, maintained across updates.

        Callers hold ``self._lock``.  Built lazily from the graph, then
        advanced per committed batch by :meth:`_patch_sym_plan` (CSR
        order — rows ascending, neighbors ascending — matching what the
        symmetric slice structure was built from).
        """
        if self._sym_edge_arrays is None:
            self._sym_edge_arrays = oriented_edges(self.graph, "symmetric")
        return self._sym_edge_arrays

    def _ensure_sym_plan(self):
        """Compile (once) the symmetric join plan all workloads share.

        Callers hold ``self._lock``.  The defensive ``matches`` check
        covers rolled-back update batches: those bump the symmetric
        structure's version (mutate + restore) without a commit, so a
        resident plan can be version-stale while still describing the
        same graph — rebuild rather than serve it.
        """
        if not self._use_workload_plan:
            return None
        sym = self._sym()
        if self._sym_plan is not None and not self._sym_plan.matches(sym, sym):
            self._sym_plan = None
        if self._sym_plan is None:
            self._sym_plan = joinplan.build_join_plan(
                sym, sym, *self._ensure_sym_edges(),
                chunk_edges=self._plan_chunk_edges, store=self._store,
            )
        return self._sym_plan

    def _supports_run(self) -> tuple[np.ndarray, EventCounts, CacheStatistics]:
        """Per-directed-edge supports over the full symmetric edge list.

        Callers hold ``self._lock``.  One
        :class:`~repro.core.kernels.EdgeSupportKernel` pass (sharded
        when ``config.num_arrays > 1``) through the resident symmetric
        plan; cached until the graph changes.  ``value[i]`` is the
        support of directed edge ``i`` of :meth:`_ensure_sym_edges`.
        """
        cached = self._workload_cache.get("supports")
        if cached is not None:
            return cached
        sym = self._sym()
        sources, destinations = self._ensure_sym_edges()
        if sources.size == 0:
            run = (np.zeros(0, dtype=np.int64), EventCounts(), CacheStatistics())
        elif self.config.num_arrays > 1:
            _, per_edge, events, cache_stats = run_position_split(
                kernels.EdgeSupportKernel(), sym, sym, sources, destinations,
                self.config, join_plan=self._ensure_sym_plan(),
            )
            run = (per_edge, events, cache_stats)
        else:
            _, column_capacity = array_budget(
                sym.row_valid_counts(), self.config.capacity_slices, "array"
            )
            result = kernels.execute_workload(
                kernels.EdgeSupportKernel(),
                None,
                sym,
                sym,
                "symmetric",
                column_capacity,
                self.config.policy,
                self.config.seed,
                edges=(sources, destinations),
                row_writes=sym.num_valid_slices,
                plan=self._ensure_sym_plan(),
            )
            run = (result.value, EventCounts(**result.events), result.cache_stats)
        self._workload_cache["supports"] = run
        return run

    def _pair_scores(
        self, sources: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """Support scores of an ad-hoc (not-necessarily-edge) pair list.

        Callers hold ``self._lock``.  The resident plan only covers the
        graph's own edge list, so these queries run plan-free — still
        through the same kernel and structures.
        """
        sym = self._sym()
        _, touched_counts = sym.row_slice_ranges(np.unique(sources))
        _, column_capacity = array_budget(
            touched_counts, self.config.capacity_slices, "array"
        )
        result = kernels.execute_workload(
            kernels.EdgeSupportKernel(),
            None,
            sym,
            sym,
            "symmetric",
            column_capacity,
            self.config.policy,
            self.config.seed,
            edges=(sources, destinations),
            row_writes=int(touched_counts.sum()),
        )
        return result.value

    def _candidate_scores(self, u: int) -> list[tuple[int, int]]:
        """Two-hop common-neighbor candidates of ``u`` with scores.

        Callers hold ``self._lock``.  Candidates are vertices reachable
        in exactly two hops that are not ``u`` and not already adjacent
        to it, ascending; cached per vertex until the graph changes.
        """
        key = ("common_neighbors", u)
        cached = self._workload_cache.get(key)
        if cached is None:
            candidates = self._enumerate_candidates(u)
            if candidates.size:
                scores = self._pair_scores(
                    np.full(candidates.size, u, dtype=np.int64),
                    candidates.astype(np.int64),
                )
                cached = list(zip(candidates.tolist(), scores.tolist()))
            else:
                cached = []
            self._workload_cache[key] = cached
        return cached

    def _enumerate_candidates(self, u: int) -> np.ndarray:
        """Two-hop candidate vertices of ``u`` (callers hold the lock)."""
        graph = self.graph
        neighbors = graph.neighbors(u)
        if not neighbors.size:
            return np.empty(0, dtype=np.int64)
        two_hop = np.unique(
            np.concatenate([graph.neighbors(int(w)) for w in neighbors.tolist()])
        )
        keep = (two_hop != u) & ~np.isin(two_hop, neighbors)
        return two_hop[keep].astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    # Cross-session fusion hooks (repro.serve's fusion scheduler)
    # ------------------------------------------------------------------
    # Each ``fusion_*_state`` snapshot is taken under the session lock
    # and returns ``(status, payload, generation)``:
    #
    # * ``("cached", value, gen)`` — the answer is already resident;
    # * ``("segment", payload, gen)`` — a :class:`~repro.core.kernels.FusedSegment`
    #   (plus workload metadata) ready to join a fused sweep; the plan
    #   and payload references are a consistent snapshot at ``gen``;
    # * ``("unfusible", None, gen)`` — this session's configuration
    #   cannot ride the fused path (sharded, plan-free); serve per-request.
    #
    # The sweep itself runs *without* the lock: concurrent mutations may
    # tear the payload bits mid-gather, but every ``fusion_commit_*``
    # re-checks the generation under the lock and refuses a stale
    # commit, so torn results are discarded, never served or cached.
    def fusion_count_state(self):
        """Snapshot for a fused triangle-count sweep."""
        with self._lock:
            if self._triangles is not None:
                return ("cached", self._triangles, self._generation)
            if self.config.num_arrays != 1 or not self._use_plan:
                return ("unfusible", None, self._generation)
            self._prepare()
            plan = self._ensure_join_plan()
            if plan is None:
                return ("unfusible", None, self._generation)
            row_sliced, col_sliced = self._row_sliced, self._col_sliced
            _, column_capacity = array_budget(
                row_sliced.row_valid_counts(), self.config.capacity_slices, "array"
            )
            segment = kernels.FusedSegment(
                kernel=kernels.CountKernel(),
                plan=plan,
                row_data=row_sliced.data,
                col_data=col_sliced.data,
                slices_per_row=row_sliced.slices_per_row,
                row_writes=row_sliced.num_valid_slices,
                column_capacity=column_capacity,
                policy=self.config.policy,
                seed=self.config.seed,
            )
            return ("segment", segment, self._generation)

    def fusion_commit_count(self, generation: int, accumulator: int):
        """Commit a fused count sweep's accumulator; ``None`` if fenced.

        Derives the triangle count exactly as
        :meth:`~repro.core.accelerator.TCIMAccelerator.run` does from the
        same accumulator, installs it as the resident count, and returns
        it.  A generation mismatch (a mutation landed while the sweep
        ran) returns ``None`` — the sweep's bits cannot be trusted.
        """
        with self._lock:
            if generation != self._generation:
                return None
            triangles = (
                int(accumulator)
                if self.config.orientation == "upper"
                else int(accumulator) // 6
            )
            if self._triangles is None:
                self._triangles = triangles
            return self._triangles

    def fusion_supports_state(self):
        """Snapshot for a fused per-edge supports sweep."""
        with self._lock:
            if "supports" in self._workload_cache:
                return ("cached", None, self._generation)
            if self.config.num_arrays != 1 or not self._use_workload_plan:
                return ("unfusible", None, self._generation)
            sym = self._sym()
            sources, destinations = self._ensure_sym_edges()
            if sources.size == 0:
                return ("unfusible", None, self._generation)
            plan = self._ensure_sym_plan()
            if plan is None:
                return ("unfusible", None, self._generation)
            _, column_capacity = array_budget(
                sym.row_valid_counts(), self.config.capacity_slices, "array"
            )
            segment = kernels.FusedSegment(
                kernel=kernels.EdgeSupportKernel(),
                plan=plan,
                row_data=sym.data,
                col_data=sym.data,
                slices_per_row=sym.slices_per_row,
                row_writes=sym.num_valid_slices,
                column_capacity=column_capacity,
                policy=self.config.policy,
                seed=self.config.seed,
                sources=sources,
                destinations=destinations,
            )
            return ("segment", segment, self._generation)

    def fusion_commit_supports(
        self, generation: int, per_edge: np.ndarray, events: dict, cache_stats
    ) -> bool:
        """Install a fused supports sweep as the resident supports cache.

        The committed triple is exactly what :meth:`_supports_run` would
        have produced (the fused executor reproduces the planned run
        field by field), so ``support()``/``truss()``/``clustering()``
        all serve from it.  Returns ``False`` when fenced by a mutation.
        """
        with self._lock:
            if generation != self._generation:
                return False
            if "supports" not in self._workload_cache:
                self._workload_cache["supports"] = (
                    per_edge,
                    EventCounts(**events),
                    cache_stats,
                )
            return True

    def fusion_pairs_state(self, sources: np.ndarray, destinations: np.ndarray):
        """Snapshot for a fused ad-hoc pair-scores sweep.

        Compiles the batch's throwaway join plan under the lock (one
        vectorised merge-join for *all* probes of the batch — the
        batching win per session) and returns its segment; the fused
        per-edge values are bit-identical to :meth:`_pair_scores` on the
        same arrays.
        """
        with self._lock:
            sources = np.asarray(sources, dtype=np.int64)
            destinations = np.asarray(destinations, dtype=np.int64)
            sym = self._sym()
            plan = joinplan.build_join_plan(sym, sym, sources, destinations)
            _, touched_counts = sym.row_slice_ranges(np.unique(sources))
            _, column_capacity = array_budget(
                touched_counts, self.config.capacity_slices, "array"
            )
            segment = kernels.FusedSegment(
                kernel=kernels.EdgeSupportKernel(),
                plan=plan,
                row_data=sym.data,
                col_data=sym.data,
                slices_per_row=sym.slices_per_row,
                row_writes=int(touched_counts.sum()),
                column_capacity=column_capacity,
                policy=self.config.policy,
                seed=self.config.seed,
                sources=sources,
                destinations=destinations,
            )
            return ("segment", segment, self._generation)

    def fusion_candidates_state(self, u: int):
        """Snapshot for a fused candidate-ranking sweep from vertex ``u``.

        Returns ``("cached", [(vertex, score), ...], gen)`` when the
        candidate list is resident (including the no-candidates case,
        which is cached immediately), else ``("pairs", candidates, gen)``
        — the two-hop candidate vertices whose ``(u, candidate)`` probes
        the caller folds into a fused pair sweep and commits back via
        :meth:`fusion_commit_candidates`.
        """
        with self._lock:
            self._check_query_vertex(u)
            key = ("common_neighbors", u)
            cached = self._workload_cache.get(key)
            if cached is not None:
                return ("cached", list(cached), self._generation)
            candidates = self._enumerate_candidates(u)
            if not candidates.size:
                self._workload_cache[key] = []
                return ("cached", [], self._generation)
            return ("pairs", candidates, self._generation)

    def fusion_commit_candidates(
        self, generation: int, u: int, candidates: np.ndarray, scores: np.ndarray
    ):
        """Install fused candidate scores as the resident list for ``u``.

        Returns the resident ``[(vertex, score), ...]`` list (what
        :meth:`_candidate_scores` would have cached), or ``None`` when
        fenced by a mutation.
        """
        with self._lock:
            if generation != self._generation:
                return None
            key = ("common_neighbors", u)
            cached = self._workload_cache.get(key)
            if cached is None:
                cached = list(
                    zip(
                        np.asarray(candidates).tolist(),
                        np.asarray(scores).tolist(),
                    )
                )
                self._workload_cache[key] = cached
            return list(cached)

    def _check_query_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )

    def _full_run(self) -> TCIMRunResult:
        if self._run is None:
            self._prepare()
            try:
                self._run = self._accelerator.run(
                    self.graph,
                    row_sliced=self._row_sliced,
                    col_sliced=self._col_sliced,
                    edge_arrays=self._edge_arrays,
                    plan=self._plan,
                    join_plan=self._ensure_join_plan(),
                    shard_contexts=self._shard_contexts,
                    context_pool=self._context_pool,
                )
            except ArchitectureError:
                if self._context_pool is not None and self._context_pool.closed:
                    # A worker died mid-sweep and the pool reclaimed the
                    # shared segments the contexts' arrays view: drop
                    # both, so the next read rebuilds them from the graph
                    # and opens a fresh pool.
                    self._context_pool = None
                    self._shard_contexts = None
                    self._shard_colors = None
                raise
            self._triangles = self._run.triangles
            self._slice_stats = self._run.slice_stats
        return self._run

    def _commit_mutation(
        self, delta_edges: np.ndarray, insert: bool, sym_delta=None
    ) -> None:
        """Record one committed delta batch against the resident caches.

        Callers hold ``self._lock`` and run this only after a segment has
        fully committed (never on a rolled-back failure), so a bumped
        generation always marks a consistent new state.  Query-result
        caches are dropped (they priced the old graph); the *structural*
        residents — both oriented slice structures, the oriented edge
        arrays, the compiled join plan and the graph snapshot — are
        kept, with the batch queued for the next read to fold in
        (:meth:`_flush_patches`, the ``graph`` property).  A read folds
        every queued batch into one net delta and splices it once, so
        pure update streams pay pure delta-join cost, read-after-write
        pays one splice and one plan patch however many batches were
        queued, and an edge toggled back and forth costs nothing.

        ``sym_delta`` is the :class:`~repro.core.incremental.StructureDelta`
        the committed batch left on the symmetric structure.  Unlike the
        oriented residents, the symmetric structure already mutated
        eagerly — so a resident symmetric plan must be patched *now*
        (against this exact delta) or dropped; it cannot be queued.
        """
        self._generation += 1
        self._graph_pending.append((delta_edges, insert))
        self._graph_pending_edges += int(delta_edges.shape[0])
        if self._graph_pending_edges > max(1024, self.num_edges // 4):
            self._fold_graph()
        self._slice_stats = None
        self._run = None
        self._report = None
        self._baseline_cache.clear()
        self._workload_cache.clear()
        self._patch_sym_plan(delta_edges, insert, sym_delta)
        # Shard-plan positions index the old oriented edge list.
        self._plan = None
        if (
            self._row_sliced is None
            or self._col_sliced is None
            or self._edge_arrays is None
        ):
            self._drop_structural_caches()
            return
        self._pending_patches.append((delta_edges, insert))
        self._pending_edges += int(delta_edges.shape[0])
        # A deep backlog (a churn comparable to the graph itself) is
        # cheaper to re-slice than to splice batch by batch.
        if self._pending_edges > max(1024, self.num_edges // 4):
            self._drop_structural_caches()

    def _patch_sym_plan(
        self, delta_edges: np.ndarray, insert: bool, sym_delta
    ) -> None:
        """Advance the resident symmetric plan past one committed batch.

        Callers hold ``self._lock``.  The symmetric structure serves as
        both join sides, so one structure delta covers row and column.
        Any failure drops the plan and edge arrays (rebuildable from the
        graph) rather than leaving them stale.
        """
        if self._sym_plan is None and self._sym_edge_arrays is None:
            return
        if sym_delta is None or self._sym_edge_arrays is None:
            self._drop_sym_plan()
            return
        try:
            sym = self._sym()
            new_edges = joinplan.merge_oriented_edges(
                *self._sym_edge_arrays,
                delta_edges,
                "symmetric",
                self._num_vertices,
                insert,
            )
            if self._sym_plan is not None:
                self._sym_plan = joinplan.patch_join_plan(
                    self._sym_plan,
                    sym,
                    sym,
                    *self._sym_edge_arrays,
                    *new_edges,
                    sym_delta,
                    sym_delta,
                    store=self._store,
                )
            self._sym_edge_arrays = new_edges
        except Exception as error:
            self._note_fallback("sym_plan", error)
            self._drop_sym_plan()

    def _drop_sym_plan(self) -> None:
        self._sym_plan = None
        self._sym_edge_arrays = None

    def _flush_patches(self) -> None:
        """Fold every pending committed batch into the resident caches.

        Callers hold ``self._lock``.  The queue folds into one net delta
        (:func:`repro.core.incremental.net_delta`; an edge toggled an
        even number of times drops out), spliced once into each oriented
        structure as a removal then an insertion, merged once into the
        oriented edge arrays, and patched into the join plan with one
        :func:`~repro.core.plan.patch_join_plan` call.  An empty net
        delta leaves every structure and the plan untouched.  Any
        patching failure counts a ``flush`` fallback and drops the
        caches (they are rebuildable from the graph), never leaving an
        inconsistent session — patching is an optimisation, not a
        source of truth.
        """
        if not self._pending_patches:
            return
        pending, self._pending_patches = self._pending_patches, []
        self._pending_edges = 0
        deletions, insertions = incremental.net_delta(pending, self._num_vertices)
        if not (deletions.size or insertions.size):
            return
        self._patch_contexts(deletions, insertions)
        if (
            self._row_sliced is None
            or self._col_sliced is None
            or self._edge_arrays is None
        ):
            return
        try:
            orientation = self.config.orientation

            def splice(sliced: SlicedMatrix, side: str):
                return incremental.splice_bits(
                    sliced,
                    joinplan.oriented_structure_bits(deletions, orientation, side),
                    joinplan.oriented_structure_bits(insertions, orientation, side),
                )

            row_delta = splice(self._row_sliced, "row")
            col_delta = splice(self._col_sliced, "col")
            new_edges = self._edge_arrays
            for edges, insert in ((deletions, False), (insertions, True)):
                if edges.size:
                    new_edges = joinplan.merge_oriented_edges(
                        *new_edges, edges, orientation, self._num_vertices, insert
                    )
            if self._join_plan is not None:
                self._join_plan = joinplan.patch_join_plan(
                    self._join_plan,
                    self._row_sliced,
                    self._col_sliced,
                    *self._edge_arrays,
                    *new_edges,
                    row_delta,
                    col_delta,
                    store=self._store,
                )
            self._edge_arrays = new_edges
        except Exception as error:
            self._note_fallback("flush", error)
            self._drop_structural_caches()

    def _patch_contexts(self, deletions: np.ndarray, insertions: np.ndarray) -> None:
        """Route a net delta into the resident coloring shards.

        Callers hold ``self._lock``.  The deletions and then the
        insertions reach only the contexts that own one of their edges
        (at most ``C`` per edge); their row structures, per-lane column
        structures, lane edge lists and compiled lane plans are all
        patched in place — at most two patches per context — and the
        pool is fenced with one ``publish``.  Any failure counts a
        ``contexts`` fallback and drops the contexts (rebuilt from the
        graph by the next ``_prepare``), mirroring the global-structure
        fallback.
        """
        if self._shard_contexts is None:
            self._close_context_pool()
            return
        try:
            for edges, insert in ((deletions, False), (insertions, True)):
                if edges.size:
                    for context in self._shard_contexts:
                        context.apply_delta(edges, self._shard_colors, insert)
            if self._context_pool is not None:
                # Payload writes already landed in the shared segments;
                # the publish re-exports structurally reallocated arrays
                # and fences a new generation so pool workers rebuild.
                self._context_pool.publish()
        except Exception as error:
            self._note_fallback("contexts", error)
            self._shard_contexts = None
            self._shard_colors = None
            self._close_context_pool()

    def _note_fallback(self, path: str, error: Exception) -> None:
        """Count and log one patch path dropping to a cold rebuild."""
        self._patch_fallbacks[path] += 1
        _log.warning(
            "patch fallback on %s: %s",
            path,
            type(error).__name__,
            exc_info=error,
            extra={
                "event": "patch_fallback",
                "path": path,
                "error": type(error).__name__,
            },
        )

    def _fold_graph(self) -> None:
        """Splice the net delta of the graph backlog into the snapshot.

        Callers hold ``self._lock``.  The backlog clears only after the
        spliced graph passed its invariants, so a failure leaves the
        session as it was and raises
        :class:`~repro.errors.ArchitectureError`.
        """
        deletions, insertions = incremental.net_delta(
            self._graph_pending, self._num_vertices
        )
        graph = self._graph
        if deletions.size or insertions.size:
            graph = incremental.splice_graph(graph, deletions, insertions)
        if graph.num_edges != len(self._edge_set):
            raise ArchitectureError(
                f"spliced graph holds {graph.num_edges} edges but the session "
                f"tracks {len(self._edge_set)}"
            )
        self._graph = graph
        self._graph_pending = []
        self._graph_pending_edges = 0

    def _close_context_pool(self) -> None:
        """Reclaim the resident zero-copy pool (workers + shm segments)."""
        pool, self._context_pool = self._context_pool, None
        if pool is not None:
            try:
                pool.close()
            except Exception:
                pass

    def _drop_structural_caches(self) -> None:
        self._row_sliced = None
        self._col_sliced = None
        self._edge_arrays = None
        self._join_plan = None
        self._shard_contexts = None
        self._shard_colors = None
        self._close_context_pool()
        self._pending_patches.clear()
        self._pending_edges = 0

    def _invalidate(self) -> None:
        """Drop every cache derived from the current graph (see ``close``).

        The incrementally maintained pieces — the triangle count, the
        symmetric slice structure, and the graph snapshot with its
        pending deltas — survive; everything rebuilt from the graph is
        dropped and lazily re-created on the next query.  Callers hold
        ``self._lock``.
        """
        self._generation += 1
        self._drop_structural_caches()
        self._drop_sym_plan()
        self._plan = None
        self._slice_stats = None
        self._run = None
        self._report = None
        self._baseline_cache.clear()
        self._workload_cache.clear()


def _both_directions(delta_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` covering both directions of canonical edges."""
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    return np.concatenate([u, v]), np.concatenate([v, u])


def open_session(
    source=None,
    config: AcceleratorConfig | Mapping | None = None,
    *,
    model=None,
    snapshot=None,
    **overrides,
) -> TCIMSession:
    """Open a :class:`TCIMSession` on a graph source or a snapshot.

    ``source`` is a :class:`Graph`, a file path, or a
    ``dataset:<key>[@scale]`` spec.  ``config`` is an
    :class:`AcceleratorConfig` or a plain mapping (e.g. a parsed TOML/JSON
    file); ``overrides`` are individual config fields applied on top —
    ``open_session(g, num_arrays=4)`` just works.

    ``snapshot`` (exclusive with ``source``) opens a directory written
    by :meth:`TCIMSession.snapshot`: the graph, slice structures,
    oriented edge arrays, both compiled join plans and the generation
    counter hydrate from disk — no re-slicing, no plan recompile.  The
    snapshot's own config is the base; ``config``/``overrides`` layer on
    top (structural state is kept only while slice width and orientation
    stay unchanged).  Corrupt or truncated snapshots raise
    :class:`~repro.errors.StorageError`.
    """
    if snapshot is not None:
        if source is not None:
            raise ReproError(
                "open_session takes a graph source or a snapshot=, not both"
            )
        return _open_snapshot_session(snapshot, config, model=model, **overrides)
    if source is None:
        raise ReproError("open_session needs a graph source or a snapshot= path")
    graph = resolve_graph(source)
    if isinstance(config, AcceleratorConfig):
        if overrides:
            config = AcceleratorConfig.from_mapping(config.to_mapping(), **overrides)
    else:
        config = AcceleratorConfig.from_mapping(config, **overrides)
    return TCIMSession(graph, config, model=model)


def _open_snapshot_session(
    path, config: AcceleratorConfig | Mapping | None, *, model=None, **overrides
) -> TCIMSession:
    """Hydrate a session from a snapshot directory (``open_session``'s back)."""
    meta = storage_snapshot.read_snapshot_meta(path)
    base = dict(meta.get("config", {}))
    if isinstance(config, AcceleratorConfig):
        base.update(config.to_mapping())
    elif config:
        base.update(config)
    effective = AcceleratorConfig.from_mapping(base, **overrides)
    # Hydrate segments straight through the effective store so large
    # arrays land spill-backed without a second heap-resident copy.
    store = BackingStore.from_config(effective)
    snap = storage_snapshot.read_snapshot(path, store=store)
    try:
        edges = snap.arrays["graph.edges"]
        num_vertices = int(snap.meta["num_vertices"])
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(
            f"snapshot {path} is missing its graph ({error!r})"
        ) from None
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    indptr = snap.arrays.get("graph.indptr")
    indices = snap.arrays.get("graph.indices")
    if indptr is not None and indices is not None:
        try:
            graph = Graph.from_parts(num_vertices, edges, indptr, indices)
        except GraphError as error:
            raise StorageError(
                f"snapshot {path} carries inconsistent graph CSR parts: {error}"
            ) from None
    else:
        # Older or hand-built snapshots without the CSR: rebuild it.
        graph = Graph(num_vertices, edges)
    session = TCIMSession(graph, effective, model=model)
    # The constructor made a fresh (empty) store from the same config;
    # swap in the one the segments already hydrated into.
    session._store = store
    session._hydrate(snap.meta, snap.arrays)
    return session
