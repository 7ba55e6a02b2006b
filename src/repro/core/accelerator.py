"""TCIM accelerator orchestration — paper Algorithm 1.

Ties the pieces together the way the processing-in-MRAM controller does
(Fig. 4): the graph is sliced and compressed (Section IV-B), valid slice
pairs are streamed into the computational array, row slices are loaded
once per row and overwritten by the next row, and column slices go through
the LRU-managed array region (Section IV-A).  Every AND + BitCount the
hardware would execute is counted, and the resulting event totals are what
the architecture model (:mod:`repro.arch.perf`) prices into latency and
energy for Table V and Fig. 6.

The functional result (the triangle count) is exact and is validated
against all baselines by the test-suite.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core import kernels
from repro.errors import ArchitectureError
from repro.graph.graph import Graph
from repro.core.reuse import CacheStatistics, ReplacementPolicy
from repro.core.slicing import SlicedMatrix, SliceStatistics, slice_statistics

__all__ = ["AcceleratorConfig", "EventCounts", "TCIMRunResult", "TCIMAccelerator"]


@dataclass(frozen=True)
class AcceleratorConfig:
    """Algorithm-level configuration of a TCIM run.

    Defaults mirror the paper's evaluation setup: 64-bit slices and a
    16 MB computational STT-MRAM array with LRU replacement.

    Every run executes the batched gather → AND → popcount dataflow of
    :func:`repro.core.kernels.execute_workload`; the per-edge Python
    loop it must match bit for bit lives in :mod:`repro.core.oracle`.

    ``num_arrays`` splits the run across that many simulated sub-arrays
    (the paper's Fig. 4 bank organisation, see
    :mod:`repro.core.sharding`), each owning an equal share of
    ``array_bytes`` with its own row region and column-slice cache.
    Every shard runs as a :class:`~repro.core.sharding.ShardContext`
    through one executor.  ``shard_by`` picks the partitioner: the
    position partitioners ``"edges"``, ``"rows"`` and ``"degree"`` split
    the shared oriented edge list into single-lane contexts over the
    global slice structures; ``"coloring"`` builds self-contained
    color-triple contexts.  ``workers`` > 0 fans shards out over a
    process pool (0 = serial in-process).  ``num_arrays=1`` is
    bit-identical to the single-array run.

    ``use_plan`` lets a resident caller (:class:`repro.api.TCIMSession`)
    compile the valid-pair join once per graph generation
    (:mod:`repro.core.plan`) and serve repeat queries from it; disable
    (CLI ``--no-plan``) to force the per-query merge-join.  Results are
    bit-identical either way — the flag trades plan memory for repeat-
    query latency, never exactness.

    ``storage_dir`` turns on the out-of-core storage tier
    (:mod:`repro.storage`): slice payloads and compiled plan arrays at
    or above ``spill_threshold_bytes`` (default 8 MiB; 0 spills every
    array) become disk-backed ``np.memmap`` files under
    ``<storage_dir>/spill``, plan compilation streams through bounded
    edge windows, and the session pool pages evicted sessions out as
    snapshots under ``<storage_dir>/pool``.  ``None`` (the default)
    keeps everything on heap — byte-identical results either way.

    ``backing`` names the resident tier explicitly: ``"ram"``,
    ``"memmap"`` (requires ``storage_dir``) or ``"shm"`` — the
    zero-copy shared-memory execution plane, under which a session
    with coloring shards and ``workers > 0`` keeps them resident in an
    shm-backed :class:`~repro.core.sharding.ContextPool` (workers attach
    named segments once; sweeps dispatch one batched message per
    worker).  One-shot runs always use the per-call pool of
    :func:`~repro.core.sharding.execute_contexts`.  ``None`` (the default)
    keeps the historical routing: ``storage_dir`` set implies
    ``memmap``, otherwise ``ram``.  Results are bit-identical across all
    three.
    """

    slice_bits: int = 64
    array_bytes: int = 16 * 2**20
    policy: ReplacementPolicy | str = ReplacementPolicy.LRU
    orientation: str = "upper"
    seed: int = 0
    num_arrays: int = 1
    shard_by: str = "edges"
    workers: int = 0
    use_plan: bool = True
    storage_dir: str | None = None
    spill_threshold_bytes: int | None = None
    backing: str | None = None

    def __post_init__(self) -> None:
        if self.backing not in (None, "ram", "memmap", "shm"):
            raise ArchitectureError(
                f"backing must be 'ram', 'memmap', 'shm' or unset, "
                f"got {self.backing!r}"
            )

    @property
    def slice_bytes(self) -> int:
        """Bytes occupied by one slice in the array."""
        return self.slice_bits // 8

    @property
    def capacity_slices(self) -> int:
        """Total slices the computational array can hold."""
        return self.array_bytes // self.slice_bytes

    #: Fields coerced through ``int()`` by :meth:`from_mapping` (config
    #: files and ``--set key=value`` overrides arrive as strings).
    _INT_FIELDS = ("slice_bits", "array_bytes", "seed", "num_arrays", "workers")
    #: Boolean fields, accepting true/false/1/0/yes/no strings.
    _BOOL_FIELDS = ("use_plan",)
    #: Optional fields: ``None`` (or the strings ""/"none"/"null") stays
    #: ``None``; anything else coerces to the named base type.
    _OPTIONAL_FIELDS = {
        "storage_dir": str,
        "spill_threshold_bytes": int,
        "backing": str,
    }

    @classmethod
    def from_mapping(
        cls, mapping: Mapping | None = None, **overrides
    ) -> "AcceleratorConfig":
        """Build a config from a plain mapping (TOML/JSON file, CLI ``--set``).

        Keys must name config fields; unknown keys raise
        :class:`~repro.errors.ArchitectureError` (typos fail loudly rather
        than silently running the default).  Values are coerced to the
        field's type — integer fields accept numeric strings, the rest are
        taken as strings — so a parsed config file and a ``key=value``
        override line feed through the same path.  ``overrides`` win over
        ``mapping``.
        """
        data: dict = {}
        if mapping:
            data.update(mapping)
        data.update(overrides)
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ArchitectureError(
                f"unknown AcceleratorConfig keys {unknown}; known keys: {known}"
            )
        return cls(
            **{name: cls._coerce_field(name, value) for name, value in data.items()}
        )

    @classmethod
    def _coerce_field(cls, name: str, value):
        if name in cls._OPTIONAL_FIELDS:
            if value is None or str(value).strip().lower() in ("", "none", "null"):
                return None
            base = cls._OPTIONAL_FIELDS[name]
            try:
                return base(value)
            except (TypeError, ValueError):
                raise ArchitectureError(
                    f"config field {name!r} needs a {base.__name__} or none, "
                    f"got {value!r}"
                ) from None
        if name in cls._INT_FIELDS:
            try:
                return int(value)
            except (TypeError, ValueError):
                raise ArchitectureError(
                    f"config field {name!r} needs an integer, got {value!r}"
                ) from None
        if name in cls._BOOL_FIELDS:
            if isinstance(value, bool):
                return value
            text = str(value).strip().lower()
            if text in ("true", "1", "yes", "on"):
                return True
            if text in ("false", "0", "no", "off"):
                return False
            raise ArchitectureError(
                f"config field {name!r} needs a boolean, got {value!r}"
            )
        if name == "policy":
            return value if isinstance(value, ReplacementPolicy) else str(value)
        return str(value)

    def to_mapping(self) -> dict:
        """The inverse of :meth:`from_mapping`: plain JSON/TOML-able values."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        policy = data["policy"]
        data["policy"] = (
            policy.value if isinstance(policy, ReplacementPolicy) else str(policy)
        )
        return data


@dataclass
class EventCounts:
    """Hardware-visible events of one run, consumed by the perf model."""

    #: Row slices written into the row region (once per processed row).
    row_slice_writes: int = 0
    #: Column slices written (cache misses + exchanges).
    col_slice_writes: int = 0
    #: Column-slice accesses served from the array without a write.
    col_slice_hits: int = 0
    #: In-array AND activations (one per valid slice pair).
    and_operations: int = 0
    #: Bit-counter invocations (one per AND, Fig. 2 dataflow).
    bitcount_operations: int = 0
    #: Valid-slice-index lookups in the data buffer (one per edge).
    index_lookups: int = 0
    #: Edges of the oriented matrix iterated.
    edges_processed: int = 0
    #: Slice pairs an un-sliced design would process (for the reduction claim).
    dense_pair_operations: int = 0

    @property
    def total_slice_writes(self) -> int:
        """All array WRITE operations (rows + columns)."""
        return self.row_slice_writes + self.col_slice_writes

    @property
    def writes_without_reuse(self) -> int:
        """WRITEs a reuse-less design would issue (row + one per access)."""
        return self.row_slice_writes + self.col_slice_hits + self.col_slice_writes

    @property
    def write_savings_percent(self) -> float:
        """Column-slice WRITEs avoided by data reuse (paper: 72 % average).

        Row slices are written exactly once per row whether or not a reuse
        strategy exists, so the saving the paper attributes to data reuse
        is the *column* hit rate — consistent with
        :attr:`CacheStatistics.write_savings_percent`.  (An earlier version
        diluted this by counting the unavoidable row writes in both the
        baseline and the total; :attr:`total_write_savings_percent` keeps
        that whole-run figure under its own name.)
        """
        accesses = self.col_slice_hits + self.col_slice_writes
        if not accesses:
            return 0.0
        return 100.0 * self.col_slice_hits / accesses

    @property
    def total_write_savings_percent(self) -> float:
        """All-WRITE saving including the unavoidable row-slice writes."""
        baseline = self.writes_without_reuse
        if not baseline:
            return 0.0
        return 100.0 * (baseline - self.total_slice_writes) / baseline

    @property
    def computation_reduction_percent(self) -> float:
        """Slice-pair work avoided by slicing (paper: 99.99 % average)."""
        if not self.dense_pair_operations:
            return 0.0
        return 100.0 * (1.0 - self.and_operations / self.dense_pair_operations)

    def merge(self, other: "EventCounts") -> "EventCounts":
        """Field-wise sum — aggregating shards or independent runs.

        Mirrors :meth:`CacheStatistics.merge`.  Every field is an additive
        event counter, so merging the per-shard counts of a sharded run
        reconstructs the totals the hardware would observe (row-slice
        writes may legitimately exceed the single-array total when a
        partitioner splits a row's edges across arrays — each array loads
        the row once).
        """
        if not isinstance(other, EventCounts):
            raise TypeError(f"cannot merge EventCounts with {type(other).__name__}")
        return EventCounts(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "EventCounts") -> "EventCounts":
        if not isinstance(other, EventCounts):
            return NotImplemented
        return self.merge(other)


@dataclass
class TCIMRunResult:
    """Everything produced by one accelerator run."""

    triangles: int
    events: EventCounts
    cache_stats: CacheStatistics
    slice_stats: SliceStatistics
    config: AcceleratorConfig
    #: Slices reserved for the row region (max valid slices of any row; for
    #: sharded runs, the largest row region of any shard).
    row_region_slices: int = 0
    #: Column-cache capacity in slices after the row-region reservation
    #: (for sharded runs, the tightest column cache of any shard).
    column_cache_slices: int = 0
    #: Per-shard breakdown (:class:`~repro.core.sharding.ShardResult`)
    #: when ``config.num_arrays > 1``; empty for single-array runs.
    shards: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


class TCIMAccelerator:
    """Functional + statistical simulator of the TCIM dataflow.

    Usage::

        accelerator = TCIMAccelerator()
        result = accelerator.run(graph)
        print(result.triangles, result.events.write_savings_percent)

    The run is exact (the returned ``triangles`` equals the true count) and
    deterministic for a given configuration.
    """

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or AcceleratorConfig()
        if self.config.slice_bits <= 0 or self.config.slice_bits % 8:
            raise ArchitectureError(
                f"slice_bits must be a positive multiple of 8, got {self.config.slice_bits}"
            )
        if self.config.capacity_slices < 2:
            raise ArchitectureError(
                f"array of {self.config.array_bytes} bytes cannot hold two "
                f"slices of {self.config.slice_bytes} bytes"
            )
        from repro.core.sharding import PARTITIONERS

        if self.config.num_arrays < 1:
            raise ArchitectureError(
                f"num_arrays must be >= 1, got {self.config.num_arrays}"
            )
        if self.config.shard_by not in PARTITIONERS:
            raise ArchitectureError(
                f"shard_by must be one of {PARTITIONERS}, "
                f"got {self.config.shard_by!r}"
            )
        if self.config.workers < 0:
            raise ArchitectureError(
                f"workers must be >= 0, got {self.config.workers}"
            )

    def run(
        self,
        graph: Graph,
        *,
        row_sliced: SlicedMatrix | None = None,
        col_sliced: SlicedMatrix | None = None,
        edge_arrays: tuple[np.ndarray, np.ndarray] | None = None,
        plan=None,
        join_plan=None,
        shard_contexts=None,
        context_pool=None,
    ) -> TCIMRunResult:
        """Execute Algorithm 1 on ``graph`` and collect all statistics.

        The keyword arguments let a caller that already holds the sliced
        structures, the oriented edge list, or the shard plan (notably
        :class:`repro.api.TCIMSession`, which keeps them resident across
        queries the way the Fig. 4 controller keeps the compressed graph
        in the array) skip the rebuild; omitted pieces are built here as
        before.  Passed structures must match the config's ``slice_bits``
        and the graph's vertex count.

        ``join_plan`` additionally passes a compiled
        :class:`repro.core.plan.JoinPlan` for the oriented edge list
        against exactly these slice structures: the run then skips
        candidate expansion and the merge-join per query (sharded runs
        slice per-array sub-plans out of it); results are bit-identical
        with or without it.

        ``shard_contexts`` passes resident self-contained coloring
        shards (:func:`repro.core.sharding.build_shard_contexts`); with
        ``shard_by="coloring"`` and no contexts they are built here.
        The context path ignores ``plan``/``join_plan`` — each lane
        owns its own compiled plan — and records the coloring metadata
        (colors, shard count, partitioner balance, the
        communication-free flag) in :attr:`TCIMRunResult.notes`.
        ``context_pool`` additionally passes a live
        :class:`repro.core.sharding.ContextPool` holding those contexts
        resident in its workers — the sweep then dispatches through the
        zero-copy pool instead of spawning processes per call.
        """
        config = self.config
        orientation = config.orientation
        if orientation not in ("upper", "symmetric"):
            raise ArchitectureError(
                f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
            )
        col_orientation = "lower" if orientation == "upper" else "symmetric"
        if row_sliced is None:
            row_sliced = SlicedMatrix.from_graph(
                graph, orientation, slice_bits=config.slice_bits
            )
        if col_sliced is None:
            col_sliced = SlicedMatrix.from_graph(
                graph, col_orientation, slice_bits=config.slice_bits
            )
        for name, sliced in (("row_sliced", row_sliced), ("col_sliced", col_sliced)):
            if sliced.slice_bits != config.slice_bits:
                raise ArchitectureError(
                    f"{name} uses {sliced.slice_bits}-bit slices but the "
                    f"config asks for {config.slice_bits}"
                )
            if sliced.num_rows != graph.num_vertices:
                raise ArchitectureError(
                    f"{name} covers {sliced.num_rows} rows but the graph has "
                    f"{graph.num_vertices} vertices"
                )
        shards: list = []
        notes: dict = {}
        if (
            config.num_arrays > 1
            or shard_contexts is not None
            or context_pool is not None
        ):
            accumulator, events, cache_stats, shards, notes = self._run_contexts(
                graph,
                row_sliced,
                col_sliced,
                edge_arrays=edge_arrays,
                plan=plan,
                join_plan=join_plan,
                shard_contexts=shard_contexts,
                context_pool=context_pool,
            )
            row_region = max((s.row_region_slices for s in shards), default=0)
            column_capacity = min(
                (s.column_cache_slices for s in shards),
                default=config.capacity_slices,
            )
        else:
            from repro.core.sharding import array_budget

            row_region, column_capacity = array_budget(
                row_sliced.row_valid_counts(), config.capacity_slices, "array"
            )
            outcome = kernels.execute_workload(
                kernels.CountKernel(),
                graph,
                row_sliced,
                col_sliced,
                orientation,
                column_capacity,
                policy=config.policy,
                seed=config.seed,
                plan=join_plan,
            )
            accumulator = outcome.accumulator
            events = EventCounts(**outcome.events)
            cache_stats = outcome.cache_stats
        triangles = accumulator if orientation == "upper" else accumulator // 6
        stats = slice_statistics(
            graph,
            slice_bits=config.slice_bits,
            orientation=orientation,
            row_sliced=row_sliced,
            col_sliced=col_sliced,
        )
        return TCIMRunResult(
            triangles=triangles,
            events=events,
            cache_stats=cache_stats,
            slice_stats=stats,
            config=config,
            row_region_slices=row_region,
            column_cache_slices=column_capacity,
            shards=shards,
            notes=notes,
        )

    def _run_contexts(
        self,
        graph: Graph,
        row_sliced: SlicedMatrix,
        col_sliced: SlicedMatrix,
        edge_arrays: tuple[np.ndarray, np.ndarray] | None = None,
        plan=None,
        join_plan=None,
        shard_contexts=None,
        context_pool=None,
    ) -> tuple[int, EventCounts, CacheStatistics, list, dict]:
        """Multi-array dataflow over shard contexts (:mod:`repro.core.sharding`).

        Coloring runs sweep the resident ``context_pool``, the passed
        ``shard_contexts`` or contexts built here, and note their
        metadata.  Position runs wrap ``plan`` (built when omitted) into
        single-lane contexts over ``row_sliced``/``col_sliced`` and never
        use a shared-memory pool, which would rebind the caller's
        resident arrays; their notes stay empty, so the pipeline model
        still prices their merge.
        """
        from repro.core.engine import oriented_edges
        from repro.core.sharding import (
            build_position_contexts,
            build_shard_contexts,
            context_balance,
            execute_contexts,
            plan_shards,
        )

        config = self.config
        coloring = (
            shard_contexts is not None
            or context_pool is not None
            or config.shard_by == "coloring"
        )
        if context_pool is not None:
            outcome = context_pool.run(use_plan=bool(config.use_plan))
            if shard_contexts is None:
                shard_contexts = context_pool._contexts
        elif coloring:
            if shard_contexts is None:
                shard_contexts = build_shard_contexts(
                    graph,
                    config.orientation,
                    config.num_arrays,
                    slice_bits=config.slice_bits,
                    seed=config.seed,
                    edge_arrays=edge_arrays,
                    use_plan=config.use_plan,
                )
            outcome = execute_contexts(
                shard_contexts,
                config.capacity_slices,
                policy=config.policy,
                seed=config.seed,
                workers=config.workers,
                use_plan=config.use_plan,
            )
        else:
            # Materialise the oriented edge list once; the planner and
            # the contexts both consume it.  A caller holding both (the
            # session) passes them in and nothing is rebuilt.
            if edge_arrays is None:
                edge_arrays = oriented_edges(graph, config.orientation)
            if plan is None:
                plan = plan_shards(
                    graph,
                    config.orientation,
                    config.num_arrays,
                    config.shard_by,
                    sources=edge_arrays[0],
                )
            elif plan.num_arrays != config.num_arrays:
                raise ArchitectureError(
                    f"plan covers {plan.num_arrays} arrays but the config "
                    f"asks for {config.num_arrays}; rebuild the plan with "
                    "plan_shards"
                )
            contexts = build_position_contexts(
                plan,
                row_sliced,
                col_sliced,
                edge_arrays,
                config.orientation,
                join_plan=join_plan,
            )
            # A passed join plan is always used, as on the single-array
            # path; each lane carries its subset only when one was given.
            outcome = execute_contexts(
                contexts,
                config.capacity_slices,
                policy=config.policy,
                seed=config.seed,
                workers=config.workers,
            )
        notes: dict = {}
        if coloring:
            notes = {
                "shard_by": "coloring",
                "colors": shard_contexts[0].colors,
                "num_shards": len(shard_contexts),
                "communication_free": True,
                "balance": context_balance(shard_contexts),
            }
            if context_pool is not None:
                notes["pool_backing"] = "shm"
                notes["pool_workers"] = context_pool.workers
        return (
            outcome.accumulator,
            outcome.events,
            outcome.cache_stats,
            outcome.shards,
            notes,
        )
