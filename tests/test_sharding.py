"""Differential guarantees for sharded multi-array execution.

The contract of :mod:`repro.core.sharding` (the functional model of the
paper's Fig. 4 bank organisation):

* ``num_arrays=1`` is **bit-identical** to the single-array run and the
  per-edge oracle loop — triangles, every :class:`EventCounts` field, cache stats;
* for any ``num_arrays`` and any partitioner the merged triangle count
  is exact, and the additive event counters conserve the single-array
  totals (``edges_processed``, ``and_operations``,
  ``dense_pair_operations``, ``index_lookups``, ``bitcount_operations``);
* serial and :class:`ProcessPoolExecutor` execution produce identical
  results shard by shard.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.accelerator import AcceleratorConfig, EventCounts, TCIMAccelerator
from repro.core.engine import oriented_edges
from repro.core.oracle import run_legacy
from repro.core.reuse import CacheStatistics
from repro.core.sharding import (
    PARTITIONERS,
    POSITION_PARTITIONERS,
    ShardPlan,
    build_position_contexts,
    execute_contexts,
    plan_shards,
)
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph

#: Counters that must sum to the single-array totals across any partition
#: of the edge list.  Not conserved: ``row_slice_writes`` (the contiguous
#: edge partitioner can split a row across two arrays, each loading it)
#: and ``col_slice_writes``/``col_slice_hits`` (each shard's private,
#: smaller cache reclassifies hits vs writes).
CONSERVED_FIELDS = (
    "edges_processed",
    "and_operations",
    "dense_pair_operations",
    "index_lookups",
    "bitcount_operations",
)

GRAPHS = {
    "ba": lambda: generators.barabasi_albert(300, 6, seed=1),
    "road": lambda: generators.road_network(15, 15, seed=2),
    "powerlaw": lambda: generators.powerlaw_cluster(200, 5, 0.5, seed=3),
    "empty": lambda: Graph(0),
    "isolated": lambda: Graph(7),
    "single-edge": lambda: Graph(2, [(0, 1)]),
}


def run(graph: Graph, **kwargs) -> "TCIMRunResult":  # noqa: F821
    return TCIMAccelerator(AcceleratorConfig(**kwargs)).run(graph)


class TestSingleArrayIdentity:
    """num_arrays=1 must stay bit-identical to the single-array run."""

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_accelerator_path(self, family):
        graph = GRAPHS[family]()
        baseline = run(graph)
        single = run(graph, num_arrays=1)
        assert single.triangles == baseline.triangles
        assert dataclasses.asdict(single.events) == dataclasses.asdict(
            baseline.events
        )
        assert dataclasses.asdict(single.cache_stats) == dataclasses.asdict(
            baseline.cache_stats
        )
        assert single.row_region_slices == baseline.row_region_slices
        assert single.column_cache_slices == baseline.column_cache_slices
        assert single.shards == []

    @pytest.mark.parametrize("shard_by", POSITION_PARTITIONERS)
    def test_orchestrator_with_one_shard(self, shard_by):
        """The orchestrator itself matches the per-edge oracle loop."""
        graph = GRAPHS["ba"]()
        config = AcceleratorConfig()
        baseline = run_legacy(graph)
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")
        plan = plan_shards(graph, "upper", 1, shard_by)
        contexts = build_position_contexts(
            plan, row_sliced, col_sliced, oriented_edges(graph, "upper"), "upper"
        )
        outcome = execute_contexts(
            contexts,
            config.capacity_slices,
            policy=config.policy,
            seed=config.seed,
        )
        assert outcome.accumulator == baseline.triangles
        assert dataclasses.asdict(outcome.events) == dataclasses.asdict(
            baseline.events
        )
        assert dataclasses.asdict(outcome.cache_stats) == dataclasses.asdict(
            baseline.cache_stats
        )
        (shard,) = outcome.shards
        assert shard.row_region_slices == baseline.row_region_slices
        assert shard.column_cache_slices == baseline.column_cache_slices


class TestShardedExactness:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("shard_by", POSITION_PARTITIONERS)
    @pytest.mark.parametrize("num_arrays", [2, 4, 8])
    def test_triangles_exact_and_events_conserved(
        self, family, shard_by, num_arrays
    ):
        graph = GRAPHS[family]()
        baseline = run(graph)
        sharded = run(graph, num_arrays=num_arrays, shard_by=shard_by)
        assert sharded.triangles == baseline.triangles
        for field in CONSERVED_FIELDS:
            assert getattr(sharded.events, field) == getattr(
                baseline.events, field
            ), field
        assert len(sharded.shards) == num_arrays
        # The merged events equal the field-wise shard sums.
        merged = EventCounts()
        merged_cache = CacheStatistics()
        for shard in sharded.shards:
            merged = merged + shard.events
            merged_cache = merged_cache.merge(shard.cache_stats)
        assert dataclasses.asdict(merged) == dataclasses.asdict(sharded.events)
        assert dataclasses.asdict(merged_cache) == dataclasses.asdict(
            sharded.cache_stats
        )

    @pytest.mark.parametrize("shard_by", ["rows", "degree"])
    def test_whole_row_partitioners_conserve_row_writes(self, shard_by):
        """Row-granular partitioners never duplicate a row's load."""
        graph = GRAPHS["powerlaw"]()
        baseline = run(graph)
        sharded = run(graph, num_arrays=4, shard_by=shard_by)
        assert (
            sharded.events.row_slice_writes == baseline.events.row_slice_writes
        )

    def test_symmetric_orientation(self):
        graph = GRAPHS["ba"]()
        baseline = run(graph, orientation="symmetric")
        sharded = run(
            graph, orientation="symmetric", num_arrays=4, shard_by="degree"
        )
        assert sharded.triangles == baseline.triangles
        assert (
            sharded.events.and_operations == baseline.events.and_operations
        )

    def test_capacity_pressure(self):
        """Exactness holds when the per-array column caches thrash."""
        graph = GRAPHS["powerlaw"]()
        baseline = run(graph, array_bytes=16 * 1024)
        sharded = run(
            graph, array_bytes=16 * 1024, num_arrays=4, shard_by="edges"
        )
        assert sharded.triangles == baseline.triangles
        assert sharded.events.and_operations == baseline.events.and_operations

    def test_random_graphs_property(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(0, 5 * n))
            graph = Graph(n, rng.integers(0, n, size=(m, 2)))
            baseline = run(graph)
            num_arrays = int(rng.choice([2, 3, 4, 8]))
            shard_by = POSITION_PARTITIONERS[trial % len(POSITION_PARTITIONERS)]
            sharded = run(graph, num_arrays=num_arrays, shard_by=shard_by)
            assert sharded.triangles == baseline.triangles
            for field in CONSERVED_FIELDS:
                assert getattr(sharded.events, field) == getattr(
                    baseline.events, field
                )


class TestWorkers:
    def test_process_pool_matches_serial(self):
        graph = GRAPHS["ba"]()
        serial = run(graph, num_arrays=4, shard_by="degree", workers=0)
        pooled = run(graph, num_arrays=4, shard_by="degree", workers=2)
        assert pooled.triangles == serial.triangles
        assert dataclasses.asdict(pooled.events) == dataclasses.asdict(
            serial.events
        )
        assert [dataclasses.asdict(s.events) for s in pooled.shards] == [
            dataclasses.asdict(s.events) for s in serial.shards
        ]
        assert [dataclasses.asdict(s.cache_stats) for s in pooled.shards] == [
            dataclasses.asdict(s.cache_stats) for s in serial.shards
        ]


    @pytest.mark.parametrize("shard_by", ["degree", "coloring"])
    def test_worker_death_raises_typed_error(self, monkeypatch, shard_by):
        """A worker dying in the one-shot pool surfaces ArchitectureError,
        not a bare BrokenProcessPool (workers fork with the patch)."""
        import os

        from repro.core import sharding

        monkeypatch.setattr(sharding, "_run_context", lambda *args: os._exit(1))
        accelerator = TCIMAccelerator(
            AcceleratorConfig(num_arrays=4, shard_by=shard_by, workers=2)
        )
        with pytest.raises(ArchitectureError, match="worker died"):
            accelerator.run(GRAPHS["ba"]())


class TestPositionContexts:
    """Position shards are single-lane contexts over the shared structures."""

    def test_lanes_reference_global_structures(self):
        graph = GRAPHS["ba"]()
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")
        sources, destinations = oriented_edges(graph, "upper")
        plan = plan_shards(graph, "upper", 3, "degree")
        contexts = build_position_contexts(
            plan, row_sliced, col_sliced, (sources, destinations), "upper"
        )
        assert [ctx.shard_id for ctx in contexts] == [0, 1, 2]
        for context, positions in zip(contexts, plan.assignments):
            assert context.row_sliced is row_sliced
            (lane,) = context.lanes
            assert lane.col_sliced is col_sliced
            assert lane.join_plan is None
            assert np.array_equal(lane.sources, sources[positions])
            assert np.array_equal(lane.destinations, destinations[positions])

    def test_join_plan_mismatch_rejected(self):
        from repro.core.plan import build_join_plan

        small = generators.barabasi_albert(50, 3, seed=4)
        big = GRAPHS["ba"]()
        row_sliced = SlicedMatrix.from_graph(big, "upper")
        col_sliced = SlicedMatrix.from_graph(big, "lower")
        small_plan = build_join_plan(
            SlicedMatrix.from_graph(small, "upper"),
            SlicedMatrix.from_graph(small, "lower"),
            *oriented_edges(small, "upper"),
        )
        with pytest.raises(ArchitectureError, match="join plan covers"):
            build_position_contexts(
                plan_shards(big, "upper", 2),
                row_sliced,
                col_sliced,
                oriented_edges(big, "upper"),
                "upper",
                join_plan=small_plan,
            )

    def test_shm_backing_never_adopts_position_structures(self):
        """A position run under backing="shm" keeps the session's arrays
        on the heap and leaves the notes empty (merge term still priced)."""
        from repro.api import TCIMSession

        graph = GRAPHS["ba"]()
        serial = run(graph, num_arrays=4, shard_by="degree")
        config = AcceleratorConfig(
            num_arrays=4, shard_by="degree", workers=2, backing="shm"
        )
        with TCIMSession(graph, config) as session:
            session.slice_stats()  # builds the resident structures
            row_data = session._row_sliced.data
            col_data = session._col_sliced.data
            result = session.simulate().result
            assert session._row_sliced.data is row_data
            assert session._col_sliced.data is col_data
            assert session._context_pool is None
        assert result.notes == {}
        assert result.triangles == serial.triangles
        assert dataclasses.asdict(result.events) == dataclasses.asdict(
            serial.events
        )


class TestShardPlans:
    def test_edges_partitioner_is_contiguous(self):
        graph = GRAPHS["ba"]()
        plan = plan_shards(graph, "upper", 4, "edges")
        positions = np.concatenate(plan.assignments)
        assert np.array_equal(positions, np.arange(graph.num_edges))

    def test_rows_partitioner_keeps_rows_together(self):
        graph = GRAPHS["ba"]()
        sources, _ = oriented_edges(graph, "upper")
        plan = plan_shards(graph, "upper", 4, "rows")
        for shard_id, positions in enumerate(plan.assignments):
            assert np.all(sources[positions] % 4 == shard_id)

    def test_degree_partitioner_balances_better_than_rows(self):
        """LPT should not be worse-balanced than round-robin on a skewed
        power-law graph (measured by the heaviest shard's edge count)."""
        graph = generators.powerlaw_cluster(400, 8, 0.4, seed=9)
        rows = plan_shards(graph, "upper", 8, "rows")
        degree = plan_shards(graph, "upper", 8, "degree")
        assert max(degree.edges_per_shard()) <= max(rows.edges_per_shard())

    def test_plan_covers_every_edge_once(self):
        graph = GRAPHS["powerlaw"]()
        for shard_by in POSITION_PARTITIONERS:
            plan = plan_shards(graph, "upper", 5, shard_by)
            positions = np.sort(np.concatenate(plan.assignments))
            assert np.array_equal(positions, np.arange(graph.num_edges))
            assert plan.num_edges == graph.num_edges

    def test_more_arrays_than_edges(self):
        graph = GRAPHS["single-edge"]()
        sharded = run(graph, num_arrays=8)
        assert sharded.triangles == 0
        assert len(sharded.shards) == 8
        assert sum(s.edges for s in sharded.shards) == 1


class TestValidation:
    def test_bad_num_arrays(self):
        with pytest.raises(ArchitectureError, match="num_arrays"):
            TCIMAccelerator(AcceleratorConfig(num_arrays=0))

    def test_bad_shard_by(self):
        with pytest.raises(ArchitectureError, match="shard_by"):
            TCIMAccelerator(AcceleratorConfig(shard_by="hash"))

    def test_bad_workers(self):
        with pytest.raises(ArchitectureError, match="workers"):
            TCIMAccelerator(AcceleratorConfig(workers=-1))

    def test_plan_validation(self):
        graph = GRAPHS["ba"]()
        with pytest.raises(ArchitectureError, match="num_arrays"):
            plan_shards(graph, "upper", 0, "edges")
        with pytest.raises(ArchitectureError, match="shard_by"):
            plan_shards(graph, "upper", 2, "random")
        with pytest.raises(ArchitectureError, match="shards"):
            ShardPlan(2, "edges", (np.arange(3),))

    def test_plan_orientation_mismatch_rejected(self):
        graph = GRAPHS["ba"]()
        row_sliced = SlicedMatrix.from_graph(graph, "symmetric")
        col_sliced = SlicedMatrix.from_graph(graph, "symmetric")
        plan = plan_shards(graph, "upper", 2, "edges")
        with pytest.raises(ArchitectureError, match="orientation"):
            build_position_contexts(
                plan,
                row_sliced,
                col_sliced,
                oriented_edges(graph, "symmetric"),
                "symmetric",
            )

    def test_plan_graph_mismatch_rejected(self):
        small = generators.barabasi_albert(50, 3, seed=4)
        big = GRAPHS["ba"]()
        plan = plan_shards(small, "upper", 4)
        row_sliced = SlicedMatrix.from_graph(big, "upper")
        col_sliced = SlicedMatrix.from_graph(big, "lower")
        with pytest.raises(ArchitectureError, match="different graph"):
            build_position_contexts(
                plan, row_sliced, col_sliced, oriented_edges(big, "upper"), "upper"
            )

    def test_plan_identity_semantics(self):
        """ndarray fields force identity equality — no crash either way."""
        graph = GRAPHS["ba"]()
        plan = plan_shards(graph, "upper", 2)
        other = plan_shards(graph, "upper", 2)
        assert plan == plan
        assert plan != other
        assert len({plan, other}) == 2

    def test_array_too_small_to_split(self):
        graph = GRAPHS["ba"]()
        with pytest.raises(ArchitectureError):
            run(graph, array_bytes=1024, num_arrays=64)

    def test_merge_rejects_foreign_type(self):
        with pytest.raises(TypeError):
            EventCounts().merge(object())
        assert EventCounts().__add__(3) is NotImplemented
