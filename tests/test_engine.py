"""Differential tests: the batched executor vs the per-edge oracle loop.

The batched executor (:mod:`repro.core.engine`,
:func:`repro.core.kernels.execute_workload`) must be *bit-identical* to
the per-edge loop of :mod:`repro.core.oracle` — the same triangle count, every
:class:`EventCounts` field, and the same cache hit/miss/exchange
statistics — across graph families, orientations, slice widths,
replacement policies and capacity-starved caches.  Any divergence is a
bug in the engine, never an acceptable approximation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import engine, kernels
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.oracle import run_legacy
from repro.core.slicing import SlicedMatrix
from repro.graph import generators
from repro.graph.graph import Graph


def run_both(graph: Graph, **config_kwargs):
    config = AcceleratorConfig(**config_kwargs)
    return run_legacy(graph, config), TCIMAccelerator(config).run(graph)


def execute_count(*args, **kwargs):
    """One batched counting run as ``(accumulator, events, cache_stats)``."""
    result = kernels.execute_workload(kernels.CountKernel(), *args, **kwargs)
    return result.accumulator, result.events, result.cache_stats


def assert_identical(graph: Graph, **config_kwargs):
    legacy, vectorized = run_both(graph, **config_kwargs)
    assert vectorized.triangles == legacy.triangles
    assert dataclasses.asdict(vectorized.events) == dataclasses.asdict(legacy.events)
    assert dataclasses.asdict(vectorized.cache_stats) == dataclasses.asdict(
        legacy.cache_stats
    )
    assert vectorized.row_region_slices == legacy.row_region_slices
    assert vectorized.column_cache_slices == legacy.column_cache_slices


GRAPH_FAMILIES = {
    "ba": lambda: generators.barabasi_albert(150, 5, seed=1),
    "rmat": lambda: generators.rmat(8, 1200, seed=2),
    "road": lambda: generators.road_network(12, 12, seed=3),
    "erdos": lambda: generators.erdos_renyi(80, 320, seed=4),
    "powerlaw": lambda: generators.powerlaw_cluster(120, 4, 0.6, seed=5),
    "triangle-free": lambda: generators.complete_bipartite(9, 11),
    "complete": lambda: generators.complete_graph(40),
    "empty": lambda: Graph(0),
    "single-vertex": lambda: Graph(1),
    "isolated": lambda: Graph(9),
    "single-edge": lambda: Graph(2, [(0, 1)]),
}


class TestDifferentialFamilies:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_default_config(self, family):
        assert_identical(GRAPH_FAMILIES[family]())

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_symmetric_orientation(self, family):
        assert_identical(GRAPH_FAMILIES[family](), orientation="symmetric")


class TestDifferentialSliceWidths:
    @pytest.mark.parametrize("slice_bits", [8, 64, 128])
    @pytest.mark.parametrize("orientation", ["upper", "symmetric"])
    def test_slice_widths(self, slice_bits, orientation):
        for family in ("ba", "road", "triangle-free"):
            assert_identical(
                GRAPH_FAMILIES[family](),
                slice_bits=slice_bits,
                orientation=orientation,
            )


class TestDifferentialCachePressure:
    """Tiny arrays force exchanges — the serial tail of the trace sim."""

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("array_bytes", [128, 512, 4096])
    def test_policies_under_pressure(self, policy, array_bytes):
        graph = generators.powerlaw_cluster(150, 5, 0.7, seed=6)
        legacy, vectorized = run_both(
            graph, array_bytes=array_bytes, policy=policy, seed=9
        )
        assert dataclasses.asdict(vectorized.cache_stats) == dataclasses.asdict(
            legacy.cache_stats
        )
        assert vectorized.triangles == legacy.triangles

    def test_exchanges_actually_forced(self):
        graph = generators.powerlaw_cluster(150, 5, 0.7, seed=6)
        _, vectorized = run_both(graph, array_bytes=512)
        assert vectorized.cache_stats.exchanges > 0

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_pressure_with_symmetric_orientation(self, policy):
        graph = generators.erdos_renyi(100, 450, seed=7)
        assert_identical(
            graph, array_bytes=1024, policy=policy, orientation="symmetric"
        )


class TestDifferentialJoinPaths:
    """Both join implementations (dense table / searchsorted) are exact."""

    def test_searchsorted_fallback(self, monkeypatch):
        monkeypatch.setattr(engine, "DENSE_LOOKUP_MAX_KEYS", 0)
        for family in ("ba", "road", "complete", "empty"):
            assert_identical(GRAPH_FAMILIES[family]())
            assert_identical(GRAPH_FAMILIES[family](), array_bytes=512)

    def test_tiny_batches(self):
        graph = generators.barabasi_albert(120, 4, seed=8)
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")
        reference = execute_count(
            graph, row_sliced, col_sliced, "upper", 1 << 16, "lru", 0
        )
        tiny = execute_count(
            graph, row_sliced, col_sliced, "upper", 1 << 16, "lru", 0,
            batch_candidates=3,
        )
        assert tiny[0] == reference[0]
        assert tiny[1] == reference[1]
        assert tiny[2] == reference[2]


class TestDifferentialProperty:
    def test_random_edge_lists(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(0, 4 * n))
            graph = Graph(n, rng.integers(0, n, size=(m, 2)))
            slice_bits = int(rng.choice([8, 16, 64]))
            orientation = "upper" if trial % 2 else "symmetric"
            assert_identical(graph, slice_bits=slice_bits, orientation=orientation)


class TestEngineEdgeCases:
    """Degenerate inputs through the batched kernel and the trace sim."""

    def test_empty_graph_through_execute_batched(self):
        graph = Graph(0)
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")
        accumulator, fields, cache_stats = execute_count(
            graph, row_sliced, col_sliced, "upper", 16, "lru", 0
        )
        assert accumulator == 0
        assert fields["edges_processed"] == 0
        assert fields["and_operations"] == 0
        assert fields["row_slice_writes"] == 0
        assert cache_stats.accesses == 0

    def test_edgeless_graph_through_execute_batched(self):
        graph = Graph(12)
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")
        accumulator, fields, _ = execute_count(
            graph, row_sliced, col_sliced, "upper", 16, "lru", 0
        )
        assert accumulator == 0
        assert fields["dense_pair_operations"] == 0

    def test_no_valid_slice_pairs(self):
        """Edges whose row and column slices never share a slice index.

        With 8-bit slices, vertex 16's predecessors {0, 1} live in slice
        0 of the column structure while rows 0/1's successor {16} lives
        in slice 2 of the row structure — every join probe misses, so no
        AND fires and the cache trace stays empty, yet the per-edge
        counters still tick.
        """
        graph = Graph(17, [(0, 16), (1, 16)])
        row_sliced = SlicedMatrix.from_graph(graph, "upper", slice_bits=8)
        col_sliced = SlicedMatrix.from_graph(graph, "lower", slice_bits=8)
        accumulator, fields, cache_stats = execute_count(
            graph, row_sliced, col_sliced, "upper", 16, "lru", 0
        )
        assert accumulator == 0
        assert fields["and_operations"] == 0
        assert fields["edges_processed"] == 2
        assert cache_stats.accesses == 0
        assert_identical(graph, slice_bits=8)

    def test_simulate_key_trace_capacity_one(self):
        from repro.core.reuse import simulate_key_trace, simulate_trace

        trace = np.array([3, 3, 5, 3, 5, 5, 3], dtype=np.int64)
        for policy in ("lru", "fifo", "random"):
            fast = simulate_key_trace(trace, 1, policy=policy, seed=2)
            serial = simulate_trace(trace.tolist(), 1, policy=policy, seed=2)
            assert dataclasses.asdict(fast) == dataclasses.asdict(serial)
        # Capacity 1 can never hit on an alternating trace.
        stats = simulate_key_trace(np.array([1, 2, 1, 2]), 1)
        assert stats.hits == 0
        assert stats.writes == 4

    def test_simulate_key_trace_empty_trace_capacity_one(self):
        from repro.core.reuse import simulate_key_trace

        stats = simulate_key_trace(np.empty(0, dtype=np.int64), 1)
        assert stats.accesses == 0
        assert stats.writes == 0

    def test_shard_edges_subset(self):
        """``edges=`` runs a subset with row writes for touched rows only."""
        graph = generators.barabasi_albert(80, 4, seed=13)
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")
        sources, destinations = engine.oriented_edges(graph, "upper")
        half = sources.size // 2
        full = execute_count(
            graph, row_sliced, col_sliced, "upper", 1 << 16, "lru", 0
        )
        first = execute_count(
            graph, row_sliced, col_sliced, "upper", 1 << 16, "lru", 0,
            edges=(sources[:half], destinations[:half]),
        )
        second = execute_count(
            graph, row_sliced, col_sliced, "upper", 1 << 16, "lru", 0,
            edges=(sources[half:], destinations[half:]),
        )
        assert first[0] + second[0] == full[0]
        assert (
            first[1]["and_operations"] + second[1]["and_operations"]
            == full[1]["and_operations"]
        )
        assert first[1]["edges_processed"] == half

    def test_shard_edges_rejects_bad_orientation(self):
        from repro.errors import ArchitectureError

        graph = generators.complete_graph(5)
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")
        with pytest.raises(ArchitectureError, match="orientation"):
            execute_count(
                graph, row_sliced, col_sliced, "lower", 16, "lru", 0,
                edges=(np.array([0]), np.array([1])),
            )


class TestEngineConfig:
    def test_unknown_engine_rejected(self):
        from repro.errors import ArchitectureError

        # There is one executor; an ``engine`` key is an unknown field.
        with pytest.raises(ArchitectureError, match="engine"):
            AcceleratorConfig.from_mapping({"engine": "warp-drive"})

    def test_oracle_is_single_array(self):
        from repro.errors import ArchitectureError

        with pytest.raises(ArchitectureError, match="num_arrays"):
            run_legacy(GRAPH_FAMILIES["ba"](), AcceleratorConfig(num_arrays=2))

    def test_bad_num_arrays_rejected(self):
        from repro.errors import ArchitectureError

        for bad in (0, -3):
            with pytest.raises(ArchitectureError, match="num_arrays"):
                TCIMAccelerator(AcceleratorConfig(num_arrays=bad))

    def test_default_is_vectorized(self):
        """A single-array run is one batched counting pass, nothing else."""
        graph = GRAPH_FAMILIES["powerlaw"]()
        result = TCIMAccelerator().run(graph)
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")
        accumulator, fields, cache_stats = execute_count(
            graph, row_sliced, col_sliced, "upper",
            result.column_cache_slices, "lru", 0,
        )
        assert result.triangles == accumulator
        assert dataclasses.asdict(result.events) == fields
        assert result.cache_stats == cache_stats

    def test_oriented_edges_rejects_unknown_orientation(self):
        from repro.errors import ArchitectureError

        graph = generators.complete_graph(4)
        with pytest.raises(ArchitectureError, match="orientation"):
            engine.oriented_edges(graph, "lower")

    def test_oriented_edges_order_matches_legacy_iteration(self):
        graph = generators.erdos_renyi(30, 90, seed=11)
        sources, destinations = engine.oriented_edges(graph, "upper")
        # Lexicographic by (source, destination) — the legacy loop order.
        keys = sources * graph.num_vertices + destinations
        assert np.all(np.diff(keys) > 0)
        sym_src, sym_dst = engine.oriented_edges(graph, "symmetric")
        assert sym_src.size == 2 * graph.num_edges
        sym_keys = sym_src * graph.num_vertices + sym_dst
        assert np.all(np.diff(sym_keys) > 0)


class TestEngineSpeed:
    def test_vectorized_faster_on_mid_size_graph(self):
        """Coarse guard: the batched executor beats the Python loop clearly.

        The acceptance-scale benchmark (20k vertices, >=20x) lives in
        benchmarks/smoke_engine_speedup.py; this keeps a cheaper signal in
        the tier-1 suite.
        """
        import time

        graph = generators.barabasi_albert(4000, 8, seed=12)
        TCIMAccelerator().run(graph)  # warm numpy
        start = time.perf_counter()
        vectorized = TCIMAccelerator().run(graph)
        vectorized_s = time.perf_counter() - start
        start = time.perf_counter()
        legacy = run_legacy(graph)
        legacy_s = time.perf_counter() - start
        assert vectorized.triangles == legacy.triangles
        assert legacy_s / vectorized_s > 3.0
