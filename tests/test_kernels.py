"""Tests for the generic bulk-bitwise kernel layer (repro.core.kernels).

The executor must be one dataflow with pluggable reductions: the
counting kernel bit-identical to the per-edge oracle loop
(``tests/test_engine.py``), the per-edge and per-vertex kernels
value-identical to the pure-Python oracles, and every path — batched,
planned, sharded edge subsets — producing the same values, events, and
cache statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import triangles_per_vertex
from repro.analysis.truss import edge_support
from repro.core import engine
from repro.core.kernels import (
    CountKernel,
    EdgeSupportKernel,
    VertexTallyKernel,
    execute_workload,
    vertex_tallies_from_supports,
)
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph


def _sym_setup(graph):
    sym = SlicedMatrix.from_graph(graph, "symmetric")
    sources, destinations = engine.oriented_edges(graph, "symmetric")
    return sym, sources, destinations


def _run(kernel, graph, plan=None, capacity=1 << 16):
    sym, sources, destinations = _sym_setup(graph)
    return execute_workload(
        kernel,
        None,
        sym,
        sym,
        "symmetric",
        capacity,
        "lru",
        0,
        edges=(sources, destinations),
        plan=plan,
    )


class TestPairPopcounts:
    def test_sums_to_pair_popcount(self, random_graphs):
        for graph in random_graphs:
            sym, sources, destinations = _sym_setup(graph)
            plan = build_join_plan(sym, sym, sources, destinations)
            vector = engine.pair_popcounts(
                sym.data, sym.data, plan.row_positions, plan.col_positions
            )
            scalar = engine.pair_popcount(
                sym.data, sym.data, plan.row_positions, plan.col_positions
            )
            assert vector.dtype == np.int64
            assert int(vector.sum()) == scalar

    def test_empty_positions(self):
        empty = np.empty(0, dtype=np.int64)
        data = np.zeros((4, 1), dtype=np.uint64)
        result = engine.pair_popcounts(data, data, empty, empty)
        assert result.size == 0 and result.dtype == np.int64


class TestCountKernel:
    def test_no_per_edge_materialised(self, paper_graph):
        result = _run(CountKernel(), paper_graph)
        assert isinstance(result.value, int)


class TestEdgeSupportKernel:
    def test_matches_oracle(self, random_graphs):
        for graph in random_graphs:
            result = _run(EdgeSupportKernel(), graph)
            sources, destinations = engine.oriented_edges(graph, "symmetric")
            oracle = edge_support(graph)
            for u, v, got in zip(
                sources.tolist(), destinations.tolist(), result.value.tolist()
            ):
                assert got == oracle[(min(u, v), max(u, v))]

    def test_accumulator_is_six_times_triangles(self, k5):
        result = _run(EdgeSupportKernel(), k5)
        assert result.accumulator == 6 * 10
        assert int(result.value.sum()) == result.accumulator

    def test_planned_matches_batched(self, random_graphs):
        for graph in random_graphs:
            sym, sources, destinations = _sym_setup(graph)
            plan = build_join_plan(sym, sym, sources, destinations)
            free = _run(EdgeSupportKernel(), graph)
            planned = _run(EdgeSupportKernel(), graph, plan=plan)
            assert np.array_equal(free.value, planned.value)
            assert free.accumulator == planned.accumulator
            assert free.events == planned.events
            assert free.cache_stats == planned.cache_stats

    def test_zero_pair_edges(self):
        # A path graph: no triangles, every edge's pair run reduces to 0 —
        # the case np.add.reduceat would mis-handle on the planned path.
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sym, sources, destinations = _sym_setup(graph)
        plan = build_join_plan(sym, sym, sources, destinations)
        planned = _run(EdgeSupportKernel(), graph, plan=plan)
        assert np.array_equal(planned.value, np.zeros(sources.size, dtype=np.int64))

    def test_edge_subset_matches_full(self, k5):
        # A shard-style subset run agrees positionally with the full run.
        sym, sources, destinations = _sym_setup(k5)
        positions = np.arange(0, sources.size, 2)
        full = _run(EdgeSupportKernel(), k5)
        subset = execute_workload(
            EdgeSupportKernel(),
            None,
            sym,
            sym,
            "symmetric",
            1 << 16,
            "lru",
            0,
            edges=(sources[positions], destinations[positions]),
        )
        assert np.array_equal(subset.value, full.value[positions])


class TestVertexTallyKernel:
    def test_matches_oracle(self, random_graphs):
        for graph in random_graphs:
            result = _run(VertexTallyKernel(graph.num_vertices), graph)
            assert np.array_equal(result.value, triangles_per_vertex(graph))

    def test_tallies_from_supports(self, paper_graph):
        sources, destinations = engine.oriented_edges(paper_graph, "symmetric")
        oracle = edge_support(paper_graph)
        supports = np.array(
            [oracle[(min(u, v), max(u, v))] for u, v in zip(sources, destinations)],
            dtype=np.int64,
        )
        tallies = vertex_tallies_from_supports(
            sources, supports, paper_graph.num_vertices
        )
        assert np.array_equal(tallies, triangles_per_vertex(paper_graph))


class TestValidation:
    def test_bad_orientation(self, paper_graph):
        sym, sources, destinations = _sym_setup(paper_graph)
        with pytest.raises(ArchitectureError, match="orientation"):
            execute_workload(
                CountKernel(), None, sym, sym, "lower", 8, "lru", 0,
                edges=(sources, destinations),
            )

    def test_plan_edge_count_mismatch(self, paper_graph):
        sym, sources, destinations = _sym_setup(paper_graph)
        plan = build_join_plan(sym, sym, sources, destinations)
        with pytest.raises(ArchitectureError, match="compile a plan"):
            execute_workload(
                EdgeSupportKernel(), None, sym, sym, "symmetric", 8, "lru", 0,
                edges=(sources[:2], destinations[:2]), plan=plan,
            )

    def test_stale_plan_rejected(self):
        from repro.core import incremental

        graph = generators.barabasi_albert(200, 4, seed=9)
        sym, sources, destinations = _sym_setup(graph)
        plan = build_join_plan(sym, sym, sources, destinations)
        # Force a structural insert: a bit in a column block row 0 does
        # not yet cover, so the slice directory shifts under the plan.
        covered = set(sym.row_slices(0)[0].tolist())
        block = next(k for k in range(sym.slices_per_row) if k not in covered)
        delta = incremental.set_bit(sym, 0, block * 64)
        assert delta.changed
        with pytest.raises(ArchitectureError, match="stale join plan"):
            execute_workload(
                EdgeSupportKernel(), None, sym, sym, "symmetric", 4096,
                "lru", 0, edges=(sources, destinations), plan=plan,
            )
