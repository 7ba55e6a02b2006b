"""Differential tests for resident join plans (:mod:`repro.core.plan`).

Three contracts, none negotiable:

* **Exactness** — the planned fast path produces bit-identical triangle
  counts, :class:`EventCounts` and :class:`CacheStatistics` versus the
  plan-free executor and the per-edge oracle, across graph families, orientations, slice widths,
  cache pressure and shard layouts.
* **Coherence** — a plan (and the keys cache beneath it) can never be
  served against structures it was not compiled for: the in-place slice
  maintenance reports every structural change, ``structure_version``
  keys the staleness guard, and the incremental patch produces a plan
  array-equal to a from-scratch rebuild after every operation of a
  randomized stream.
* **Isolation** — concurrent readers during an apply stream never
  observe a half-patched plan (plans are immutable; patching swaps
  whole objects under the session lock).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.api import open_session
from repro.core import incremental, kernels
from repro.core import plan as joinplan
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.engine import oriented_edges
from repro.core.oracle import run_legacy
from repro.core.plan import (
    JoinPlan,
    build_join_plan,
    merge_oriented_edges,
    oriented_structure_bits,
    patch_join_plan,
)
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph


GRAPH_FAMILIES = {
    "ba": lambda: generators.barabasi_albert(150, 5, seed=1),
    "rmat": lambda: generators.rmat(8, 1200, seed=2),
    "road": lambda: generators.road_network(12, 12, seed=3),
    "powerlaw": lambda: generators.powerlaw_cluster(120, 4, 0.6, seed=5),
    "triangle-free": lambda: generators.complete_bipartite(9, 11),
    "empty": lambda: Graph(0),
    "isolated": lambda: Graph(9),
    "single-edge": lambda: Graph(2, [(0, 1)]),
}


def structures(graph, orientation="upper", slice_bits=64):
    col_orientation = "lower" if orientation == "upper" else "symmetric"
    row = SlicedMatrix.from_graph(graph, orientation, slice_bits=slice_bits)
    col = SlicedMatrix.from_graph(graph, col_orientation, slice_bits=slice_bits)
    return row, col


def run_with_and_without_plan(graph, **config_kwargs):
    config = AcceleratorConfig(**config_kwargs)
    accelerator = TCIMAccelerator(config)
    plain = accelerator.run(graph)
    row, col = structures(graph, config.orientation, config.slice_bits)
    plan = build_join_plan(
        row, col, *oriented_edges(graph, config.orientation)
    )
    planned = accelerator.run(graph, row_sliced=row, col_sliced=col, join_plan=plan)
    return plain, planned


def execute_count(*args, **kwargs):
    """One batched counting run as ``(accumulator, events, cache_stats)``."""
    result = kernels.execute_workload(kernels.CountKernel(), *args, **kwargs)
    return result.accumulator, result.events, result.cache_stats


def assert_identical(plain, planned):
    assert planned.triangles == plain.triangles
    assert dataclasses.asdict(planned.events) == dataclasses.asdict(plain.events)
    assert dataclasses.asdict(planned.cache_stats) == dataclasses.asdict(
        plain.cache_stats
    )


def assert_plans_equal(left: JoinPlan, right: JoinPlan):
    assert left.num_edges == right.num_edges
    for name in ("row_positions", "col_positions", "trace_keys", "pair_counts"):
        a = np.asarray(getattr(left, name), dtype=np.int64)
        b = np.asarray(getattr(right, name), dtype=np.int64)
        assert np.array_equal(a, b), name


def assert_structures_equal(mutated: SlicedMatrix, fresh: SlicedMatrix):
    assert np.array_equal(mutated.indptr, fresh.indptr)
    assert np.array_equal(mutated.slice_ids, fresh.slice_ids)
    assert np.array_equal(mutated.data, fresh.data)


class TestPlannedExecutionDifferential:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_default_config(self, family):
        assert_identical(*run_with_and_without_plan(GRAPH_FAMILIES[family]()))

    @pytest.mark.parametrize("family", ["ba", "powerlaw", "road"])
    def test_symmetric_orientation(self, family):
        assert_identical(
            *run_with_and_without_plan(
                GRAPH_FAMILIES[family](), orientation="symmetric"
            )
        )

    @pytest.mark.parametrize("slice_bits", [8, 64, 128])
    def test_slice_widths(self, slice_bits):
        # 8-bit slices exercise the per-byte conjunction fallback, 128-bit
        # the multi-word path.
        for family in ("ba", "road", "triangle-free"):
            assert_identical(
                *run_with_and_without_plan(
                    GRAPH_FAMILIES[family](), slice_bits=slice_bits
                )
            )

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("array_bytes", [512, 4096])
    def test_cache_pressure(self, policy, array_bytes):
        # The memoised trace classification must match the plan-free
        # simulation even when the trace's serial eviction suffix runs.
        graph = generators.powerlaw_cluster(150, 5, 0.7, seed=6)
        plain, planned = run_with_and_without_plan(
            graph, array_bytes=array_bytes, policy=policy, seed=9
        )
        assert_identical(plain, planned)
        # ... and match the per-edge oracle loop.
        assert_identical(run_legacy(graph, plain.config), planned)
        assert plain.cache_stats.exchanges > 0 or array_bytes > 512

    @pytest.mark.parametrize(
        "num_arrays,shard_by", [(3, "edges"), (4, "degree"), (2, "rows")]
    )
    def test_sharded(self, num_arrays, shard_by):
        assert_identical(
            *run_with_and_without_plan(
                generators.barabasi_albert(400, 5, seed=7),
                num_arrays=num_arrays,
                shard_by=shard_by,
            )
        )

    def test_session_level_equivalence(self):
        graph = generators.barabasi_albert(300, 4, seed=11)
        with_plan = open_session(graph)
        without = open_session(graph, use_plan=False)
        assert with_plan.count() == without.count()
        a, b = with_plan.run(), without.run()
        assert dataclasses.asdict(a.events) == dataclasses.asdict(b.events)
        assert dataclasses.asdict(a.cache_stats) == dataclasses.asdict(b.cache_stats)
        assert with_plan.join_plan is not None
        assert without.join_plan is None
        assert with_plan.plan_resident_bytes() > 0
        assert without.plan_resident_bytes() == 0
        assert with_plan.resident_bytes() > without.resident_bytes()

    def test_plan_edge_count_mismatch_rejected(self):
        graph = generators.barabasi_albert(200, 4, seed=1)
        row, col = structures(graph)
        sources, destinations = oriented_edges(graph, "upper")
        plan = build_join_plan(row, col, sources[:10], destinations[:10])
        with pytest.raises(ArchitectureError, match="edges"):
            execute_count(
                None, row, col, "upper", 4096, policy="lru", seed=0,
                edges=(sources, destinations), plan=plan,
            )
        # Full-graph path (edges=None): the oriented count is known
        # without materialising the list, so a foreign plan is rejected
        # there too — for both orientations.
        with pytest.raises(ArchitectureError, match="edges"):
            execute_count(
                graph, row, col, "upper", 4096, policy="lru", seed=0, plan=plan
            )
        sym_row, sym_col = structures(graph, "symmetric")
        with pytest.raises(ArchitectureError, match="edges"):
            execute_count(
                graph, sym_row, sym_col, "symmetric", 4096, policy="lru",
                seed=0,
                plan=build_join_plan(
                    sym_row, sym_col,
                    *(a[:6] for a in oriented_edges(graph, "symmetric")),
                ),
            )


class TestStructureVersionAudit:
    """Satellite bug audit: structure mutation vs derived artifacts.

    The keys cache *is* invalidated by the current mutators — these
    tests pin that down as a contract (versioned, not ad-hoc) and prove
    the hazard is real for any position-holding artifact: after a
    structural mutation the old plan's stored positions point at the
    wrong slices, so serving it without the ``structure_version`` guard
    would be silently wrong, not loudly broken.
    """

    def test_payload_only_mutation_keeps_version_and_positions(self):
        graph = generators.barabasi_albert(120, 4, seed=3)
        sym = SlicedMatrix.from_graph(graph, "symmetric")
        version = sym.structure_version
        keys_before = sym.global_keys().copy()
        # Both endpoints already own valid slices covering each other's
        # column block iff the edge exists; pick a non-edge whose bit
        # lands in an existing slice: vertex pairs inside the same
        # 64-column block as an existing neighbour.
        u = int(np.argmax(np.diff(graph.csr[0])))  # highest-degree vertex
        neighbour = int(graph.neighbors(u)[0])
        candidate = None
        for v in range(
            (neighbour // 64) * 64, min((neighbour // 64 + 1) * 64, graph.num_vertices)
        ):
            if v != u and not graph.has_edge(u, v):
                candidate = v
                break
        assert candidate is not None
        delta = incremental.set_bit(sym, u, candidate)
        assert not delta.changed
        assert sym.structure_version == version
        assert np.array_equal(sym.global_keys(), keys_before)
        delta = incremental.clear_bit(sym, u, candidate)
        assert not delta.changed
        assert sym.structure_version == version

    def test_structural_mutation_bumps_version_and_keys_stay_exact(self):
        rng = np.random.default_rng(5)
        graph = generators.powerlaw_cluster(150, 4, 0.5, seed=2)
        sym = SlicedMatrix.from_graph(graph, "symmetric")
        edges = set(map(tuple, graph.edge_array().tolist()))
        n = graph.num_vertices
        for _ in range(80):
            if edges and rng.random() < 0.5:
                edge = list(edges)[int(rng.integers(len(edges)))]
                edges.discard(edge)
                delta = incremental.clear_bits(
                    sym,
                    np.array([edge[0], edge[1]]),
                    np.array([edge[1], edge[0]]),
                )
            else:
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u == v or (min(u, v), max(u, v)) in edges:
                    continue
                edges.add((min(u, v), max(u, v)))
                delta = incremental.set_bits(
                    sym, np.array([u, v]), np.array([v, u])
                )
            fresh = SlicedMatrix.from_graph(
                Graph(n, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)),
                "symmetric",
            )
            assert_structures_equal(sym, fresh)
            # The cached keys always equal a from-scratch derivation:
            # version-keyed invalidation never serves stale keys.
            assert np.array_equal(sym.global_keys(), fresh.global_keys())
            if delta.changed:
                assert delta.inserted_before.size or delta.removed_at.size

    def test_stale_plan_is_rejected_not_served(self):
        graph = generators.barabasi_albert(200, 4, seed=9)
        row, col = structures(graph)
        plan = build_join_plan(row, col, *oriented_edges(graph, "upper"))
        # Force a structural insert into the row structure: bit (0, v)
        # for a v in a column block row 0 does not yet cover.
        covered = set(row.row_slices(0)[0].tolist())
        block = next(
            k for k in range(row.slices_per_row) if k not in covered
        )
        delta = incremental.set_bit(row, 0, block * 64)
        assert delta.changed
        assert not plan.matches(row, col)
        with pytest.raises(ArchitectureError, match="stale join plan"):
            execute_count(
                None, row, col, "upper", 4096, policy="lru", seed=0, plan=plan
            )

    def test_stale_positions_really_point_at_wrong_slices(self):
        # The hazard the guard exists for: after an insert at the front
        # of the structure every stored position is off by one, so a
        # version-blind consumer would gather the wrong payloads.
        graph = generators.barabasi_albert(200, 4, seed=9)
        row, col = structures(graph)
        sources, destinations = oriented_edges(graph, "upper")
        plan = build_join_plan(row, col, sources, destinations)
        first_owner = int(np.searchsorted(row.indptr, 1, side="right")) - 1
        covered = set(row.row_slices(first_owner)[0].tolist())
        block = next(
            k for k in range(row.slices_per_row) if k not in covered
        )
        incremental.set_bit(row, first_owner, block * 64)
        fresh = build_join_plan(row, col, sources, destinations)
        stale_rows = np.asarray(plan.row_positions, dtype=np.int64)
        fresh_rows = np.asarray(fresh.row_positions, dtype=np.int64)
        assert stale_rows.size == fresh_rows.size
        assert not np.array_equal(stale_rows, fresh_rows)


class TestPatchedPlanEqualsRebuild:
    def _reference(self, session, orientation):
        graph = session.graph
        col_orientation = "lower" if orientation == "upper" else "symmetric"
        row = SlicedMatrix.from_graph(graph, orientation)
        col = SlicedMatrix.from_graph(graph, col_orientation)
        return row, col, build_join_plan(
            row, col, *oriented_edges(graph, orientation)
        )

    @pytest.mark.parametrize("orientation", ["upper", "symmetric"])
    def test_randomized_stream_per_op(self, orientation):
        rng = np.random.default_rng(17)
        graph = generators.powerlaw_cluster(200, 4, 0.5, seed=4)
        session = open_session(graph, orientation=orientation)
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        session.count()
        present = set(map(tuple, graph.edge_array().tolist()))
        n = graph.num_vertices
        for step in range(60):
            if present and rng.random() < 0.5:
                edge = list(present)[int(rng.integers(len(present)))]
                present.discard(edge)
                op = ("-", *edge)
            else:
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u == v or (min(u, v), max(u, v)) in present:
                    continue
                present.add((min(u, v), max(u, v)))
                op = ("+", u, v)
            session.apply([op])
            oracle.apply_ops([op])
            assert session.count() == oracle.triangles
            # join_plan flushes the pending patch; it must equal a plan
            # compiled from scratch on freshly sliced structures.
            patched = session.join_plan
            row, col, reference = self._reference(session, orientation)
            assert_plans_equal(patched, reference)
            assert_structures_equal(session._row_sliced, row)
            assert_structures_equal(session._col_sliced, col)
            assert patched.matches(session._row_sliced, session._col_sliced)

    def test_coalesced_batches_then_one_flush(self):
        graph = generators.barabasi_albert(250, 4, seed=6)
        session = open_session(graph)
        session.count()
        ops = (
            [("+", 0, v) for v in range(50, 70)]
            + [("-", *edge) for edge in sorted(map(tuple, graph.edge_array().tolist()))[:15]]
            + [("+", 1, v) for v in range(80, 90)]
        )
        report = session.apply(ops)
        assert report.segments == 3
        patched = session.join_plan
        _, _, reference = self._reference(session, "upper")
        assert_plans_equal(patched, reference)
        # And the patched plan serves an exact full run.
        scratch = TCIMAccelerator(AcceleratorConfig()).run(session.graph)
        resident = session.run()
        assert resident.triangles == scratch.triangles
        assert dataclasses.asdict(resident.events) == dataclasses.asdict(
            scratch.events
        )

    def test_insert_then_delete_roundtrip_restores_plan(self):
        graph = generators.barabasi_albert(200, 4, seed=8)
        session = open_session(graph)
        session.count()
        before = session.join_plan
        session.apply([("+", 0, 150), ("+", 3, 180)])
        session.apply([("-", 0, 150), ("-", 3, 180)])
        after = session.join_plan
        assert_plans_equal(after, before)

    def test_sharded_session_after_stream_is_exact(self):
        graph = generators.barabasi_albert(400, 5, seed=10)
        session = open_session(graph, num_arrays=3, shard_by="degree")
        session.count()
        rng = np.random.default_rng(3)
        edges = sorted(map(tuple, graph.edge_array().tolist()))
        ops = [("-", *edges[int(rng.integers(len(edges)))]) for _ in range(10)]
        ops += [("+", int(rng.integers(400)), int(rng.integers(400)))
                for _ in range(20)]
        ops = [op for op in ops if op[1] != op[2]]
        session.apply(ops)
        scratch = TCIMAccelerator(
            AcceleratorConfig(num_arrays=3, shard_by="degree")
        ).run(session.graph)
        resident = session.run()
        assert resident.triangles == scratch.triangles
        assert dataclasses.asdict(resident.events) == dataclasses.asdict(
            scratch.events
        )

    def test_patch_failure_falls_back_to_rebuild(self, monkeypatch):
        graph = generators.barabasi_albert(200, 4, seed=12)
        session = open_session(graph)
        session.count()

        def boom(*args, **kwargs):
            raise RuntimeError("injected patch failure")

        monkeypatch.setattr(joinplan, "patch_join_plan", boom)
        session.apply([("+", 0, 150)])
        # The fallback dropped the caches; queries rebuild and stay exact.
        scratch = TCIMAccelerator(AcceleratorConfig()).run(session.graph)
        assert session.run().triangles == scratch.triangles
        monkeypatch.undo()
        assert_plans_equal(
            session.join_plan,
            self._reference(session, "upper")[2],
        )

    def test_deep_backlog_drops_instead_of_splicing(self):
        graph = generators.barabasi_albert(200, 3, seed=2)
        session = open_session(graph)
        session.count()
        assert session._join_plan is not None
        # Churn beyond the backlog bound (max(1024, num_edges // 4))
        # in one apply: cheaper to re-slice than to splice.
        ops = [("+", u, v) for u in range(0, 60) for v in range(100, 120)
               if not session.has_edge(u, v)]
        assert len(ops) > 1024
        session.apply(ops)
        # Structural caches were dropped rather than spliced...
        assert session._row_sliced is None or not session._pending_patches
        # ...and the next query rebuilds an exact plan.
        scratch = TCIMAccelerator(AcceleratorConfig()).run(session.graph)
        assert session.run().triangles == scratch.triangles
        assert_plans_equal(
            session.join_plan, self._reference(session, "upper")[2]
        )


class TestPlanPrimitives:
    def test_subset_matches_planless_shard(self):
        graph = generators.barabasi_albert(300, 5, seed=5)
        row, col = structures(graph)
        sources, destinations = oriented_edges(graph, "upper")
        plan = build_join_plan(row, col, sources, destinations)
        positions = np.arange(sources.size)[1::3]
        sub = plan.subset(positions)
        shard_edges = (sources[positions], destinations[positions])
        plain = execute_count(
            None, row, col, "upper", 4096, policy="lru", seed=0, edges=shard_edges
        )
        planned = execute_count(
            None, row, col, "upper", 4096, policy="lru", seed=0,
            edges=shard_edges, plan=sub,
        )
        assert plain[0] == planned[0]
        assert plain[1] == planned[1]
        assert dataclasses.asdict(plain[2]) == dataclasses.asdict(planned[2])

    def test_cache_statistics_memo_returns_fresh_copies(self):
        graph = generators.barabasi_albert(200, 4, seed=5)
        row, col = structures(graph)
        plan = build_join_plan(row, col, *oriented_edges(graph, "upper"))
        first = plan.cache_statistics(512, "lru", 0)
        second = plan.cache_statistics(512, "lru", 0)
        assert first is not second
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
        first.hits += 1  # mutating a copy must not poison the memo
        assert plan.cache_statistics(512, "lru", 0).hits == second.hits

    def test_merge_oriented_edges_rejects_overlap_and_misses(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4)])
        sources, destinations = oriented_edges(graph, "upper")
        with pytest.raises(ArchitectureError, match="overlaps"):
            merge_oriented_edges(
                sources, destinations, np.array([[0, 1]]), "upper", 6, True
            )
        with pytest.raises(ArchitectureError, match="missing"):
            merge_oriented_edges(
                sources, destinations, np.array([[0, 5]]), "upper", 6, False
            )

    def test_oriented_structure_bits(self):
        delta = np.array([[1, 4], [2, 5]])
        rows, cols = oriented_structure_bits(delta, "upper", "row")
        assert rows.tolist() == [1, 2] and cols.tolist() == [4, 5]
        rows, cols = oriented_structure_bits(delta, "upper", "col")
        assert rows.tolist() == [4, 5] and cols.tolist() == [1, 2]
        rows, cols = oriented_structure_bits(delta, "symmetric", "row")
        assert sorted(zip(rows.tolist(), cols.tolist())) == sorted(
            [(1, 4), (4, 1), (2, 5), (5, 2)]
        )

    def test_empty_edge_list_plan(self):
        row, col = structures(Graph(4, [(0, 1)]))
        empty = np.empty(0, dtype=np.int64)
        plan = build_join_plan(row, col, empty, empty)
        assert plan.num_pairs == 0 and plan.num_edges == 0
        accumulator, events, stats = execute_count(
            None, row, col, "upper", 64, policy="lru", seed=0,
            edges=(empty, empty), plan=plan,
        )
        assert accumulator == 0
        assert events["and_operations"] == 0
        assert stats.accesses == 0

    def test_single_pair_plan_matches_plan_free(self):
        row, col = structures(Graph(4, [(0, 1)]))
        edges = (np.array([0], dtype=np.int64), np.array([1], dtype=np.int64))
        plan = build_join_plan(row, col, *edges)
        assert plan.num_pairs == 1  # slice 0 valid on both sides, AND = 0
        plain = execute_count(
            None, row, col, "upper", 64, policy="lru", seed=0, edges=edges
        )
        planned = execute_count(
            None, row, col, "upper", 64, policy="lru", seed=0,
            edges=edges, plan=plan,
        )
        assert plain[0] == planned[0] == 0
        assert plain[1] == planned[1]
        assert dataclasses.asdict(plain[2]) == dataclasses.asdict(planned[2])


class TestComposedStructureDelta:
    """A removal then an insertion, reported and patched as one delta."""

    @pytest.mark.parametrize("orientation", ["upper", "symmetric"])
    def test_removal_then_insertion_patch_equals_rebuild(self, orientation):
        graph = generators.barabasi_albert(300, 4, seed=21)
        n = graph.num_vertices
        row, col = structures(graph, orientation)
        sources, destinations = oriented_edges(graph, orientation)
        plan = build_join_plan(row, col, sources, destinations)
        edges = set(map(tuple, graph.edge_array().tolist()))
        # Every edge of vertices 7 and 40 goes (emptying their slices),
        # and vertex 7 regains edges in other column blocks, so one row
        # both loses and gains slices within the one composed delta.
        deletions = sorted(edge for edge in edges if 7 in edge or 40 in edge)
        insertions = sorted(
            {(7, v) for v in (150, 230, 290)} | {(3, 260), (64, 130)} - edges
        )
        deletions = np.array(deletions, dtype=np.int64)
        insertions = np.array(insertions, dtype=np.int64)

        def splice(sliced, side):
            return incremental.splice_bits(
                sliced,
                oriented_structure_bits(deletions, orientation, side),
                oriented_structure_bits(insertions, orientation, side),
            )

        row_delta = splice(row, "row")
        col_delta = splice(col, "col")
        for delta in (row_delta, col_delta):
            assert delta.removed_at.size and delta.inserted_before.size
        new_sources, new_destinations = merge_oriented_edges(
            sources, destinations, deletions, orientation, n, False
        )
        new_sources, new_destinations = merge_oriented_edges(
            new_sources, new_destinations, insertions, orientation, n, True
        )
        patched = patch_join_plan(
            plan, row, col, sources, destinations,
            new_sources, new_destinations, row_delta, col_delta,
        )
        final = Graph(
            n,
            np.array(
                sorted(
                    (edges - set(map(tuple, deletions.tolist())))
                    | set(map(tuple, insertions.tolist()))
                )
            ),
        )
        fresh_row, fresh_col = structures(final, orientation)
        assert_structures_equal(row, fresh_row)
        assert_structures_equal(col, fresh_col)
        assert_plans_equal(
            patched,
            build_join_plan(fresh_row, fresh_col, *oriented_edges(final, orientation)),
        )
        assert patched.matches(row, col)

    def test_insertion_then_removal_does_not_compose(self):
        graph = generators.barabasi_albert(200, 4, seed=9)
        row, _ = structures(graph)
        covered = set(row.row_slices(0)[0].tolist())
        block = next(k for k in range(row.slices_per_row) if k not in covered)
        insertion = incremental.set_bit(row, 0, block * 64)
        removal = incremental.clear_bit(row, 0, block * 64)
        assert insertion.inserted_before.size and removal.removed_at.size
        with pytest.raises(ArchitectureError, match="removal followed by"):
            incremental.StructureDelta.compose(insertion, removal)
        composed = incremental.StructureDelta.compose(removal, insertion)
        # A composed delta is not a removal to compose again.
        with pytest.raises(ArchitectureError, match="removal followed by"):
            incremental.StructureDelta.compose(composed, insertion)


class TestConcurrentReadsDuringApply:
    def test_readers_never_observe_half_patched_plan(self):
        graph = generators.barabasi_albert(400, 5, seed=13)
        session = open_session(graph)
        session.count()
        n = graph.num_vertices
        rng = np.random.default_rng(21)
        stop = threading.Event()
        failures: list[str] = []

        def reader():
            while not stop.is_set():
                with session.lock:
                    plan = session.join_plan
                    if plan is None:
                        continue
                    # Under the lock the plan must be exactly current for
                    # the resident structures and internally consistent.
                    if session._row_sliced is None:
                        continue
                    if not plan.matches(session._row_sliced, session._col_sliced):
                        failures.append("stale plan observed")
                    if int(plan.pair_counts.sum()) != plan.num_pairs:
                        failures.append("inconsistent plan arrays")
                    run = session.run()
                    count = session.count()
                if run.triangles != count:
                    failures.append("run/count diverged")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        oracle = DynamicTriangleCounter(n, graph)
        try:
            present = set(map(tuple, graph.edge_array().tolist()))
            for _ in range(40):
                if present and rng.random() < 0.5:
                    edge = list(present)[int(rng.integers(len(present)))]
                    present.discard(edge)
                    op = ("-", *edge)
                else:
                    u, v = int(rng.integers(n)), int(rng.integers(n))
                    if u == v or (min(u, v), max(u, v)) in present:
                        continue
                    present.add((min(u, v), max(u, v)))
                    op = ("+", u, v)
                session.apply([op])
                oracle.apply_ops([op])
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures[:5]
        assert session.count() == oracle.triangles
