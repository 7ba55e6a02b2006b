"""Net-delta reads: many queued write batches, one splice per read.

``apply`` only queues its committed batches; the next read folds the
whole queue into one net delta (an edge toggled an even number of times
drops out), splices it once into each resident structure, patches the
join plan once and splices ``session.graph`` instead of rebuilding it.
These tests hold every resident artifact after such a read to a
from-scratch build, and force each patch path's fallback to check that
it is counted and stays exact.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest

from repro.api import TCIMSession, open_session
from repro.core import incremental
from repro.core import plan as joinplan
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan
from repro.core.sharding import ShardContext, build_shard_contexts
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph

from test_plan import assert_plans_equal, assert_structures_equal

CONFIGS = {
    "upper": {},
    "symmetric": {"orientation": "symmetric"},
    "coloring": {"num_arrays": 4, "shard_by": "coloring"},
    "coloring-shm": {
        "num_arrays": 4, "shard_by": "coloring", "workers": 2, "backing": "shm",
    },
}


def toggle_windows(graph: Graph, rng, applies: int, edges: int, even=False):
    """Op lists for ``applies`` calls, each edge toggled 1-4 times across them.

    Half the touched edges start present, half absent.  An edge is
    touched at most once per apply, so its operations alternate across
    the window; ``even=True`` toggles every edge 2 or 4 times, so the
    whole window cancels out.
    """
    assert applies >= 4
    n = graph.num_vertices
    present = set(map(tuple, graph.edge_array().tolist()))
    existing = sorted(present)
    touched: set[tuple[int, int]] = set()
    for index in rng.choice(len(existing), edges // 2, replace=False):
        touched.add(existing[int(index)])
    while len(touched) < edges:
        u, v = sorted(int(x) for x in rng.integers(n, size=2))
        if u != v and (u, v) not in present:
            touched.add((u, v))
    windows: list[list[tuple[str, int, int]]] = [[] for _ in range(applies)]
    for edge in sorted(touched):
        toggles = int(rng.choice([2, 4])) if even else int(rng.integers(1, 5))
        for index in sorted(rng.choice(applies, toggles, replace=False)):
            windows[index].append(("-" if edge in present else "+", *edge))
            present ^= {edge}
    for ops in windows:
        rng.shuffle(ops)
    return windows


def reference_structures(graph: Graph, orientation: str):
    col_orientation = "lower" if orientation == "upper" else "symmetric"
    row = SlicedMatrix.from_graph(graph, orientation)
    col = SlicedMatrix.from_graph(graph, col_orientation)
    return row, col, build_join_plan(row, col, *oriented_edges(graph, orientation))


def assert_graph_equal(graph: Graph, edges: set):
    fresh = Graph(
        graph.num_vertices, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    )
    assert np.array_equal(graph.edge_array(), fresh.edge_array())
    for spliced, rebuilt in zip(graph.csr, fresh.csr):
        assert np.array_equal(spliced, rebuilt)


def assert_contexts_equal(patched, rebuilt):
    assert len(patched) == len(rebuilt)
    for a, b in zip(patched, rebuilt):
        assert a.triple == b.triple
        assert_structures_equal(a.row_sliced, b.row_sliced)
        for lane_a, lane_b in zip(a.lanes, b.lanes):
            assert np.array_equal(lane_a.sources, lane_b.sources)
            assert np.array_equal(lane_a.destinations, lane_b.destinations)
            assert_structures_equal(lane_a.col_sliced, lane_b.col_sliced)
            assert (lane_a.join_plan is None) == (lane_b.join_plan is None)
            if lane_a.join_plan is not None:
                assert_plans_equal(lane_a.join_plan, lane_b.join_plan)


def assert_runs_equal(session: TCIMSession, config: AcceleratorConfig):
    scratch = TCIMAccelerator(config).run(session.graph)
    resident = session.run()
    assert resident.triangles == scratch.triangles
    assert dataclasses.asdict(resident.events) == dataclasses.asdict(scratch.events)
    assert dataclasses.asdict(resident.cache_stats) == dataclasses.asdict(
        scratch.cache_stats
    )


class TestNetDelta:
    def test_parity_and_first_sign(self):
        n = 10
        batches = [
            (np.array([[0, 1], [2, 3], [4, 5]]), True),
            (np.array([[0, 1], [6, 7]]), False),
            (np.array([[0, 1], [2, 3], [6, 7]]), True),
            (np.array([[0, 1], [8, 9]]), False),
        ]
        # (0,1): +-+- cancels; (2,3): ++ cannot happen in a real queue but
        # parity still rules; (4,5): + ; (6,7): -+ cancels; (8,9): -.
        deletions, insertions = incremental.net_delta(batches, n)
        assert deletions.tolist() == [[8, 9]]
        assert insertions.tolist() == [[4, 5]]

    def test_empty_and_fully_cancelling(self):
        empty_del, empty_ins = incremental.net_delta([], 5)
        assert empty_del.shape == (0, 2) and empty_ins.shape == (0, 2)
        edges = np.array([[1, 2], [3, 4]])
        deletions, insertions = incremental.net_delta(
            [(edges, False), (edges, True)], 5
        )
        assert deletions.size == 0 and insertions.size == 0

    def test_outputs_are_canonical_sorted(self):
        rng = np.random.default_rng(4)
        n = 40
        raw = incremental.canonical_delta_edges(rng.integers(n, size=(60, 2)), n)
        deletions, insertions = incremental.net_delta(
            [(raw[::2][::-1].copy(), False), (raw[1::2], True)], n
        )
        for result in (deletions, insertions):
            assert np.array_equal(
                result, incremental.canonical_delta_edges(result, n)
            )


class TestSpliceGraph:
    def test_matches_rebuild(self):
        rng = np.random.default_rng(8)
        graph = generators.powerlaw_cluster(300, 4, 0.4, seed=3)
        edges = set(map(tuple, graph.edge_array().tolist()))
        existing = sorted(edges)
        picks = rng.choice(len(existing), 25, replace=False)
        deletions = np.array(sorted(existing[int(i)] for i in picks))
        fresh = set()
        while len(fresh) < 30:
            u, v = sorted(int(x) for x in rng.integers(300, size=2))
            if u != v and (u, v) not in edges:
                fresh.add((u, v))
        insertions = np.array(sorted(fresh))
        spliced = incremental.splice_graph(graph, deletions, insertions)
        assert_graph_equal(
            spliced, (edges - set(map(tuple, deletions.tolist()))) | fresh
        )

    def test_empty_graph_gains_and_loses_everything(self):
        graph = Graph(6)
        full = np.array([[0, 1], [1, 2], [2, 5], [3, 4]])
        grown = incremental.splice_graph(graph, np.empty((0, 2), np.int64), full)
        assert_graph_equal(grown, set(map(tuple, full.tolist())))
        emptied = incremental.splice_graph(grown, full, np.empty((0, 2), np.int64))
        assert emptied.num_edges == 0
        assert np.array_equal(emptied.csr[0], np.zeros(7))

    def test_missing_deletion_raises(self):
        graph = Graph(5, [(0, 1), (1, 2)])
        with pytest.raises(ArchitectureError, match="missing"):
            incremental.splice_graph(
                graph, np.array([[0, 2]]), np.empty((0, 2), np.int64)
            )

    def test_present_insertion_raises(self):
        graph = Graph(5, [(0, 1), (1, 2)])
        with pytest.raises(ArchitectureError, match="already"):
            incremental.splice_graph(
                graph, np.empty((0, 2), np.int64), np.array([[1, 2]])
            )

    def test_session_edge_count_invariant_raises(self):
        session = open_session(Graph(6, [(0, 1), (1, 2)]))
        session.apply([("+", 2, 3)])
        # A bookkeeping bug the splice must surface, not paper over.
        session._edge_set.add((4, 5))
        with pytest.raises(ArchitectureError, match="spliced graph holds"):
            session.graph


class TestNetFlushDifferential:
    """Several applies, then one read, held to a from-scratch build."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_windows_then_read(self, name, seed):
        rng = np.random.default_rng(100 + seed)
        graph = generators.powerlaw_cluster(260, 4, 0.5, seed=seed)
        config = AcceleratorConfig(**CONFIGS[name])
        session = TCIMSession(graph, config)
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        edges = set(map(tuple, graph.edge_array().tolist()))
        try:
            session.simulate()
            for _ in range(3):
                current = Graph(graph.num_vertices, np.array(sorted(edges)))
                for ops in toggle_windows(current, rng, applies=5, edges=24):
                    report = session.apply(ops)
                    oracle.apply_ops(ops)
                    for code, u, v in ops:
                        edges ^= {(u, v)}
                    assert report.triangles == oracle.triangles
                assert session.count() == oracle.triangles
                # The read: graph, then plan (folds the queue), then a run.
                assert_graph_equal(session.graph, edges)
                plan = session.join_plan
                assert not session._pending_patches
                row, col, reference = reference_structures(
                    session.graph, config.orientation
                )
                if config.shard_by == "coloring":
                    assert plan is None
                    assert_contexts_equal(
                        session._shard_contexts,
                        build_shard_contexts(
                            session.graph, config.orientation, config.num_arrays,
                            slice_bits=config.slice_bits, seed=config.seed,
                        ),
                    )
                else:
                    assert_plans_equal(plan, reference)
                assert_structures_equal(session._row_sliced, row)
                assert_structures_equal(session._col_sliced, col)
                expected_edges = oriented_edges(session.graph, config.orientation)
                for resident, fresh in zip(session._edge_arrays, expected_edges):
                    assert np.array_equal(resident, fresh)
                assert session.simulate().triangles == oracle.triangles
                assert_runs_equal(session, config)
            assert session.patch_fallbacks == {"flush": 0, "contexts": 0, "sym_plan": 0}
        finally:
            session.close()

    @pytest.mark.parametrize("name", ["upper", "coloring"])
    def test_all_cancelling_window_touches_nothing(self, name):
        rng = np.random.default_rng(5)
        graph = generators.barabasi_albert(220, 4, seed=7)
        session = TCIMSession(graph, AcceleratorConfig(**CONFIGS[name]))
        try:
            before = session.simulate()
            plan = session.join_plan
            snapshot = session.graph
            versions = (
                session._row_sliced.structure_version,
                session._col_sliced.structure_version,
            )
            contexts = session._shard_contexts
            lane_plans = [
                lane.join_plan for context in contexts or () for lane in context.lanes
            ]
            for ops in toggle_windows(graph, rng, applies=4, edges=30, even=True):
                session.apply(ops)
            assert session.count() == before.triangles
            assert session.join_plan is plan
            assert session.graph is snapshot
            assert (
                session._row_sliced.structure_version,
                session._col_sliced.structure_version,
            ) == versions
            assert session._shard_contexts is contexts
            assert [
                lane.join_plan for context in contexts or () for lane in context.lanes
            ] == lane_plans
            after = session.simulate()
            assert after.triangles == before.triangles
            assert dataclasses.asdict(after.events) == dataclasses.asdict(before.events)
        finally:
            session.close()

    def test_toggle_inside_one_apply(self):
        graph = generators.barabasi_albert(150, 3, seed=4)
        session = open_session(graph)
        session.simulate()
        u, v = 3, 140
        assert not session.has_edge(u, v)
        session.apply([("+", u, v), ("-", u, v), ("+", u, v)])
        session.apply([("-", 0, 1)] if session.has_edge(0, 1) else [("+", 0, 1)])
        _, _, reference = reference_structures(session.graph, "upper")
        assert_plans_equal(session.join_plan, reference)
        assert_runs_equal(session, AcceleratorConfig())

    def test_one_plan_patch_per_read(self, monkeypatch):
        graph = generators.barabasi_albert(200, 4, seed=9)
        session = open_session(graph)
        session.simulate()
        calls = []
        original = joinplan.patch_join_plan

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(joinplan, "patch_join_plan", counting)
        rng = np.random.default_rng(3)
        segments = 0
        for ops in toggle_windows(graph, rng, applies=6, edges=40):
            segments += session.apply(ops).segments
        assert segments > 6
        session.simulate()
        assert len(calls) == 1

    def test_graph_backlog_folds_past_bound(self):
        graph = generators.barabasi_albert(200, 3, seed=2)
        session = open_session(graph)
        session.count()
        ops = [("+", u, v) for u in range(0, 60) for v in range(100, 120)
               if not session.has_edge(u, v)]
        assert len(ops) > 1024
        session.apply(ops)
        # The backlog passed max(1024, |E|/4) and was folded in apply.
        assert session._graph_pending_edges <= max(1024, session.num_edges // 4)
        assert_graph_equal(session.graph, set(session._edge_set))


class TestPatchFallbacks:
    """Each incremental patch path falls back visibly, and stays exact."""

    @staticmethod
    def _boom(*args, **kwargs):
        raise RuntimeError("injected patch failure")

    def test_flush_fallback_counted_and_logged(self, monkeypatch, caplog):
        graph = generators.barabasi_albert(200, 4, seed=12)
        session = open_session(graph)
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        session.simulate()
        monkeypatch.setattr(joinplan, "patch_join_plan", self._boom)
        ops = [("+", 0, 150), ("+", 3, 180)]
        session.apply(ops)
        oracle.apply_ops(ops)
        with caplog.at_level(logging.WARNING, logger="repro.api"):
            report = session.simulate()
        assert session.patch_fallbacks["flush"] == 1
        events = [
            (record.path, record.error)
            for record in caplog.records
            if getattr(record, "event", None) == "patch_fallback"
        ]
        assert events == [("flush", "RuntimeError")]
        assert report.triangles == session.count() == oracle.triangles
        assert_runs_equal(session, AcceleratorConfig())

    def test_contexts_fallback_counted(self, monkeypatch):
        graph = generators.barabasi_albert(200, 4, seed=13)
        config = AcceleratorConfig(**CONFIGS["coloring"])
        session = TCIMSession(graph, config)
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        session.simulate()
        monkeypatch.setattr(ShardContext, "apply_delta", self._boom)
        ops = [("+", 0, 150), ("-", *map(int, graph.edge_array()[5]))]
        session.apply(ops)
        oracle.apply_ops(ops)
        report = session.simulate()
        assert session.patch_fallbacks["contexts"] == 1
        assert report.triangles == session.count() == oracle.triangles
        monkeypatch.undo()
        assert_runs_equal(session, config)

    def test_sym_plan_fallback_counted(self, monkeypatch):
        graph = generators.barabasi_albert(200, 4, seed=14)
        session = open_session(graph)
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        session.simulate()
        session.support()
        assert session._sym_plan is not None
        monkeypatch.setattr(joinplan, "merge_oriented_edges", self._boom)
        ops = [("+", 0, 150)]
        session.apply(ops)
        oracle.apply_ops(ops)
        assert session.patch_fallbacks["sym_plan"] == 1
        assert session._sym_plan is None
        # The read's flush also merges edge arrays, so it falls back too.
        assert session.simulate().triangles == oracle.triangles
        assert session.patch_fallbacks == {"flush": 1, "contexts": 0, "sym_plan": 1}
        monkeypatch.undo()
        assert session.count() == oracle.triangles
        assert_runs_equal(session, AcceleratorConfig())
        fresh = open_session(session.graph)
        assert session.support() == fresh.support()

    def test_counter_is_a_copy(self):
        session = open_session(generators.barabasi_albert(50, 2, seed=1))
        session.patch_fallbacks["flush"] = 9
        assert session.patch_fallbacks["flush"] == 0


class TestGraphResidentBytes:
    def test_retained_snapshot_counted_after_apply(self):
        graph = generators.barabasi_albert(300, 4, seed=6)
        session = open_session(graph)
        session.count()

        def graph_bytes(snapshot: Graph) -> int:
            indptr, indices = snapshot.csr
            return snapshot.edge_array().nbytes + indptr.nbytes + indices.nbytes

        assert session.resident_bytes_detail()["graph"] == graph_bytes(graph)
        session.apply([("+", 0, 299), ("-", *map(int, graph.edge_array()[0]))])
        # The snapshot is retained (not yet spliced) and still counted,
        # beside the edge set the writes materialised.
        detail = session.resident_bytes_detail()
        assert detail["graph"] == graph_bytes(graph) + 128 * session.num_edges
        assert detail["graph"] > 128 * session.num_edges
        spliced = session.graph
        assert spliced is not graph
        assert session.resident_bytes_detail()["graph"] == (
            graph_bytes(spliced) + 128 * session.num_edges
        )
