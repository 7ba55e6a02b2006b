"""Properties of the coloring partitioner (self-contained shard contexts).

The coloring construction assigns every vertex one of ``C`` seeded hash
colors; shard ``{x <= y <= z}`` owns exactly the triangles whose vertex
color multiset is that triple.  The tests here pin the three claims the
design rests on:

* **exact cover** — on randomized graphs every triangle is counted by
  exactly one shard (duplicate-free across color triples), for both
  orientations, so the merged count is bit-identical to unsharded;
* **self-containment** — no context references a session's (or any
  other shard's) slice structures, which is what makes the shards
  communication-free and ship-once for process pools;
* **incremental maintenance** — routing a randomized insert/delete
  stream through ``ShardContext.apply_delta`` leaves every lane's
  structures *and compiled join plan* array-equal to a from-scratch
  rebuild, and the merged event counters stay conserved.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.api import TCIMSession
from repro.core.accelerator import AcceleratorConfig, EventCounts, TCIMAccelerator
from repro.core.sharding import (
    ContextPool,
    assign_colors,
    build_shard_contexts,
    color_triples,
    context_balance,
    execute_contexts,
    min_colors,
    num_color_shards,
)
from repro.graph import generators
from repro.graph.graph import Graph


def _triangles_by_triple(graph: Graph, colors: np.ndarray) -> dict:
    """Oracle: enumerate triangles and bucket each by its color multiset."""
    n = graph.num_vertices
    adjacency = [set() for _ in range(n)]
    for u, v in graph.edge_array():
        u, v = int(u), int(v)
        adjacency[u].add(v)
        adjacency[v].add(u)
    buckets: dict[tuple[int, int, int], int] = {}
    for u in range(n):
        for v in adjacency[u]:
            if v <= u:
                continue
            for w in adjacency[u] & adjacency[v]:
                if w <= v:
                    continue
                triple = tuple(sorted((int(colors[u]), int(colors[v]), int(colors[w]))))
                buckets[triple] = buckets.get(triple, 0) + 1
    return buckets


class TestColorAssignment:
    def test_shard_count_table(self):
        # The quantisation advertised in the docs: num_arrays -> (C, shards).
        assert [
            (arrays, min_colors(arrays), num_color_shards(min_colors(arrays)))
            for arrays in (1, 4, 16, 32)
        ] == [(1, 1, 1), (4, 2, 4), (16, 4, 20), (32, 5, 35)]

    def test_triples_enumerate_every_multiset_once(self):
        for colors in (1, 2, 3, 5):
            triples = color_triples(colors)
            assert len(triples) == num_color_shards(colors)
            assert len(set(triples)) == len(triples)
            assert all(x <= y <= z for x, y, z in triples)
            expected = {
                tuple(sorted(t))
                for t in itertools.product(range(colors), repeat=3)
            }
            assert set(triples) == expected

    def test_assignment_is_deterministic_and_seeded(self):
        a = assign_colors(500, 4, seed=7)
        b = assign_colors(500, 4, seed=7)
        c = assign_colors(500, 4, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.min() >= 0 and a.max() < 4
        # Hash-based assignment keeps every class populated at this size.
        assert len(np.unique(a)) == 4


class TestExactCover:
    """Every triangle lands in exactly one shard, none twice, none lost."""

    @pytest.mark.parametrize("orientation", ["upper", "symmetric"])
    def test_randomized_graphs(self, orientation):
        rng = np.random.default_rng(11)
        multiplicity = 1 if orientation == "upper" else 6
        for trial in range(8):
            n = int(rng.integers(10, 80))
            m = int(rng.integers(n, 6 * n))
            graph = Graph(n, rng.integers(0, n, size=(m, 2)))
            num_arrays = int(rng.choice([4, 16, 32]))
            seed = trial
            contexts = build_shard_contexts(
                graph, orientation, num_arrays, seed=seed
            )
            colors = assign_colors(n, min_colors(num_arrays), seed)
            outcome = execute_contexts(
                contexts, AcceleratorConfig().capacity_slices, "lru", seed
            )
            oracle = _triangles_by_triple(graph, colors)
            # Per-shard counts match the oracle bucket for that triple —
            # the shard counted its triangles and nobody else's.
            for context, shard in zip(contexts, outcome.shards):
                assert shard.accumulator == multiplicity * oracle.get(
                    context.triple, 0
                ), (trial, context.triple)
            assert outcome.accumulator == multiplicity * sum(oracle.values())

    def test_every_shard_triple_is_unique(self):
        graph = generators.barabasi_albert(200, 5, seed=3)
        contexts = build_shard_contexts(graph, "upper", 16)
        triples = [context.triple for context in contexts]
        assert len(set(triples)) == len(triples) == 20
        # Each oriented edge belongs to the shards whose triple contains
        # its color pair: exactly C of them (one per witness color), but
        # as a *pivot* (lane) edge in exactly one lane overall per shard.
        assert context_balance(contexts) >= 1.0

    def test_one_color_degenerates_to_unsharded(self):
        graph = generators.powerlaw_cluster(150, 4, 0.5, seed=5)
        baseline = TCIMAccelerator().run(graph)
        contexts = build_shard_contexts(graph, "upper", 1)
        assert len(contexts) == 1
        outcome = execute_contexts(
            contexts, AcceleratorConfig().capacity_slices, "lru", 0
        )
        assert outcome.accumulator == baseline.triangles

    def test_events_conserved_across_shards(self):
        graph = generators.barabasi_albert(250, 6, seed=9)
        result = TCIMAccelerator(
            AcceleratorConfig(num_arrays=16, shard_by="coloring")
        ).run(graph)
        baseline = TCIMAccelerator().run(graph)
        assert result.triangles == baseline.triangles
        merged = EventCounts()
        for shard in result.shards:
            merged = merged + shard.events
        assert dataclasses.asdict(merged) == dataclasses.asdict(result.events)
        assert result.notes["communication_free"] is True
        assert result.notes["num_shards"] == 20


class TestSelfContainment:
    """Shard workers must reference no shared slice structures."""

    def test_contexts_share_nothing_with_session_or_each_other(self):
        graph = generators.powerlaw_cluster(200, 5, 0.5, seed=4)
        config = AcceleratorConfig(num_arrays=16, shard_by="coloring")
        with TCIMSession(graph, config) as session:
            session.count()
            contexts = session._shard_contexts
            assert contexts is not None and len(contexts) == 20
            global_structures = {
                id(structure)
                for structure in (
                    session._row_sliced,
                    session._col_sliced,
                    session._sym_sliced,
                )
                if structure is not None
            }
            assert global_structures  # the session did build globals
            context_structures = []
            for context in contexts:
                context_structures.append(context.row_sliced)
                for lane in context.lanes:
                    context_structures.append(lane.col_sliced)
            # No context structure *is* a session structure...
            assert not global_structures & {
                id(structure) for structure in context_structures
            }
            # ...and no two contexts share a structure or an edge array.
            assert len({id(s) for s in context_structures}) == len(
                context_structures
            )
            arrays = [
                arr
                for context in contexts
                for lane in context.lanes
                for arr in (lane.sources, lane.destinations)
            ]
            assert len({id(a) for a in arrays}) == len(arrays)

    def test_process_pool_matches_serial(self):
        graph = generators.barabasi_albert(300, 6, seed=2)
        capacity = AcceleratorConfig().capacity_slices
        contexts = build_shard_contexts(graph, "upper", 16)
        serial = execute_contexts(contexts, capacity, "lru", 0)
        pooled = execute_contexts(contexts, capacity, "lru", 0, workers=2)
        assert pooled.accumulator == serial.accumulator
        assert dataclasses.asdict(pooled.events) == dataclasses.asdict(
            serial.events
        )
        for a, b in zip(serial.shards, pooled.shards):
            assert (a.shard_id, a.accumulator) == (b.shard_id, b.accumulator)

    def test_context_pool_repeat_runs(self):
        graph = generators.powerlaw_cluster(200, 4, 0.6, seed=8)
        capacity = AcceleratorConfig().capacity_slices
        contexts = build_shard_contexts(graph, "upper", 4)
        baseline = execute_contexts(contexts, capacity, "lru", 0)
        with ContextPool(contexts, capacity, "lru", 0, workers=2) as pool:
            first = pool.run()
            second = pool.run(use_plan=False)
        assert first.accumulator == baseline.accumulator
        assert second.accumulator == baseline.accumulator


class TestIncrementalColoring:
    """Randomized op streams: patched lane plans == from-scratch rebuild."""

    def _plan_arrays(self, plan):
        return (
            plan.row_positions,
            plan.col_positions,
            plan.trace_keys,
            plan.pair_counts,
        )

    def _assert_contexts_equal(self, patched, rebuilt):
        assert len(patched) == len(rebuilt)
        for a, b in zip(patched, rebuilt):
            assert a.triple == b.triple
            np.testing.assert_array_equal(
                a.row_sliced.to_dense(), b.row_sliced.to_dense()
            )
            assert len(a.lanes) == len(b.lanes)
            for lane_a, lane_b in zip(a.lanes, b.lanes):
                assert lane_a.witness_color == lane_b.witness_color
                assert lane_a.pair == lane_b.pair
                np.testing.assert_array_equal(lane_a.sources, lane_b.sources)
                np.testing.assert_array_equal(
                    lane_a.destinations, lane_b.destinations
                )
                np.testing.assert_array_equal(
                    lane_a.col_sliced.to_dense(), lane_b.col_sliced.to_dense()
                )
                assert (lane_a.join_plan is None) == (lane_b.join_plan is None)
                if lane_a.join_plan is not None:
                    for arr_a, arr_b in zip(
                        self._plan_arrays(lane_a.join_plan),
                        self._plan_arrays(lane_b.join_plan),
                    ):
                        np.testing.assert_array_equal(arr_a, arr_b)

    @pytest.mark.parametrize("use_plan", [True, False])
    def test_session_stream_matches_plain_session(self, use_plan):
        rng = np.random.default_rng(17)
        n = 60
        edges = {
            (int(u), int(v)) if u < v else (int(v), int(u))
            for u, v in rng.integers(0, n, size=(4 * n, 2))
            if u != v
        }
        graph = Graph(n, np.array(sorted(edges), dtype=np.int64))
        config = AcceleratorConfig(
            num_arrays=16, shard_by="coloring", use_plan=use_plan
        )
        session = TCIMSession(graph, config)
        plain = TCIMSession(Graph(n, np.array(sorted(edges), dtype=np.int64)))
        assert session.count() == plain.count()
        contexts_before = session._shard_contexts
        assert contexts_before is not None

        for step in range(120):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge in edges and rng.random() < 0.5:
                op = ("-", *edge)
                edges.remove(edge)
            elif edge not in edges:
                op = ("+", *edge)
                edges.add(edge)
            else:
                continue
            session.apply([op])
            plain.apply([op])
            if step % 20 == 19:
                assert session.count() == plain.count()

        assert session.count() == plain.count()
        # Patching is deferred: mutations queue, and the next structural
        # read folds them in.  The join_plan property is such a read (it
        # is None for coloring sessions — lanes own the plans instead).
        assert session.join_plan is None
        # The stream was routed into the resident contexts in place, not
        # served by rebuilding them.
        assert session._shard_contexts is contexts_before
        assert not session._pending_patches

        rebuilt = build_shard_contexts(
            Graph(n, np.array(sorted(edges), dtype=np.int64)),
            config.orientation,
            config.num_arrays,
            slice_bits=config.slice_bits,
            seed=config.seed,
            use_plan=use_plan,
        )
        self._assert_contexts_equal(session._shard_contexts, rebuilt)
        session.close()
        plain.close()

    def test_delta_routed_to_owning_shards_only(self):
        graph = generators.barabasi_albert(120, 4, seed=6)
        n = graph.num_vertices
        contexts = build_shard_contexts(graph, "upper", 16, seed=0)
        colors = assign_colors(n, min_colors(16), 0)
        u, v = (int(x) for x in graph.edge_array()[0])
        delta = np.array([[min(u, v), max(u, v)]], dtype=np.int64)
        owners = [
            context
            for context in contexts
            if bool(context.owned_mask(delta, colors).any())
        ]
        # A single edge's color pair {a, b} is a sub-multiset of exactly
        # C triples (one per completing witness color).
        assert len(owners) == min_colors(16)
        touched = [
            context.apply_delta(delta, colors, insert=False)
            for context in contexts
        ]
        assert sum(touched) == len(owners)
