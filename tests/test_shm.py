"""Shared-memory execution plane: segments, manifests, pool lifecycle.

Four invariant groups anchor the zero-copy plane:

1. *Segment fidelity* — arrays adopted into a ``kind="shm"``
   :class:`~repro.storage.backing.BackingStore` live in named segments
   whose attached views are bit-identical to the originals, and every
   segment is reclaimed on close (idempotently, in any order).
2. *Manifest round-trip* — a :class:`ShardContext` rebuilt from its
   segment-name manifest is bit-identical to the original: same slice
   structures, lane arrays, and compiled plans, sharing physical pages
   instead of copying bytes.
3. *Pool lifecycle* — :class:`ContextPool` closes idempotently, works
   as a context manager, and reclaims its executor and every shm
   segment when a worker dies mid-sweep (the sweep surfaces
   :class:`ArchitectureError`, never a hang or a leak).
4. *Generation fence* — a delta published while sweeps are running is
   either fully visible or fully invisible to each sweep, and the
   post-delta sweep is bit-identical to a serial replay from scratch.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time

import numpy as np
import pytest

from repro.api import TCIMSession, open_session
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.sharding import (
    ContextPool,
    _context_from_manifest,
    _context_identity,
    _manifest_signature,
    _share_context,
    assign_colors,
    build_shard_contexts,
    execute_contexts,
    min_colors,
)
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.storage.backing import BackingStore, attach_segment


def _graph(seed: int = 0, n: int = 300, m: int = 1800) -> Graph:
    return generators.erdos_renyi(n, m, seed=seed)


class TestShmBackingStore:
    def test_empty_allocates_named_segment(self):
        store = BackingStore("shm")
        try:
            array = store.empty((64, 3), np.uint64)
            name = store.segment_of(array)
            assert name is not None
            assert store.shared_segments == 1
            assert store.shared_bytes == array.nbytes
            array[:] = 7
            attached = attach_segment(name)
            try:
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=attached.buf)
                np.testing.assert_array_equal(view, array)
            finally:
                del view
                attached.close()
        finally:
            store.close()
        assert store.shared_segments == 0

    def test_adopt_copies_heap_arrays_and_is_idempotent(self):
        store = BackingStore("shm")
        try:
            heap = np.arange(128, dtype=np.int64)
            shared = store.adopt(heap)
            assert shared is not heap
            assert store.segment_of(shared) is not None
            np.testing.assert_array_equal(shared, heap)
            # Re-adopting an owned array is a no-op, not a second copy.
            assert store.adopt(shared) is shared
            assert store.shared_segments == 1
        finally:
            store.close()

    def test_empty_arrays_stay_inline(self):
        store = BackingStore("shm")
        try:
            empty = store.adopt(np.empty(0, dtype=np.uint64))
            assert store.segment_of(empty) is None
            assert store.shared_segments == 0
        finally:
            store.close()

    def test_close_is_idempotent(self):
        store = BackingStore("shm")
        store.adopt(np.ones(32, dtype=np.uint64))
        store.close()
        store.close()
        assert store.shared_segments == 0
        assert store.shared_bytes == 0

    def test_from_config_routes_backing(self):
        config = AcceleratorConfig(backing="shm")
        store = BackingStore.from_config(config)
        try:
            assert store.kind == "shm"
        finally:
            store.close()

    def test_config_rejects_unknown_backing(self):
        with pytest.raises(Exception):
            AcceleratorConfig(backing="florp")


class TestManifestRoundTrip:
    def test_context_rebuild_is_bit_identical(self):
        graph = _graph(seed=3)
        contexts = build_shard_contexts(graph, "upper", 4)
        store = BackingStore("shm")
        segments: dict = {}
        try:
            for context in contexts:
                manifest = _share_context(context, store)
                rebuilt = _context_from_manifest(manifest, segments, set())
                assert rebuilt.shard_id == context.shard_id
                assert rebuilt.triple == context.triple
                np.testing.assert_array_equal(
                    rebuilt.row_sliced.to_dense(), context.row_sliced.to_dense()
                )
                assert (
                    rebuilt.row_sliced.structure_version
                    == context.row_sliced.structure_version
                )
                for lane, original in zip(rebuilt.lanes, context.lanes):
                    np.testing.assert_array_equal(lane.sources, original.sources)
                    np.testing.assert_array_equal(
                        lane.destinations, original.destinations
                    )
                    np.testing.assert_array_equal(
                        lane.col_sliced.to_dense(), original.col_sliced.to_dense()
                    )
                    if original.join_plan is not None:
                        np.testing.assert_array_equal(
                            lane.join_plan.trace_keys, original.join_plan.trace_keys
                        )
                        assert (
                            lane.join_plan.row_version
                            == original.join_plan.row_version
                        )
        finally:
            for segment in segments.values():
                segment.close()
            store.close()

    def test_rebuild_shares_pages_not_bytes(self):
        graph = _graph(seed=5)
        context = build_shard_contexts(graph, "upper", 4)[0]
        store = BackingStore("shm")
        segments: dict = {}
        try:
            manifest = _share_context(context, store)
            rebuilt = _context_from_manifest(manifest, segments, set())
            # A payload write through the owner is visible in the rebuilt
            # view with no republish: same physical pages.
            context.row_sliced.data[0, 0] ^= np.uint64(1)
            assert rebuilt.row_sliced.data[0, 0] == context.row_sliced.data[0, 0]
        finally:
            del rebuilt
            for segment in segments.values():
                segment.close()
            store.close()

    def test_signature_and_identity_track_structure_only(self):
        graph = _graph(seed=7)
        context = build_shard_contexts(graph, "upper", 4)[0]
        store = BackingStore("shm")
        try:
            manifest = _share_context(context, store)
            signature = _manifest_signature(manifest)
            identity = _context_identity(context)
            # In-place payload writes change neither fingerprint.
            context.row_sliced.data[0, 0] ^= np.uint64(1)
            assert _manifest_signature(_share_context(context, store)) == signature
            assert _context_identity(context) == identity
            # A reallocation changes both.
            context.row_sliced.data = context.row_sliced.data.copy()
            assert _context_identity(context) != identity
            assert _manifest_signature(_share_context(context, store)) != signature
        finally:
            store.close()


class TestContextPoolLifecycle:
    def _pool(self, graph, num_arrays=4, workers=2):
        capacity = AcceleratorConfig().capacity_slices
        contexts = build_shard_contexts(graph, "upper", num_arrays)
        return ContextPool(contexts, capacity, "lru", 0, workers=workers)

    def test_close_is_idempotent(self):
        pool = self._pool(_graph())
        pool.run()
        assert pool.shared_segments > 0
        pool.close()
        assert pool.closed
        assert pool.shared_segments == 0
        pool.close()
        assert pool.closed

    def test_context_manager_reclaims(self):
        with self._pool(_graph()) as pool:
            outcome = pool.run()
        assert pool.closed
        assert pool.shared_segments == 0
        assert outcome.accumulator >= 0

    def test_run_and_publish_after_close_raise(self):
        pool = self._pool(_graph())
        pool.close()
        with pytest.raises(ArchitectureError):
            pool.run()
        with pytest.raises(ArchitectureError):
            pool.publish()

    def test_rejects_bad_arguments(self):
        graph = _graph()
        capacity = AcceleratorConfig().capacity_slices
        contexts = build_shard_contexts(graph, "upper", 4)
        with pytest.raises(ArchitectureError):
            ContextPool([], capacity, "lru", 0, workers=2)
        with pytest.raises(ArchitectureError):
            ContextPool(contexts, capacity, "lru", 0, workers=0)

    def test_failed_construction_unlinks_created_segments(self, monkeypatch):
        """/dev/shm filling up mid-export must not leak the segments
        already created: the half-built pool reclaims its store."""
        import errno
        from multiprocessing import shared_memory

        from repro.errors import StorageError

        real = shared_memory.SharedMemory
        created: list[str] = []

        def failing_create(*args, **kwargs):
            if kwargs.get("create"):
                if len(created) == 5:
                    raise OSError(errno.ENOSPC, "No space left on device")
                segment = real(*args, **kwargs)
                created.append(segment.name)
                return segment
            return real(*args, **kwargs)

        contexts = build_shard_contexts(_graph(), "upper", 4)
        capacity = AcceleratorConfig().capacity_slices
        monkeypatch.setattr(shared_memory, "SharedMemory", failing_create)
        with pytest.raises(StorageError):
            ContextPool(contexts, capacity, "lru", 0, workers=2)
        monkeypatch.undo()
        assert len(created) == 5
        for name in created:
            with pytest.raises(FileNotFoundError):
                attach_segment(name)

    def test_worker_crash_mid_sweep_reclaims(self):
        pool = self._pool(_graph())
        pool.run()  # spawn the workers before killing one
        pool._executor.submit(os._exit, 1)
        with pytest.raises(ArchitectureError, match="reclaimed"):
            # The dead worker may need a few dispatches to surface.
            for _ in range(10):
                pool.run()
                time.sleep(0.05)
        assert pool.closed
        assert pool.shared_segments == 0
        pool.close()  # still idempotent after crash reclamation

    def test_shm_pool_matches_serial(self):
        graph = _graph(seed=11)
        capacity = AcceleratorConfig().capacity_slices
        serial = execute_contexts(
            build_shard_contexts(graph, "upper", 4), capacity, "lru", 0
        )
        with self._pool(graph) as pool:
            for use_plan in (True, False):
                outcome = pool.run(use_plan=use_plan)
                assert outcome.accumulator == serial.accumulator
                assert dataclasses.asdict(outcome.events) == dataclasses.asdict(
                    serial.events
                )
                assert [
                    dataclasses.asdict(shard) for shard in outcome.shards
                ] == [dataclasses.asdict(shard) for shard in serial.shards]


class TestGenerationFence:
    def _delta(self, graph, count, seed):
        rng = np.random.default_rng(seed)
        present = {tuple(sorted(map(int, e))) for e in graph.edge_array()}
        inserts = []
        while len(inserts) < count:
            u, v = int(rng.integers(graph.num_vertices)), int(
                rng.integers(graph.num_vertices)
            )
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in present:
                continue
            present.add(edge)
            inserts.append(edge)
        return np.array(inserts, dtype=np.int64), sorted(present)

    def test_published_delta_matches_serial_replay(self):
        graph = _graph(seed=13)
        capacity = AcceleratorConfig().capacity_slices
        colors = assign_colors(graph.num_vertices, min_colors(4), 0)
        batch, post_edges = self._delta(graph, 12, seed=4)
        contexts = build_shard_contexts(graph, "upper", 4)
        with ContextPool(contexts, capacity, "lru", 0, workers=2) as pool:
            pre = pool.run().accumulator

            def mutate():
                for context in pool._contexts:
                    context.apply_delta(batch, colors, True)

            pool.publish(mutate)
            post = pool.run().accumulator
        post_graph = Graph(graph.num_vertices, np.array(post_edges, dtype=np.int64))
        replay = execute_contexts(
            build_shard_contexts(post_graph, "upper", 4), capacity, "lru", 0
        )
        oracle = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(post_graph)
        assert post == replay.accumulator == oracle.triangles
        assert pre != post  # the delta actually moved the count

    def test_concurrent_publish_is_all_or_nothing(self):
        graph = _graph(seed=17)
        capacity = AcceleratorConfig().capacity_slices
        colors = assign_colors(graph.num_vertices, min_colors(4), 0)
        batch, post_edges = self._delta(graph, 12, seed=9)
        contexts = build_shard_contexts(graph, "upper", 4)
        post_graph = Graph(graph.num_vertices, np.array(post_edges, dtype=np.int64))
        pre_oracle = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(graph)
        post_oracle = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(post_graph)
        assert pre_oracle.triangles != post_oracle.triangles

        with ContextPool(contexts, capacity, "lru", 0, workers=2) as pool:
            assert pool.run().accumulator == pre_oracle.triangles
            published = threading.Event()

            def publish_mid_sweeps():
                time.sleep(0.01)
                pool.publish(
                    lambda: [
                        context.apply_delta(batch, colors, True)
                        for context in pool._contexts
                    ]
                )
                published.set()

            publisher = threading.Thread(target=publish_mid_sweeps)
            publisher.start()
            seen = []
            while not published.is_set() or len(seen) < 3:
                seen.append(pool.run().accumulator)
                if len(seen) > 200:  # pragma: no cover - watchdog
                    break
            publisher.join()
            final = pool.run().accumulator
        # Every sweep observed the delta fully or not at all — never a
        # torn intermediate — and the fenced state is bit-identical to
        # the serial replay of the post-delta graph.
        assert set(seen) <= {pre_oracle.triangles, post_oracle.triangles}
        assert final == post_oracle.triangles

    def test_payload_only_publish_keeps_versions(self):
        graph = _graph(seed=19)
        capacity = AcceleratorConfig().capacity_slices
        contexts = build_shard_contexts(graph, "upper", 4)
        with ContextPool(contexts, capacity, "lru", 0, workers=2) as pool:
            baseline = pool.run().accumulator
            versions = dict(pool._versions)
            pool.publish()  # fence with no structural change
            assert pool._versions == versions
            assert pool.generation == 1
            assert pool.run().accumulator == baseline


class TestSessionShm:
    def test_shm_session_matches_plain(self):
        graph = _graph(seed=23)
        plain = TCIMSession(graph)
        shm = TCIMSession(
            Graph(graph.num_vertices, graph.edge_array().copy()),
            AcceleratorConfig(
                num_arrays=4, shard_by="coloring", workers=2, backing="shm"
            ),
        )
        try:
            assert shm.count() == plain.count()
            rng = np.random.default_rng(2)
            present = {tuple(sorted(map(int, e))) for e in graph.edge_array()}
            for _ in range(30):
                u, v = int(rng.integers(graph.num_vertices)), int(
                    rng.integers(graph.num_vertices)
                )
                if u == v:
                    continue
                edge = (min(u, v), max(u, v))
                op = ("-", *edge) if edge in present else ("+", *edge)
                present.symmetric_difference_update({edge})
                plain.apply([op])
                shm.apply([op])
                assert shm.count() == plain.count()
            # A full engine re-run sweeps the resident zero-copy pool.
            assert shm.simulate().result.triangles == plain.count()
            detail = shm.resident_bytes_detail()
            assert detail["shared"] > 0
        finally:
            shm.close()
            plain.close()

    def test_dead_worker_pool_replaced_on_next_read(self):
        graph = _graph(seed=31)
        plain = TCIMSession(graph)
        session = TCIMSession(
            Graph(graph.num_vertices, graph.edge_array().copy()),
            AcceleratorConfig(
                num_arrays=4, shard_by="coloring", workers=2, backing="shm"
            ),
        )
        try:
            assert session.run().triangles == plain.count()  # spawn workers
            dead = session._context_pool
            dead._executor.submit(os._exit, 1)
            u, v = 0, graph.num_vertices - 1
            with pytest.raises(ArchitectureError, match="died mid-sweep"):
                # The dead worker may need a few dispatches to surface;
                # each write drops the cached run so the read sweeps.
                for _ in range(10):
                    op = ("-" if plain.has_edge(u, v) else "+", u, v)
                    plain.apply([op])
                    session.apply([op])
                    session.run()
                    time.sleep(0.05)
            assert dead.closed
            # The read after the failing one sweeps a fresh, open pool.
            assert session.run().triangles == plain.count()
            assert session._context_pool is not dead
            assert not session._context_pool.closed
        finally:
            session.close()
            plain.close()

    def test_session_close_reclaims_pool_segments(self):
        graph = _graph(seed=29)
        session = open_session(
            graph,
            num_arrays=4,
            shard_by="coloring",
            workers=2,
            backing="shm",
        )
        session.count()
        session.simulate()
        pool = session._context_pool
        assert pool is not None and not pool.closed
        session.close()
        assert pool.closed
        assert pool.shared_segments == 0
