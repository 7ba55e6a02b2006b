"""CI smoke: the shared-memory execution plane is exact and pays off.

Two gates, exit code 0 only if both hold:

* **exactness** — ``backing="shm"`` sessions (coloring shards swept by a
  zero-copy :class:`~repro.core.sharding.ContextPool`) produce triangle
  counts bit-identical to plain RAM-backed sessions, with the per-lane
  join plans on and off, on a generator graph and again after a
  randomized insert/delete stream with forced full engine re-runs
  (which exercise the publish/generation-fence path);
* **throughput** — the delta-fence sweep cycle (``publish()`` followed
  by ``run()``) of a shm :class:`~repro.core.sharding.ContextPool` at
  16 arrays runs at least **2x** faster than the same cycle on the
  pickle-ship pool (``benchmarks/_pickle_pool.py``, the baseline plane
  kept out of ``src/``).  The cycle is the execution plane's per-delta
  overhead, isolated: making an owner-side delta visible to the workers
  and sweeping once.  The pickle plane must recycle its executor on
  every publish (workers hold shipped copies, so visibility requires a
  respawn and re-ship); the shm plane's in-place payload writes already
  landed in the attached pages, so its fence is an identity probe over
  the manifests and the sweep is one batched message per worker.
  Applying the delta itself costs both planes the same and is excluded.

Usage::

    PYTHONPATH=src python benchmarks/smoke_shm.py [num_vertices]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from _pickle_pool import PicklePool
from repro.api import TCIMSession
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.sharding import ContextPool, build_shard_contexts
from repro.graph import generators
from repro.graph.graph import Graph

THROUGHPUT_ARRAYS = 16
THROUGHPUT_GATE = 2.0
THROUGHPUT_VERTICES = 2_000
CYCLES = 7


def check_exactness(num_vertices: int) -> int:
    graph = generators.barabasi_albert(num_vertices, 8, seed=42)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")
    baseline = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(graph)
    print(f"unsharded: {baseline.triangles:,} triangles")
    workers = os.cpu_count() or 2

    failures = 0
    for num_arrays in (4, 16):
        for use_plan in (True, False):
            result = TCIMAccelerator(
                AcceleratorConfig(
                    num_arrays=num_arrays,
                    shard_by="coloring",
                    use_plan=use_plan,
                    workers=workers,
                    backing="shm",
                )
            ).run(graph)
            status = "ok"
            if result.triangles != baseline.triangles:
                status = (
                    f"TRIANGLE MISMATCH ({result.triangles:,} vs "
                    f"{baseline.triangles:,})"
                )
                failures += 1
            print(
                f"shm num_arrays={num_arrays} plan={'on' if use_plan else 'off'}: "
                f"{result.triangles:,} triangles ... {status}"
            )

    # Randomized op stream: the shm session's resident pool is patched
    # in place (deltas land in the shared segments, publish() bumps the
    # generation) and must keep tracking the plain RAM session exactly.
    # Forced simulate() calls sweep the pool itself mid-stream.
    rng = np.random.default_rng(9)
    n = min(2_000, num_vertices)
    stream_graph = generators.barabasi_albert(n, 6, seed=7)
    edges = {tuple(sorted(map(int, e))) for e in stream_graph.edge_array()}
    session = TCIMSession(
        Graph(n, np.array(sorted(edges), dtype=np.int64)),
        AcceleratorConfig(
            num_arrays=16, shard_by="coloring", workers=workers, backing="shm"
        ),
    )
    plain = TCIMSession(Graph(n, np.array(sorted(edges), dtype=np.int64)))
    session.count()
    plain.count()
    mismatches = 0
    for step in range(200):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
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
        if session.count() != plain.count():
            mismatches += 1
        if step % 50 == 49:
            # Full engine re-run through the resident shm pool: flushes
            # pending shard patches and publishes a new generation.
            if session.simulate().result.triangles != plain.count():
                mismatches += 1
    print(
        f"randomized stream: 200 ops, {len(edges):,} edges resident, "
        f"{mismatches} mismatches ... {'ok' if not mismatches else 'FAILED'}"
    )
    failures += mismatches
    session.close()
    plain.close()
    return failures


def check_throughput(num_vertices: int) -> int:
    graph = generators.barabasi_albert(
        min(THROUGHPUT_VERTICES, num_vertices), 6, seed=42
    )
    workers = os.cpu_count() or 2
    config = AcceleratorConfig(num_arrays=THROUGHPUT_ARRAYS)
    baseline = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(graph)

    def fence_cycle(pool_class) -> float:
        """Best delta-fence cycle: publish (visibility fence) + sweep."""
        contexts = build_shard_contexts(graph, "upper", THROUGHPUT_ARRAYS)
        with pool_class(
            contexts,
            config.capacity_slices,
            config.policy,
            config.seed,
            workers=workers,
        ) as pool:
            pool.run()
            pool.publish()
            pool.run()  # warm: attach/ship costs land before timing
            best = float("inf")
            for _ in range(CYCLES):
                start = time.perf_counter()
                pool.publish()
                outcome = pool.run()
                best = min(best, time.perf_counter() - start)
            assert outcome.accumulator == baseline.triangles
        return best

    pickle_best = fence_cycle(PicklePool)
    shm_best = fence_cycle(ContextPool)
    speedup = pickle_best / shm_best if shm_best else float("inf")
    print(
        f"throughput at {THROUGHPUT_ARRAYS} arrays ({workers} workers, "
        f"publish+sweep fence cycle, best of {CYCLES}): "
        f"pickle-ship {pickle_best * 1e3:.1f} ms, "
        f"shm {shm_best * 1e3:.1f} ms -> {speedup:.2f}x "
        f"(gate {THROUGHPUT_GATE}x)"
    )
    if speedup < THROUGHPUT_GATE:
        print(
            f"FAILED: shm pool speedup {speedup:.2f}x below the "
            f"{THROUGHPUT_GATE}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str]) -> int:
    num_vertices = int(argv[1]) if len(argv) > 1 else 20_000
    failures = check_exactness(num_vertices)
    failures += check_throughput(num_vertices)
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("shm smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
