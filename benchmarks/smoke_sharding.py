"""CI smoke: sharded execution is exact and conserves event totals.

Runs a paper-style generator graph through the accelerator with
``num_arrays=1`` and ``num_arrays=4`` (every partitioner) and asserts:

* the triangle counts match triangle for triangle;
* the additive event counters (``edges_processed``, ``and_operations``,
  ``dense_pair_operations``, ``index_lookups``,
  ``bitcount_operations``) conserve the single-array totals;
* the merged per-shard events equal the run's merged ``EventCounts``;
* a ``workers=2`` run (the one-shot process pool of the shard executor)
  is bit-identical to the serial run: triangles, merged events and
  cache statistics, and every per-shard result.

Exit code 0 on success, 1 on any violation — wired into CI next to the
engine-speedup smoke.  Usage::

    PYTHONPATH=src python benchmarks/smoke_sharding.py [num_vertices]
"""

from __future__ import annotations

import dataclasses
import sys
import time

from repro.core.accelerator import AcceleratorConfig, EventCounts, TCIMAccelerator
from repro.graph import generators

CONSERVED_FIELDS = (
    "edges_processed",
    "and_operations",
    "dense_pair_operations",
    "index_lookups",
    "bitcount_operations",
)


def main(argv: list[str]) -> int:
    num_vertices = int(argv[1]) if len(argv) > 1 else 20_000
    graph = generators.barabasi_albert(num_vertices, 8, seed=42)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")

    start = time.perf_counter()
    baseline = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(graph)
    print(
        f"num_arrays=1: {baseline.triangles:,} triangles "
        f"in {time.perf_counter() - start:.2f}s"
    )

    failures = 0
    for shard_by in ("edges", "rows", "degree"):
        start = time.perf_counter()
        sharded = TCIMAccelerator(
            AcceleratorConfig(num_arrays=4, shard_by=shard_by)
        ).run(graph)
        elapsed = time.perf_counter() - start
        status = "ok"
        if sharded.triangles != baseline.triangles:
            status = (
                f"TRIANGLE MISMATCH ({sharded.triangles:,} vs "
                f"{baseline.triangles:,})"
            )
            failures += 1
        for field in CONSERVED_FIELDS:
            if getattr(sharded.events, field) != getattr(baseline.events, field):
                status = f"CONSERVATION VIOLATED ({field})"
                failures += 1
        merged = EventCounts()
        for shard in sharded.shards:
            merged = merged + shard.events
        if dataclasses.asdict(merged) != dataclasses.asdict(sharded.events):
            status = "SHARD MERGE MISMATCH"
            failures += 1
        start = time.perf_counter()
        pooled = TCIMAccelerator(
            AcceleratorConfig(num_arrays=4, shard_by=shard_by, workers=2)
        ).run(graph)
        pooled_elapsed = time.perf_counter() - start
        if (
            pooled.triangles != sharded.triangles
            or dataclasses.asdict(pooled.events) != dataclasses.asdict(sharded.events)
            or dataclasses.asdict(pooled.cache_stats)
            != dataclasses.asdict(sharded.cache_stats)
            or [dataclasses.asdict(s) for s in pooled.shards]
            != [dataclasses.asdict(s) for s in sharded.shards]
        ):
            status = "WORKERS=2 MISMATCH"
            failures += 1
        print(
            f"num_arrays=4 shard_by={shard_by}: {sharded.triangles:,} "
            f"triangles in {elapsed:.2f}s serial, {pooled_elapsed:.2f}s "
            f"workers=2 ({len(sharded.shards)} shards) ... {status}"
        )
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("sharding smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
