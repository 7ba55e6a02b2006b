"""CI smoke: incremental streaming on the session fast path.

Holds a ~20k-vertex / ~160k-edge Barabási–Albert graph resident in a
:class:`repro.api.TCIMSession` and applies a 1,000-op insert/delete
stream through ``session.apply(ops)`` — the vectorized delta re-join
path (:mod:`repro.core.incremental`).  Asserts:

* the final triangle count equals a from-scratch sharded run on the
  final graph, and the session's post-stream full run conserves the
  from-scratch :class:`EventCounts` field by field;
* a ``num_arrays=1`` session over the same stream is bit-identical to
  the single-array vectorized engine on the final graph;
* incremental throughput is at least ``MIN_SPEEDUP`` (5x) over per-op
  full recounts (the number is recorded in ``benchmarks/results/``);
* read-after-write pays one net splice: with the stream applied as
  ``READ_BATCHES`` (32) ``apply`` calls and then one read,
  ``session.graph`` (edges and CSR) and ``session.join_plan`` equal a
  from-scratch build, and such a read takes at most ``MAX_READ_RATIO``
  (3.5x) times a read after a single ``apply``.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python benchmarks/smoke_streaming.py [num_ops]
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import open_session
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix
from repro.graph import generators
from repro.graph.graph import Graph

RESULTS_DIR = Path(__file__).parent / "results"

NUM_VERTICES = 20_000
ATTACH = 8
NUM_ARRAYS = 4
SHARD_BY = "degree"
MIN_SPEEDUP = 5.0
#: Full recounts actually timed to estimate the per-op recount cost.
RECOUNT_SAMPLES = 3
#: ``apply`` calls queued before the read-after-write gate's one read.
READ_BATCHES = 32
#: Bound on (read after READ_BATCHES applies) / (read after one apply).
#: Measured 1.28-1.63x over 8 runs on a 2-CPU host (19.3x when every
#: queued segment was patched separately); 3.5x keeps a 2x margin.
MAX_READ_RATIO = 3.5
#: Timed reads per side of the gate's ratio (the fastest counts).
READS = 3


def make_stream(graph, num_ops: int, seed: int = 7):
    """A reproducible mixed insert/delete stream over ``graph``."""
    rng = np.random.default_rng(seed)
    pool = [tuple(edge) for edge in graph.edge_array().tolist()]
    present = set(pool)
    ops = []
    while len(ops) < num_ops:
        if rng.random() < 0.5 and pool:
            index = int(rng.integers(len(pool)))
            pool[index], pool[-1] = pool[-1], pool[index]
            edge = pool.pop()
            if edge not in present:
                continue
            present.discard(edge)
            ops.append(("-", *edge))
        else:
            u, v = int(rng.integers(NUM_VERTICES)), int(rng.integers(NUM_VERTICES))
            key = (min(u, v), max(u, v))
            if u == v or key in present:
                continue
            present.add(key)
            pool.append(key)
            ops.append(("+", u, v))
    return ops


def main(argv: list[str]) -> int:
    num_ops = int(argv[1]) if len(argv) > 1 else 1_000
    graph = generators.barabasi_albert(NUM_VERTICES, ATTACH, seed=42)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")
    ops = make_stream(graph, num_ops)

    lines = [
        f"streaming smoke: BA n={graph.num_vertices:,} m={graph.num_edges:,}, "
        f"{num_ops:,}-op stream, num_arrays={NUM_ARRAYS} (shard_by={SHARD_BY})"
    ]
    failures = 0

    # --- sharded session: the headline configuration -------------------
    session = open_session(graph, num_arrays=NUM_ARRAYS, shard_by=SHARD_BY)
    session.count()  # bootstrap the base count outside the timed region
    start = time.perf_counter()
    update = session.apply(ops)
    incremental_s = time.perf_counter() - start
    print(
        f"incremental: {num_ops:,} ops in {incremental_s:.3f}s "
        f"({update.segments} engine batches, {update.inserted} inserts, "
        f"{update.deleted} deletes, delta {update.delta_triangles:+,})"
    )

    final_graph = session.graph
    scratch = TCIMAccelerator(
        AcceleratorConfig(num_arrays=NUM_ARRAYS, shard_by=SHARD_BY)
    ).run(final_graph)
    if session.count() != scratch.triangles:
        print(
            f"FINAL COUNT MISMATCH: session {session.count():,} vs "
            f"from-scratch {scratch.triangles:,}",
            file=sys.stderr,
        )
        failures += 1
    resident = session.run()
    if dataclasses.asdict(resident.events) != dataclasses.asdict(scratch.events):
        print("EVENT CONSERVATION VIOLATED after stream", file=sys.stderr)
        failures += 1
    lines.append(
        f"final count {scratch.triangles:,} "
        f"(session == from-scratch sharded run: {failures == 0})"
    )

    # --- num_arrays=1: bit-identical to the single-array engine --------
    single = open_session(graph)
    single.count()
    single.apply(ops)
    reference = TCIMAccelerator(AcceleratorConfig()).run(final_graph)
    single_run = single.run()
    if single.count() != reference.triangles or dataclasses.asdict(
        single_run.events
    ) != dataclasses.asdict(reference.events):
        print("num_arrays=1 DIVERGES from the single-array engine", file=sys.stderr)
        failures += 1
    else:
        print(f"num_arrays=1: bit-identical ({reference.triangles:,} triangles)")

    # --- throughput vs per-op full recounts ----------------------------
    recount_config = AcceleratorConfig(num_arrays=NUM_ARRAYS, shard_by=SHARD_BY)
    start = time.perf_counter()
    for _ in range(RECOUNT_SAMPLES):
        TCIMAccelerator(recount_config).run(final_graph)
    recount_s = (time.perf_counter() - start) / RECOUNT_SAMPLES
    per_op_recount_s = recount_s * num_ops
    speedup = per_op_recount_s / incremental_s if incremental_s else float("inf")
    line = (
        f"incremental {num_ops:,} ops: {incremental_s:.3f}s "
        f"({num_ops / incremental_s:,.0f} ops/s); one full recount: "
        f"{recount_s:.3f}s -> per-op recounts would take {per_op_recount_s:.1f}s; "
        f"speedup {speedup:.1f}x (threshold {MIN_SPEEDUP}x)"
    )
    print(line)
    lines.append(line)
    if speedup < MIN_SPEEDUP:
        print(
            f"SPEEDUP BELOW THRESHOLD: {speedup:.1f}x < {MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        failures += 1

    # --- read-after-write: one net splice per read ---------------------
    failures += read_after_write(graph, ops, lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "smoke_streaming.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("streaming smoke passed")
    return 0


def batches(ops, count: int) -> list[list]:
    """``ops`` cut into ``count`` consecutive, near-equal batches."""
    bounds = np.linspace(0, len(ops), count + 1).astype(int)
    return [ops[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def timed_read(session) -> float:
    """Wall time of one read: graph, join plan, then a priced run."""
    start = time.perf_counter()
    session.graph
    session.join_plan
    session.simulate()
    return time.perf_counter() - start


def read_after_write(graph, ops, lines: list[str]) -> int:
    """The read-after-write gate; returns its violation count.

    Both sides of the ratio are the fastest of ``READS`` timed reads.
    The queued reads alternate the stream and its inverse (each cut into
    ``READ_BATCHES`` applies); ``READS`` is odd, so the graph ends where
    the stream ends.
    """
    failures = 0
    undo = [("+" if code == "-" else "-", u, v) for code, u, v in reversed(ops)]
    single = open_session(graph)
    single.simulate()
    single_reads = []
    for chunk in batches(ops, READ_BATCHES)[:READS]:
        single.apply(chunk)
        single_reads.append(timed_read(single))
    one_batch_s = min(single_reads)
    queued = open_session(graph)
    queued.simulate()
    queued_reads = []
    for index in range(READS):
        for chunk in batches(undo if index % 2 else ops, READ_BATCHES):
            queued.apply(chunk)
        queued_reads.append(timed_read(queued))
    queued_s = min(queued_reads)

    final = queued.graph
    edges = set(map(tuple, graph.edge_array().tolist()))
    for code, u, v in ops:
        edges ^= {(min(u, v), max(u, v))}
    fresh = Graph(final.num_vertices, np.array(sorted(edges)))
    if not (
        np.array_equal(final.edge_array(), fresh.edge_array())
        and all(np.array_equal(a, b) for a, b in zip(final.csr, fresh.csr))
    ):
        print("SPLICED GRAPH differs from a from-scratch build", file=sys.stderr)
        failures += 1
    row = SlicedMatrix.from_graph(fresh, "upper")
    col = SlicedMatrix.from_graph(fresh, "lower")
    reference = build_join_plan(row, col, *oriented_edges(fresh, "upper"))
    patched = queued.join_plan
    if not all(
        np.array_equal(
            np.asarray(getattr(patched, name), dtype=np.int64),
            np.asarray(getattr(reference, name), dtype=np.int64),
        )
        for name in ("row_positions", "col_positions", "trace_keys", "pair_counts")
    ):
        print("PATCHED JOIN PLAN differs from a from-scratch build", file=sys.stderr)
        failures += 1

    ratio = queued_s / one_batch_s if one_batch_s else float("inf")
    line = (
        f"read after {READ_BATCHES} applies: {queued_s * 1e3:.1f} ms; after one "
        f"apply: {one_batch_s * 1e3:.1f} ms (best of {READS} each); ratio "
        f"{ratio:.2f}x (bound {MAX_READ_RATIO}x); graph + join plan == "
        f"from-scratch: {failures == 0}"
    )
    print(line)
    lines.append(line)
    if ratio > MAX_READ_RATIO:
        print(
            f"READ AFTER {READ_BATCHES} APPLIES TOO SLOW: {ratio:.2f}x > "
            f"{MAX_READ_RATIO}x",
            file=sys.stderr,
        )
        failures += 1
    return failures


if __name__ == "__main__":
    sys.exit(main(sys.argv))
