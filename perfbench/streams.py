"""Seeded inputs for the benchmark workloads, kept as numpy arrays.

Streams are generated in full before any timer starts and converted to
the program's ``(op, u, v)`` tuples one batch at a time, just before that
batch's timer starts: a harness holding 160k Python tuples would inflate
the program's own garbage-collection passes.
"""

from __future__ import annotations

import numpy as np

DELETE, INSERT = 0, 1
_OP_NAMES = ("-", "+")


class EdgeStream:
    """Write batches that keep the edge count constant.

    Each batch deletes ``churn`` edges that are present and re-inserts
    the previous batch's ``churn`` deletions, in shuffled order, so every
    op changes the graph (no no-ops) and per-op cost does not drift along
    a run.  The first batch's re-inserts are ``churn`` edges held out of
    the base graph.
    """

    def __init__(self, edges: np.ndarray, batches: int, churn: int, rng) -> None:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        order = rng.permutation(len(edges))
        held = edges[order[:churn]]
        present = edges[order[churn:]]
        #: Edges of the graph the workload opens its session on.
        self.base_edges = present.copy()
        self.churn = churn
        self.batches = np.empty((batches, 2 * churn, 3), dtype=np.int64)
        for index in range(batches):
            slots = rng.choice(len(present), churn, replace=False)
            deleted = present[slots].copy()
            present[slots] = held
            ops = np.empty((2 * churn, 3), dtype=np.int64)
            ops[:churn, 0] = DELETE
            ops[:churn, 1:] = deleted
            ops[churn:, 0] = INSERT
            ops[churn:, 1:] = held
            self.batches[index] = ops[rng.permutation(2 * churn)]
            held = deleted
        #: Sorted edge list the graph must hold after every batch ran.
        self.final_edges = present[np.lexsort((present[:, 1], present[:, 0]))]


def to_ops(batch: np.ndarray) -> list[tuple[str, int, int]]:
    """One batch as the program's ``(op, u, v)`` tuples."""
    return [(_OP_NAMES[sign], u, v) for sign, u, v in batch.tolist()]


def probe_pairs(num_vertices: int, shape: tuple, rng) -> np.ndarray:
    """Random ``(u, v)`` probe pairs with ``u != v``, shaped ``shape + (2,)``."""
    u = rng.integers(0, num_vertices, size=shape, dtype=np.int64)
    v = (u + rng.integers(1, num_vertices, size=shape, dtype=np.int64)) % num_vertices
    return np.stack([u, v], axis=-1).astype(np.int32)


def to_pairs(pairs: np.ndarray) -> list[tuple[int, int]]:
    return [(u, v) for u, v in pairs.tolist()]
