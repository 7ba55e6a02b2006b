"""Micro-benchmarks of the primitive kernels (pytest-benchmark timings).

These are the operations the in-memory architecture replaces or
accelerates; their software timings put the modelled hardware numbers in
context and guard against performance regressions in the library itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitwise import triangle_count_sliced
from repro.core.slicing import SlicedMatrix
from repro.graph import bitops
from repro.graph.bitmatrix import BitMatrix
from repro.memory.bitcounter import BitCounter

from _helpers import graph_for


@pytest.fixture(scope="module")
def enron_graph():
    return graph_for("email-enron")


def bench_kernel_pack_bits(benchmark):
    rng = np.random.default_rng(0)
    bits = rng.random(1 << 16) < 0.1
    words = benchmark(bitops.pack_bits, bits)
    assert bitops.popcount(words) == int(bits.sum())


def bench_kernel_popcount(benchmark):
    rng = np.random.default_rng(1)
    words = rng.integers(0, 2**63, size=1 << 14).astype(np.uint64)
    total = benchmark(bitops.popcount, words)
    assert total > 0


def bench_kernel_bitcounter_lut(benchmark):
    counter = BitCounter(256)
    data = np.arange(32, dtype=np.uint8)
    result = benchmark(counter.count_bytes, data)
    assert result == sum(int(b).bit_count() for b in range(32))


def bench_kernel_bitmatrix_build(benchmark, enron_graph):
    matrix = benchmark.pedantic(
        lambda: BitMatrix.from_graph(enron_graph, "upper"), rounds=3, iterations=1
    )
    assert matrix.nnz() == enron_graph.num_edges


def bench_kernel_slicing_compression(benchmark, enron_graph):
    sliced = benchmark.pedantic(
        lambda: SlicedMatrix.from_graph(enron_graph, "upper"), rounds=3, iterations=1
    )
    assert sliced.nnz() == enron_graph.num_edges


def bench_kernel_sliced_triangle_count(benchmark, enron_graph):
    rows = SlicedMatrix.from_graph(enron_graph, "upper")
    cols = SlicedMatrix.from_graph(enron_graph, "lower")
    triangles = benchmark.pedantic(
        lambda: triangle_count_sliced(enron_graph, row_sliced=rows, col_sliced=cols),
        rounds=3,
        iterations=1,
    )
    assert triangles > 0


def bench_kernel_vectorized_engine(benchmark, enron_graph):
    """Full accelerator run on the batched engine (the production path)."""
    from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator

    accelerator = TCIMAccelerator(AcceleratorConfig())
    result = benchmark.pedantic(
        lambda: accelerator.run(enron_graph), rounds=3, iterations=1
    )
    assert result.triangles > 0


def bench_kernel_engine_speedup(benchmark, enron_graph):
    """Batched executor vs the per-edge oracle: identical results, large speedup.

    Guards the engine against perf regressions: if the batched dataflow
    ever drops under 3x the per-edge oracle loop on email-enron, something
    in the fast path broke.  (The strict acceptance gate — best-of-N at
    20k vertices with an 8x floor — is benchmarks/smoke_engine_speedup.py,
    wired into CI; this keeps a cheap in-suite signal with a threshold
    loose enough for noisy runners.)
    """
    import time as _time

    from repro.core.accelerator import TCIMAccelerator
    from repro.core.oracle import run_legacy

    def run(runner):
        best, result = float("inf"), None
        for _ in range(3):
            start = _time.perf_counter()
            result = runner(enron_graph)
            best = min(best, _time.perf_counter() - start)
        return best, result

    vectorized_run = TCIMAccelerator().run
    run(vectorized_run)  # warm numpy before timing either path
    legacy_s, legacy = run(run_legacy)
    vectorized_s, vectorized = benchmark.pedantic(
        lambda: run(vectorized_run), rounds=1, iterations=1
    )
    assert vectorized.triangles == legacy.triangles
    assert vectorized.events == legacy.events
    assert legacy_s / vectorized_s > 3.0
