"""Fixed-work benchmark of the TCIM reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-count --seed 1 --seconds 20 --trace 0

Workloads: ``stream-count``, ``shard-fence``, ``serve-mix`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays the workload once untraced and once with spans
around every layer call, prints the per-layer metrics and writes the
spans to ``.perfbench/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when a result was printed; a tree without ``src/repro`` exits 2.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP before numpy loads: the benchmark times the program's
# own parallelism (pool workers, service threads), not library threads.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter, sleep  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run: at least the minimum, then more while their total
#: stays under ``SETUP_SECONDS`` (up to the maximum), so a set-up of a
#: few milliseconds still yields a steady median (``setup_s``).
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_SECONDS = 2.0
LAYER_SPANS = (
    "graph.materialise",
    "core.slicing.build",
    "core.plan.compile",
    "core.plan.patch",
    "core.plan.flush",
    "api.apply",
    "core.accelerator.sweep",
    "arch.perf.price",
    "core.sharding.context_build",
    "core.sharding.pool_attach",
    "core.sharding.pool_run",
    "core.sharding.publish",
    "analysis.support",
    "analysis.cluster",
    "analysis.truss",
    "serve.dispatch",
)
COUNT_UNITS = {
    "arch.perf.model_latency": "model_s",
    "arch.perf.model_energy": "model_J",
    "core.plan.bytes": "B",
    "storage.shared_bytes": "B",
    "core.sharding.balance": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_probe() -> float:
    """Best of three sorts of a fixed array: a host-speed reference."""
    import numpy as np

    values = np.random.default_rng(0).random(1 << 20)
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        np.sort(values)
        best = min(best, perf_counter() - start)
    return best


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check_leaks(recorder, pools: list, segments: list) -> None:
    """Every ContextPool closed, every shared segment the run made unlinked."""
    from repro.storage.backing import attach_segment

    open_pools = sum(not pool.closed for pool in pools)
    recorder.check(not open_pools, f"{open_pools} ContextPool(s) left open")
    leaked = 0
    for name in segments:
        try:
            segment = attach_segment(name)
        except FileNotFoundError:
            continue
        leaked += 1
        segment.close()
        segment.unlink()
    recorder.check(not leaked, f"{leaked} shared segment(s) survived the run")


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for child ``pid``; True once it ended."""
    deadline = monotonic() + timeout
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if monotonic() >= deadline:
            return False
        sleep(0.01)


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait for each to end.

    Shared-memory segments start multiprocessing's resource tracker, a
    child that otherwise outlives the run; closing its pipe makes it
    exit, and it is reaped here.  Pool workers are joined by
    ``ContextPool.close``; any still alive are terminated.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is not None and not _reap(pid, timeout):
        os.kill(pid, signal.SIGKILL)
        _reap(pid, timeout)


def replay(workload, recorder) -> tuple[list[float], float, dict]:
    """Set up repeatedly, time the loop, verify; returns the timings."""
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        if setup_times:
            workload.close()
        gc.collect()
        start = perf_counter()
        with workload.tracer.span("setup"):
            workload.open()
        setup_times.append(perf_counter() - start)
    gc.collect()
    start = perf_counter()
    workload.loop(recorder)
    wall = perf_counter() - start
    exact = workload.verify(recorder)
    return setup_times, wall, exact


def traced_metrics(tracer, traced, exact: dict, ops_per_s: float, traced_ops: float) -> dict:
    """Per-layer metrics: median self time per span, exact counts, overhead."""
    medians = tracer.median_self()
    metrics = {f"{name}_s": (medians.get(name, 0.0), "s") for name in LAYER_SPANS}
    counts = {**exact, **tracer.gauges, "api.apply.segments": traced.segments}
    for name, value in sorted(counts.items()):
        metrics[name] = (value, COUNT_UNITS.get(name, "count"))
    metrics["trace.untraced_ops_per_s"] = (ops_per_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_ops, "1/s")
    metrics["trace.overhead_pct"] = ((ops_per_s / traced_ops - 1.0) * 100.0, "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from spans import Tracer, instrument
    from workloads import WORKLOADS, Recorder, latency_summary, layer_pass

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    probe_before = host_probe()
    untraced = Tracer(False)
    pools: list = []
    segments: list = []
    recorder = Recorder(untraced)
    recorders = [recorder]
    workload = WORKLOADS[args.workload](args.seed, args.seconds, untraced)
    try:
        with instrument(untraced, pools, segments):
            setup_times, wall, exact = replay(workload, recorder)
        rss_mb = peak_rss_mb()
        ops_per_s = recorder.completed / wall
        if args.trace:
            # Replay the same stream from a fresh set-up, now with spans.
            workload.close()
            tracer = workload.tracer = Tracer(True)
            traced = Recorder(tracer)
            recorders.append(traced)
            with instrument(tracer, pools, segments):
                _, traced_wall, traced_exact = replay(workload, traced)
                for pool in pools:
                    if not pool.closed:
                        tracer.gauges["core.sharding.shared_segments"] = pool.shared_segments
                        tracer.gauges["storage.shared_bytes"] = pool.shared_bytes
                layer_pass(workload.final_graph(), tracer, args.seed, workload.dispatch)
            recorder.check(
                traced_exact == exact,
                "exact counts differ between the untraced and the traced replay",
            )
    finally:
        workload.shutdown()
    check_leaks(recorder, pools, segments)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": workload.cycles,
        "host_probe_s": {"before": probe_before, "after": host_probe()},
        "latency": latency_summary(recorder.samples),
        "setup_s": setup_times,
        "exact": {**exact, "api.apply.segments": recorder.segments},
    }
    if args.trace:
        metrics = traced_metrics(
            tracer, traced, traced_exact, ops_per_s, traced.completed / traced_wall
        )
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        detail["self_s_total"] = tracer.total_self()
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        tracer.dump(trace_path, {**detail, "metrics": metrics})
    else:
        read_kind = "probe" if "probe" in recorder.samples else "read"

        def p50(kind: str) -> float:
            values = recorder.samples.get(kind)
            return statistics.median(values) if values else 0.0

        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "write_p50_s": (p50("write"), "s"),
            "read_p50_s": (p50(read_kind), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    print(json.dumps({"detail": detail}))
    failed = sum(r.failed for r in recorders)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in recorders),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
