"""The benchmark's three workloads and the traced run's layer pass.

Each workload replays a fixed amount of work generated from the seed:
``cycles`` is fixed by ``--seconds`` and a per-workload rate measured on a
2-CPU host, so two runs of one seed perform identical operations and the
exact simulated counts repeat bit for bit.  Correctness checks run
outside the per-op timers; a mismatch counts as a failed op.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import asdict
from time import perf_counter

import numpy as np

from repro.api import open_session, resolve_graph
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.engine import oriented_edges
# Modules, not their functions: the traced run wraps the module attributes.
from repro.core import plan as joinplan
from repro.core import sharding
from repro.core.slicing import SlicedMatrix
from repro.graph import generators
from repro.graph.graph import Graph
from repro.serve import open_service

from streams import EdgeStream, probe_pairs, to_ops, to_pairs

#: Pool workers and service threads, capped at the host's CPU count.
WORKERS = min(2, os.cpu_count() or 1)
SHARD_CONFIG = dict(
    num_arrays=16, shard_by="coloring", backing="shm", workers=WORKERS
)
SERVE_COUNTERS = ("queries", "kernel_launches", "fenced", "shed", "coalesced")


class Recorder:
    """Per-kind latency samples, attempted and failed ops, and checks."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.segments = 0

    def _failed(self, kind: str) -> None:
        # The harness boundary: report the traceback, count the op failed
        # and keep measuring.
        traceback.print_exc(file=sys.stderr)
        print(f"perfbench: {kind} op failed", file=sys.stderr)
        self.failed += 1

    def call(self, kind: str, function, *args):
        """Time one API call; ``None`` if it raised."""
        self.attempted += 1
        with self.tracer.span(kind, self.attempted):
            start = perf_counter()
            try:
                result = function(*args)
            except Exception:
                self._failed(kind)
                return None
            self.samples[kind].append(perf_counter() - start)
        self.completed += 1
        return result

    async def acall(self, kind: str, make_call):
        """Time one awaited service call; ``None`` if it raised."""
        self.attempted += 1
        with self.tracer.span(kind, self.attempted):
            start = perf_counter()
            try:
                result = await make_call()
            except Exception:
                self._failed(kind)
                return None
            self.samples[kind].append(perf_counter() - start)
        self.completed += 1
        return result

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            print(f"perfbench: check failed: {what}", file=sys.stderr)
            self.failed += 1

    def check_write(self, report, churn: int) -> None:
        if report is None:
            return
        self.segments += report.segments
        self.check(
            report.inserted == churn and report.deleted == churn,
            f"apply changed {report.inserted}+/{report.deleted}- edges, "
            f"expected {churn} each",
        )


def exact_counts(reports) -> dict:
    """EventCounts fields plus modelled latency and energy, summed."""
    totals: dict = defaultdict(int)
    latency = energy = 0.0
    for report in reports:
        for field, value in asdict(report.events).items():
            totals[f"events.{field}"] += value
        latency += report.perf.latency_s
        energy += report.perf.system_energy_j
    totals["arch.perf.model_latency"] = latency
    totals["arch.perf.model_energy"] = energy
    return dict(totals)


def session_read(session, tracer):
    """``simulate()``; traced, split into the layers it runs through."""
    if tracer.active:
        with tracer.span("graph.materialise"):
            session.graph
        with tracer.span("core.plan.flush"):
            session.join_plan
        with tracer.span("core.accelerator.sweep"):
            session.run()
        with tracer.span("arch.perf.price"):
            return session.simulate()
    return session.simulate()


def session_write(session, ops, tracer):
    with tracer.span("api.apply"):
        return session.apply(ops)


def check_graph(recorder: Recorder, graph: Graph, expected: np.ndarray, what: str) -> int:
    """Check the final edge list; return a from-scratch triangle count."""
    recorder.check(
        np.array_equal(graph.edge_array(), expected),
        f"{what}: final edge list differs from the replayed stream",
    )
    return TCIMAccelerator().run(graph).triangles


class SessionWorkload:
    """A closed loop of one client on one :class:`TCIMSession`."""

    name = ""
    cycles_per_second = 1.0
    writes_per_cycle = 1
    churn = 8
    config: dict = {}
    #: The layer pass times serve dispatch on its own service.
    dispatch = None

    def __init__(self, seed: int, seconds: float, tracer) -> None:
        self.tracer = tracer
        self.cycles = max(1, round(seconds * self.cycles_per_second))
        rng = np.random.default_rng(seed)
        graph = self.make_graph()
        self.stream = EdgeStream(
            graph.edge_array(), self.cycles * self.writes_per_cycle, self.churn, rng
        )
        self.graph = Graph(graph.num_vertices, self.stream.base_edges)
        self.session = None

    def make_graph(self) -> Graph:
        raise NotImplementedError

    def open(self) -> None:
        self.session = open_session(self.graph, **self.config)
        self.session.count()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    shutdown = close

    def final_graph(self) -> Graph:
        return self.session.graph

    def verify(self, recorder: Recorder) -> dict:
        session = self.session
        final = session.graph
        reference = check_graph(recorder, final, self.stream.final_edges, self.name)
        recorder.check(
            session.count() == reference,
            f"{self.name}: count {session.count()} != from-scratch run {reference}",
        )
        report = session.simulate()
        recorder.check(
            report.triangles == reference,
            f"{self.name}: simulate {report.triangles} != from-scratch run {reference}",
        )
        return exact_counts([report])


class StreamCount(SessionWorkload):
    """Write path plus deferred flush on the ``com-dblp`` stand-in."""

    name = "stream-count"
    cycles_per_second = 1.0
    writes_per_cycle = 4

    def make_graph(self) -> Graph:
        return resolve_graph("dataset:com-dblp@0.15")

    def loop(self, recorder: Recorder) -> None:
        session, tracer = self.session, self.tracer
        batches = iter(self.stream.batches)
        for _ in range(self.cycles):
            for _ in range(self.writes_per_cycle):
                ops = to_ops(next(batches))
                report = recorder.call("write", session_write, session, ops, tracer)
                recorder.check_write(report, self.churn)
                count = recorder.call("count", session.count)
                if report is not None:
                    recorder.check(count == report.triangles, "count != apply total")
            read = recorder.call("read", session_read, session, tracer)
            if read is not None:
                recorder.check(read.triangles == count, "simulate != count")


class ShardFence(SessionWorkload):
    """Context patching, the ``ContextPool`` fence and the shm sweep."""

    name = "shard-fence"
    cycles_per_second = 1.4
    config = SHARD_CONFIG

    def make_graph(self) -> Graph:
        return generators.barabasi_albert(20_000, 8, seed=1)

    def loop(self, recorder: Recorder) -> None:
        session, tracer = self.session, self.tracer
        for batch in self.stream.batches:
            report = recorder.call("write", session_write, session, to_ops(batch), tracer)
            recorder.check_write(report, self.churn)
            read = recorder.call("read", session_read, session, tracer)
            if read is not None and report is not None:
                recorder.check(read.triangles == report.triangles, "simulate != apply total")

    def verify(self, recorder: Recorder) -> dict:
        counts = super().verify(recorder)
        with open_session(self.session.graph) as plain:
            recorder.check(
                plain.count() == self.session.count(),
                "shard-fence: sharded count != plain session count",
            )
        return counts


class ServeMix:
    """Two closed-loop clients over four resident sessions of a service."""

    name = "serve-mix"
    cycles_per_second = 1.5
    sessions = 4
    churn = 4
    probes = 10
    probe_size = 1024
    truss_every = 4

    def __init__(self, seed: int, seconds: float, tracer) -> None:
        self.tracer = tracer
        self.cycles = max(1, round(seconds * self.cycles_per_second))
        rng = np.random.default_rng(seed)
        self.streams = []
        self.graphs = []
        self.pairs = []
        for index in range(self.sessions):
            graph = generators.barabasi_albert(6_000, 6, seed=index + 1)
            stream = EdgeStream(graph.edge_array(), self.cycles, self.churn, rng)
            self.streams.append(stream)
            self.graphs.append(Graph(graph.num_vertices, stream.base_edges))
            self.pairs.append(probe_pairs(
                graph.num_vertices, (self.cycles, self.probes, self.probe_size), rng
            ))
        self.event_loop = asyncio.new_event_loop()
        self.service = None

    def _run(self, coroutine):
        return self.event_loop.run_until_complete(coroutine)

    def open(self) -> None:
        async def opening():
            self.service = open_service(max_sessions=self.sessions, max_workers=WORKERS)
            await asyncio.gather(*(self.service.count(g) for g in self.graphs))

        self._run(opening())

    def close(self) -> None:
        if self.service is not None:
            self._run(self.service.close())
            self.service = None

    def shutdown(self) -> None:
        self.close()
        self.event_loop.close()

    async def _session_cycle(self, recorder: Recorder, index: int, cycle: int):
        service, graph = self.service, self.graphs[index]
        ops = to_ops(self.streams[index].batches[cycle])
        report = await recorder.acall("write", lambda: service.apply(graph, ops))
        recorder.check_write(report, self.churn)
        for probe in self.pairs[index][cycle]:
            pairs = to_pairs(probe)
            result = await recorder.acall(
                "probe", lambda: service.common_neighbors_many(graph, pairs)
            )
            if result is not None:
                recorder.check(result["pairs"] == len(pairs), "probe lost pairs")
        await recorder.acall("cluster", lambda: service.cluster(graph))
        if cycle % self.truss_every == self.truss_every - 1:
            await recorder.acall("truss", lambda: service.truss(graph))

    async def _client(self, recorder: Recorder, owned: list[int]):
        for cycle in range(self.cycles):
            for index in owned:
                await self._session_cycle(recorder, index, cycle)

    def loop(self, recorder: Recorder) -> None:
        # One client per service thread; each owns a fixed set of sessions,
        # so the op order within a session never depends on interleaving.
        clients = [list(range(self.sessions))[c::WORKERS] for c in range(WORKERS)]

        async def run_clients():
            await asyncio.gather(*(self._client(recorder, owned) for owned in clients))

        self._run(run_clients())

    def _sessions(self) -> list:
        by_source = {
            id(entry.source): entry.session for entry in self.service.pool.entries()
        }
        return [by_source[id(graph)] for graph in self.graphs]

    def final_graph(self) -> Graph:
        return self._sessions()[0].graph

    def dispatch(self) -> dict:
        return self._run(time_dispatch(self.service, self.graphs[0], self.tracer))

    def verify(self, recorder: Recorder) -> dict:
        async def verifying():
            service, reports = self.service, []
            for index, session in enumerate(self._sessions()):
                graph = self.graphs[index]
                final = session.graph
                reference = check_graph(
                    recorder, final, self.streams[index].final_edges, self.name
                )
                recorder.check(
                    await service.count(graph) == reference,
                    f"serve-mix session {index}: count != from-scratch run",
                )
                reports.append(await service.simulate(graph))
                if index:
                    continue
                pairs = to_pairs(self.pairs[index][-1][-1])
                cluster = await service.cluster(graph)
                truss = await service.truss(graph)
                probe = await service.common_neighbors_many(graph, pairs)
                with open_session(final) as fresh:
                    recorder.check(
                        cluster == fresh.clustering().to_mapping(),
                        "serve-mix: cluster differs from a fresh session",
                    )
                    trussness = fresh.truss()
                    histogram: dict[str, int] = defaultdict(int)
                    for value in trussness.values():
                        histogram[str(value)] += 1
                    recorder.check(
                        truss["histogram"] == dict(histogram)
                        and truss["num_edges"] == len(trussness),
                        "serve-mix: truss differs from a fresh session",
                    )
                    recorder.check(
                        probe["scores"] == fresh.common_neighbors_many(pairs),
                        "serve-mix: probe scores differ from a fresh session",
                    )
            return exact_counts(reports)

        return self._run(verifying())


WORKLOADS = {cls.name: cls for cls in (StreamCount, ShardFence, ServeMix)}


# ----------------------------------------------------------------------
# Layer pass: the traced run's direct calls for layers its loop skipped
# ----------------------------------------------------------------------


def layer_pass(graph: Graph, tracer, seed: int, dispatch=None) -> None:
    """Time every layer the traced loop did not reach, on ``graph``.

    Calls only public functions: ``SlicedMatrix.from_graph``,
    ``build_join_plan``, ``build_shard_contexts``, ``ContextPool``,
    ``TCIMSession`` and ``Service``.  Sessions open on ``graph`` minus a
    few held-out edges so every write batch is a real delta.
    ``dispatch`` times cached service counts and returns the service's
    counters; by default a one-session service over ``graph`` does it.
    """
    config, gauges = AcceleratorConfig(), tracer.gauges
    stream = EdgeStream(graph.edge_array(), 8, 4, np.random.default_rng(seed))
    base = Graph(graph.num_vertices, stream.base_edges)
    batches = iter(stream.batches)

    row = SlicedMatrix.from_graph(graph, "upper", slice_bits=config.slice_bits)
    col = SlicedMatrix.from_graph(graph, "lower", slice_bits=config.slice_bits)
    sources, destinations = oriented_edges(graph, "upper")
    plan = joinplan.build_join_plan(row, col, sources, destinations)
    gauges["core.plan.pairs"] = plan.num_pairs
    gauges["core.plan.bytes"] = plan.nbytes

    if not tracer.has("api.apply"):
        with open_session(base) as session:
            session.count()
            session_write(session, to_ops(next(batches)), tracer)
            session_read(session, tracer)

    if not tracer.has("core.sharding.pool_run"):
        contexts = sharding.build_shard_contexts(graph, "upper", SHARD_CONFIG["num_arrays"])
        with sharding.ContextPool(
            contexts, config.capacity_slices, config.policy, config.seed,
            workers=WORKERS,
        ) as pool:
            for _ in range(3):
                pool.run()
            pool.publish()
            gauges["core.sharding.shared_segments"] = pool.shared_segments
            gauges["storage.shared_bytes"] = pool.shared_bytes

    with open_session(base) as session:
        session.count()
        for name, query in (
            ("analysis.support", session.support),
            ("analysis.cluster", session.clustering),
            ("analysis.truss", session.truss),
        ):
            # Each analytic read follows a write, so it recomputes.
            session.apply(to_ops(next(batches)))
            with tracer.span(name):
                query()

    if dispatch is None:
        async def dispatch_own():
            async with open_service(max_sessions=1, max_workers=1) as service:
                return await time_dispatch(service, graph, tracer)

        gauges.update(asyncio.run(dispatch_own()))
    else:
        gauges.update(dispatch())


async def time_dispatch(service, source, tracer, repeats: int = 20) -> dict:
    """Cached ``count`` calls (no engine work); returns the service counters."""
    await service.count(source)
    for _ in range(repeats):
        with tracer.span("serve.dispatch"):
            await service.count(source)
    report = service.report()
    return {f"serve.{name}": getattr(report, name) for name in SERVE_COUNTERS}


def latency_summary(samples: dict[str, list[float]]) -> dict:
    """Per op kind: sample count, p50, and p90 where it has 100 samples."""
    summary = {}
    for kind, values in sorted(samples.items()):
        entry = {"n": len(values), "p50_s": statistics.median(values)}
        if len(values) >= 100:
            entry["p90_s"] = statistics.quantiles(values, n=10)[-1]
        summary[kind] = entry
    return summary
