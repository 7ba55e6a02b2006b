"""Tests for the async serving tier (repro.serve).

Covers the tentpole guarantees:

* **pool semantics** — keying by (source, config), LRU eviction under
  session and byte budgets, lease pinning, and write-back of mutated
  sessions so eviction never loses applied updates;
* **exactness under concurrency** — the differential serving test: N
  concurrent clients issuing a randomized mix of count/simulate/apply
  produce final triangle counts identical to replaying each session's
  recorded op journal serially through ``DynamicTriangleCounter``;
* **read coalescing** keyed by session generation, and write
  serialisation per session;
* **backend plumbing** — a custom graph-source scheme registered
  through ``repro.registry`` serves unchanged;
* the JSON **line protocol** (dispatch, errors, stream driver) and the
  aggregate **ServiceReport** priced through ``arch/perf``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import registry
from repro.core.accelerator import AcceleratorConfig
from repro.core.dynamic import DynamicTriangleCounter
from repro.errors import ReproError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.serve import (
    Service,
    SessionPool,
    handle_request,
    open_service,
    serve_stream,
)


@pytest.fixture
def paper_graph():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# SessionPool
# ----------------------------------------------------------------------
class TestSessionPool:
    def test_hit_shares_resident_session(self, paper_graph):
        pool = SessionPool(max_sessions=2)
        first = pool.acquire(paper_graph)
        second = pool.acquire(paper_graph)
        assert first is second
        assert pool.stats.hits == 1 and pool.stats.misses == 1
        pool.release(first)
        pool.release(second)

    def test_config_keys_separate_entries(self, paper_graph):
        pool = SessionPool(max_sessions=4)
        one = pool.acquire(paper_graph)
        two = pool.acquire(paper_graph, num_arrays=2)
        assert one is not two
        assert two.session.config.num_arrays == 2
        pool.release(one)
        pool.release(two)

    def test_lru_eviction_over_session_budget(self):
        graphs = [generators.erdos_renyi(30, 60, seed=s) for s in range(3)]
        pool = SessionPool(max_sessions=2)
        entries = []
        for graph in graphs:
            entry = pool.acquire(graph)
            pool.release(entry)
            entries.append(entry)
        assert pool.resident == 2
        assert pool.stats.evictions == 1
        # The oldest (graphs[0]) was evicted; re-acquiring is a miss.
        pool.acquire(graphs[0])
        assert pool.stats.misses == 4

    def test_leased_entries_never_evicted(self):
        graphs = [generators.erdos_renyi(30, 60, seed=s) for s in range(3)]
        pool = SessionPool(max_sessions=1)
        leased = [pool.acquire(graph) for graph in graphs]
        assert pool.resident == 3  # transiently over budget
        for entry in leased:
            pool.release(entry)
        assert pool.resident == 1

    def test_byte_budget_evicts(self):
        graphs = [generators.barabasi_albert(500, 4, seed=s) for s in range(2)]
        pool = SessionPool(max_sessions=8, max_resident_bytes=1)
        for graph in graphs:
            entry = pool.acquire(graph)
            entry.session.count()  # build residency so bytes are non-zero
            pool.release(entry)
        assert pool.resident <= 1

    def test_writeback_preserves_updates_across_eviction(self, paper_graph):
        other = generators.erdos_renyi(30, 60, seed=0)
        pool = SessionPool(max_sessions=1)
        entry = pool.acquire(paper_graph)
        entry.session.count()
        entry.session.apply([("+", 0, 3)])
        updated = entry.session.count()
        pool.release(entry)
        # Evict the paper graph by touching another key...
        pool.release(pool.acquire(other))
        assert pool.stats.evictions >= 1
        # ...and the re-acquired session resumes from the updated state.
        entry = pool.acquire(paper_graph)
        assert entry.session.count() == updated
        assert entry.session.has_edge(0, 3)
        pool.release(entry)

    def test_writeback_survives_clean_reeviction(self, paper_graph):
        other = generators.erdos_renyi(30, 60, seed=0)
        pool = SessionPool(max_sessions=1)
        entry = pool.acquire(paper_graph)
        entry.session.apply([("+", 0, 3)])
        pool.release(entry)
        for _ in range(2):  # evict, re-acquire read-only, evict again
            pool.release(pool.acquire(other))
            entry = pool.acquire(paper_graph)
            assert entry.session.has_edge(0, 3)
            pool.release(entry)

    def test_validation(self):
        with pytest.raises(ReproError, match="max_sessions"):
            SessionPool(max_sessions=0)
        with pytest.raises(ReproError, match="max_resident_bytes"):
            SessionPool(max_resident_bytes=0)
        with pytest.raises(ReproError, match="graph source"):
            SessionPool().key_for(123)


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
class TestService:
    def test_basic_queries(self, paper_graph):
        async def main():
            async with open_service(max_sessions=2) as service:
                assert await service.count(paper_graph) == 2
                report = await service.simulate(paper_graph)
                assert report.triangles == 2
                stats = await service.slice_stats(paper_graph)
                assert stats.num_valid_slices > 0
                assert await service.baseline(paper_graph, "forward") == 2
                update = await service.apply(paper_graph, [("+", 0, 3)])
                assert update.inserted == 1
                assert await service.count(paper_graph) == 4

        run(main())

    def test_coalescing_counts_only_identical_generation(self):
        # Large enough that the first simulate is still in flight on the
        # worker pool when the stragglers arrive and join it.
        graph = generators.barabasi_albert(3000, 5, seed=3)

        async def main():
            async with open_service(max_sessions=2) as service:
                reports = await asyncio.gather(
                    *(service.simulate(graph) for _ in range(4))
                )
                assert len({report.triangles for report in reports}) == 1
                report = service.report()
                assert report.queries == 4
                # At least the stragglers joined the first in-flight run.
                assert report.coalesced >= 1

        run(main())

    def test_closed_service_rejects_requests(self, paper_graph):
        async def main():
            service = open_service(max_sessions=2)
            await service.close()
            with pytest.raises(ReproError, match="closed"):
                await service.count(paper_graph)

        run(main())

    def test_patch_fallbacks_surface_in_report(self, monkeypatch):
        from repro.core import plan as joinplan

        graph = generators.barabasi_albert(200, 4, seed=12)
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        ops = [("+", 0, 150), ("+", 3, 180)]
        oracle.apply_ops(ops)

        def boom(*args, **kwargs):
            raise RuntimeError("injected patch failure")

        async def main():
            async with open_service(max_sessions=2) as service:
                await service.simulate(graph)
                monkeypatch.setattr(joinplan, "patch_join_plan", boom)
                await service.apply(graph, ops)
                report = await service.simulate(graph)
                assert report.triangles == oracle.triangles
                (stats,) = service.report().sessions
                assert stats.patch_fallbacks == {
                    "flush": 1, "contexts": 0, "sym_plan": 0
                }
                assert stats.to_mapping()["patch_fallbacks"]["flush"] == 1

        run(main())

    def test_custom_source_scheme_serves_unchanged(self, paper_graph):
        registry.register_source(
            "servetest", lambda remainder, spec: paper_graph, replace=True
        )
        try:
            async def main():
                async with open_service(max_sessions=2) as service:
                    assert await service.count("servetest:any") == 2

            run(main())
        finally:
            registry._SOURCES.pop("servetest", None)

    def test_report_prices_fleet(self, paper_graph):
        other = generators.erdos_renyi(40, 100, seed=1)

        async def main():
            async with open_service(max_sessions=4) as service:
                await service.count(paper_graph)
                await service.count(other)
                await service.apply(paper_graph, [("+", 0, 3)])
                report = service.report()
                assert report.queries == 3
                assert report.resident == 2
                assert report.max_sessions == 4
                assert 0 < report.occupancy <= 1
                assert report.fleet is not None
                assert report.fleet.latency_s > 0
                keys = report.fleet.latency_breakdown_s
                assert "critical_path" in keys and "imbalance" in keys
                assert len(report.sessions) == 2
                assert all(s.latency_s > 0 for s in report.sessions)
                payload = report.to_mapping()
                assert payload["queries"] == 3
                assert payload["fleet"]["latency_s"] == report.fleet.latency_s
                json.dumps(payload)  # wire-serialisable
                # Resident sessions surface their join-plan share of the
                # byte budget (count() compiles a plan on warm-up).
                for stats in report.sessions:
                    assert 0 < stats.plan_bytes <= stats.resident_bytes
                    assert stats.to_mapping()["plan_bytes"] == stats.plan_bytes

        run(main())

    def test_journal_requires_flag(self, paper_graph):
        async def main():
            async with open_service(max_sessions=2) as service:
                await service.count(paper_graph)
                with pytest.raises(ReproError, match="record_journal"):
                    service.journal(paper_graph)

        run(main())


class TestDifferentialServing:
    """N concurrent clients vs a serial oracle replay (the acceptance gate)."""

    NUM_GRAPHS = 4
    CLIENTS_PER_GRAPH = 2  # 8 concurrent clients over 8+ resident sessions

    def _client_ops(self, graph, block_index, num_blocks, rng):
        """Randomized op batches confined to a private vertex block."""
        n = graph.num_vertices
        block = n // num_blocks
        lo, hi = block_index * block, (block_index + 1) * block
        present = {
            (u, v)
            for u, v in map(tuple, graph.edge_array().tolist())
            if lo <= u < hi and lo <= v < hi
        }
        batches = []
        for _ in range(4):
            batch = []
            while len(batch) < 5:
                u = int(rng.integers(lo, hi))
                v = int(rng.integers(lo, hi))
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if key in present and rng.random() < 0.5:
                    present.discard(key)
                    batch.append(("-", u, v))
                elif key not in present:
                    present.add(key)
                    batch.append(("+", u, v))
            batches.append(batch)
        return batches

    def test_concurrent_mix_equals_serial_oracle_replay(self):
        graphs = [
            generators.barabasi_albert(400, 4, seed=seed)
            for seed in range(self.NUM_GRAPHS)
        ]
        # Two sessions per graph (different configs) -> 8 resident
        # sessions, driven by 8 concurrent clients.
        configs = [None, {"num_arrays": 2, "shard_by": "rows"}]
        rng = np.random.default_rng(7)
        clients = []
        for graph_index, graph in enumerate(graphs):
            for client_index in range(self.CLIENTS_PER_GRAPH):
                clients.append(
                    {
                        "graph": graphs[graph_index],
                        "config": configs[client_index],
                        "ops": self._client_ops(
                            graph, client_index, self.CLIENTS_PER_GRAPH, rng
                        ),
                    }
                )

        async def main():
            async with open_service(
                max_sessions=16, record_journal=True
            ) as service:

                async def drive(client):
                    results = []
                    for batch in client["ops"]:
                        results.append(
                            await service.count(client["graph"], client["config"])
                        )
                        await service.apply(
                            client["graph"], batch, client["config"]
                        )
                        kind = await service.simulate(
                            client["graph"], client["config"]
                        )
                        results.append(kind.triangles)
                    return results

                await asyncio.gather(*(drive(client) for client in clients))
                report = service.report()
                assert report.resident >= 8  # the acceptance criterion
                finals = {}
                journals = {}
                for client in clients:
                    key = service.pool.key_for(client["graph"], client["config"])
                    finals[key] = await service.count(
                        client["graph"], client["config"]
                    )
                    journals[key] = service.journal(
                        client["graph"], client["config"]
                    )
                return finals, journals

        finals, journals = run(main())
        # Serial oracle replay of each session's executed op stream.
        key_to_graph = {}
        pool = SessionPool()
        for client in clients:
            key_to_graph[pool.key_for(client["graph"], client["config"])] = client[
                "graph"
            ]
        assert len(finals) == 8
        for key, journal in journals.items():
            graph = key_to_graph[key]
            oracle = DynamicTriangleCounter(graph.num_vertices, graph)
            for batch in journal:
                oracle.apply_ops(batch)
            assert finals[key] == oracle.triangles, key

    def test_shared_session_applies_serialise(self, paper_graph):
        """Concurrent applies to one session interleave as atomic batches."""
        graph = generators.barabasi_albert(600, 4, seed=9)
        present = set(map(tuple, graph.edge_array().tolist()))
        absent = iter(
            (u, v)
            for u in range(600)
            for v in range(u + 1, 600)
            if (u, v) not in present
        )
        streams = [
            [("+", *next(absent)) for _ in range(10)] for _ in range(6)
        ]

        async def main():
            async with open_service(max_sessions=2, record_journal=True) as service:
                await asyncio.gather(
                    *(service.apply(graph, stream) for stream in streams)
                )
                journal = service.journal(graph)
                final = await service.count(graph)
                return journal, final

        journal, final = run(main())
        # Every stream ran as one atomic batch, in some serial order.
        assert sorted(map(tuple, (tuple(b) for b in journal))) == sorted(
            map(tuple, (tuple(s) for s in streams))
        )
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        for batch in journal:
            oracle.apply_ops(batch)
        assert final == oracle.triangles


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def _spec(self, tmp_path, graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        return str(path)

    def test_dispatch(self, tmp_path, paper_graph):
        spec = self._spec(tmp_path, paper_graph)

        async def main():
            async with open_service(max_sessions=2) as service:
                ping = await handle_request(service, {"id": 1, "op": "ping"})
                assert ping == {
                    "id": 1, "ok": True, "op": "ping", "result": {"pong": True}
                }
                count = await handle_request(
                    service, {"id": 2, "op": "count", "graph": spec}
                )
                assert count["result"] == {"triangles": 2}
                apply_response = await handle_request(
                    service,
                    {"id": 3, "op": "apply", "graph": spec,
                     "ops": [["+", 0, 3]]},
                )
                assert apply_response["result"]["triangles"] == 4
                simulate = await handle_request(
                    service, {"id": 4, "op": "simulate", "graph": spec}
                )
                assert simulate["result"]["triangles"] == 4
                baseline = await handle_request(
                    service,
                    {"id": 5, "op": "baseline", "graph": spec,
                     "name": "forward"},
                )
                assert baseline["result"]["triangles"] == 4
                stats = await handle_request(
                    service, {"id": 6, "op": "slice-stats", "graph": spec}
                )
                assert stats["ok"] and stats["result"]["num_valid_slices"] > 0
                report = await handle_request(service, {"id": 7, "op": "report"})
                assert report["result"]["queries"] >= 5
                for response in (count, apply_response, simulate, baseline):
                    json.dumps(response)

        run(main())

    def test_errors_are_reported_not_raised(self, paper_graph):
        async def main():
            async with open_service(max_sessions=2) as service:
                unknown = await handle_request(service, {"id": 1, "op": "nope"})
                assert not unknown["ok"] and "unknown op" in unknown["error"]
                missing = await handle_request(service, {"id": 2, "op": "count"})
                assert not missing["ok"] and "graph" in missing["error"]
                bad_spec = await handle_request(
                    service,
                    {"id": 3, "op": "count", "graph": "dataset:com-dblp@0"},
                )
                assert not bad_spec["ok"]
                assert "positive finite" in bad_spec["error"]
                not_object = await handle_request(service, [1, 2, 3])
                assert not not_object["ok"]

        run(main())

    def test_serve_stream_round_trip(self, tmp_path, paper_graph):
        spec = self._spec(tmp_path, paper_graph)
        requests = [
            json.dumps({"id": 1, "op": "count", "graph": spec}),
            "not json",
            json.dumps({"id": 2, "op": "apply", "graph": spec,
                        "ops": [["+", 0, 3]]}),
            json.dumps({"id": 3, "op": "count", "graph": spec}),
        ]

        async def main():
            async with open_service(max_sessions=2) as service:
                incoming = list(requests)
                responses: list[str] = []

                async def read_line():
                    # Closed loop: hand out the next request only after
                    # the previous response landed, like a real client.
                    if not incoming:
                        return None
                    if len(responses) < len(requests) - len(incoming):
                        await asyncio.sleep(0)
                    return incoming.pop(0)

                async def write_line(text):
                    responses.append(text)

                handled = await serve_stream(service, read_line, write_line)
                return handled, responses

        handled, responses = run(main())
        assert handled == 4
        decoded = {}
        invalid = []
        for response in map(json.loads, responses):
            if response.get("id") is None:
                invalid.append(response)
            else:
                decoded[response["id"]] = response
        assert len(invalid) == 1 and "invalid JSON" in invalid[0]["error"]
        assert decoded[1]["result"]["triangles"] == 2
        assert decoded[2]["ok"]
        assert decoded[3]["result"]["triangles"] == 4

    def test_tcp_round_trip(self, tmp_path, paper_graph):
        from repro.serve import serve_tcp

        spec = self._spec(tmp_path, paper_graph)

        async def main():
            async with open_service(max_sessions=2) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(
                        (json.dumps({"id": 1, "op": "count", "graph": spec})
                         + "\n").encode()
                    )
                    await writer.drain()
                    response = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    return response

        response = run(main())
        assert response["ok"] and response["result"]["triangles"] == 2


class TestReviewRegressions:
    """Regression coverage for the serving-tier review findings."""

    def test_partial_apply_failure_keeps_journal_and_pricing_in_sync(self):
        import repro.core.incremental as incremental

        graph = generators.barabasi_albert(300, 4, seed=2)
        present = set(map(tuple, graph.edge_array().tolist()))
        absent = [
            (u, v)
            for u in range(0, 20)
            for v in range(u + 1, 40)
            if (u, v) not in present
        ]
        existing = sorted(present)[:3]
        ops = (
            [("+", *edge) for edge in absent[:3]]
            + [("-", *edge) for edge in existing]
        )
        real = incremental.symmetric_delta
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            # The warm-up full run never calls the delta join; call 1 is
            # the insert segment, call 2 the delete segment — fail there.
            if calls["n"] == 2:
                raise RuntimeError("injected")
            return real(*args, **kwargs)

        async def main(monkey_on):
            async with open_service(max_sessions=2, record_journal=True) as svc:
                await svc.count(graph)
                incremental.symmetric_delta = flaky if monkey_on else real
                try:
                    with pytest.raises(RuntimeError, match="injected"):
                        await svc.apply(graph, ops)
                finally:
                    incremental.symmetric_delta = real
                journal = svc.journal(graph)
                final = await svc.count(graph)
                events = svc.report().sessions[0].events
                return journal, final, events

        journal, final, events = run(main(True))
        # The journal holds exactly the committed prefix (segment 1)...
        assert journal == [[("+", *edge) for edge in absent[:3]]]
        # ...and replaying it reproduces the session's actual state.
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        for batch in journal:
            oracle.apply_ops(batch)
        assert final == oracle.triangles
        # The committed segment's engine work is priced, not dropped.
        assert events.edges_processed > 0

    def test_close_discards_writeback_state(self, paper_graph):
        pool = SessionPool(max_sessions=1)
        entry = pool.acquire(paper_graph)
        entry.session.apply([("+", 0, 3)])
        pool.release(entry)
        pool.close()
        entry = pool.acquire(paper_graph)
        # After terminal close the key resolves from the source again.
        assert not entry.session.has_edge(0, 3)
        pool.release(entry)

    def test_builtin_scheme_shadowing_rejected(self):
        with pytest.raises(Exception, match="already registered"):
            registry.register_source("dataset", lambda r, s: None)

    def test_coalescing_generation_mirror_tracks_applies(self, paper_graph):
        async def main():
            async with open_service(max_sessions=2) as service:
                await service.count(paper_graph)
                entry = service.pool.entries()[0]
                warm_generation = entry.known_generation
                await service.apply(paper_graph, [("+", 0, 3)])
                assert entry.known_generation > warm_generation
                # A read after the apply keys a fresh (uncoalesced) slot.
                assert await service.count(paper_graph) == 4

        run(main())


class TestSecondReviewRegressions:
    """Regressions for the pipelining, journal, and fleet-pricing findings."""

    def test_journal_spans_evictions(self, paper_graph):
        other = generators.erdos_renyi(30, 60, seed=0)

        async def main():
            async with Service(max_sessions=1, record_journal=True) as service:
                await service.apply(paper_graph, [("+", 0, 3)])
                await service.count(other)  # evicts the paper graph
                await service.apply(paper_graph, [("-", 1, 2)])
                journal = service.journal(paper_graph)
                final = await service.count(paper_graph)
                return journal, final

        journal, final = run(main())
        # Both batches survive the eviction, in execution order...
        assert journal == [[("+", 0, 3)], [("-", 1, 2)]]
        # ...so the from-base-graph replay reproduces the served state.
        oracle = DynamicTriangleCounter(paper_graph.num_vertices, paper_graph)
        for batch in journal:
            oracle.apply_ops(batch)
        assert final == oracle.triangles

    def test_pipelined_same_graph_requests_execute_in_order(
        self, tmp_path, paper_graph
    ):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        spec = str(path)
        # All lines submitted up-front (pipelined, NOT closed-loop): the
        # first count must still observe the pre-apply state.
        requests = [
            json.dumps({"id": 1, "op": "count", "graph": spec}),
            json.dumps({"id": 2, "op": "apply", "graph": spec,
                        "ops": [["+", 0, 3]]}),
            json.dumps({"id": 3, "op": "count", "graph": spec}),
        ]

        async def main():
            async with open_service(max_sessions=2) as service:
                incoming = list(requests)
                responses: list[str] = []

                async def read_line():
                    return incoming.pop(0) if incoming else None

                async def write_line(text):
                    responses.append(text)

                await serve_stream(service, read_line, write_line)
                return responses

        for _ in range(5):  # would be racy without the per-graph chain
            decoded = {
                r["id"]: r for r in map(json.loads, run(main()))
            }
            assert decoded[1]["result"]["triangles"] == 2
            assert decoded[3]["result"]["triangles"] == 4

    def test_fleet_prices_only_resident_sessions(self, paper_graph):
        other = generators.erdos_renyi(40, 100, seed=1)

        async def main():
            async with Service(max_sessions=1) as service:
                await service.count(paper_graph)
                await service.count(other)  # evicts the paper graph
                report = service.report()
                return report

        report = run(main())
        assert report.resident == 1
        # Both sessions appear (one retired), each individually priced...
        assert len(report.sessions) == 2
        assert all(s.latency_s > 0 for s in report.sessions)
        # ...but the concurrent-fleet figure covers only the resident one.
        session_keys = [
            k for k in report.fleet.latency_breakdown_s if k.startswith("session")
        ]
        assert len(session_keys) == 1


# ----------------------------------------------------------------------
# Bulk-bitwise workload ops (support / truss / cluster / common_neighbors)
# ----------------------------------------------------------------------
class TestWorkloadOps:
    def _spec(self, tmp_path, graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        return str(path)

    def test_dispatch(self, tmp_path, paper_graph):
        spec = self._spec(tmp_path, paper_graph)

        async def main():
            async with open_service(max_sessions=2) as service:
                support = await handle_request(
                    service, {"id": 1, "op": "support", "graph": spec}
                )
                assert support["ok"]
                assert support["result"] == {
                    "num_edges": 5,
                    "total_support": 6,
                    "max_support": 2,
                    "histogram": {"1": 4, "2": 1},
                }
                truss = await handle_request(
                    service, {"id": 2, "op": "truss", "graph": spec}
                )
                assert truss["result"]["max_trussness"] == 3
                assert truss["result"]["histogram"] == {"3": 5}
                assert "k" not in truss["result"]
                k_truss = await handle_request(
                    service, {"id": 3, "op": "truss", "graph": spec, "k": 3}
                )
                assert k_truss["result"]["k"] == 3
                assert k_truss["result"]["k_truss_edges"] == 5
                cluster = await handle_request(
                    service, {"id": 4, "op": "cluster", "graph": spec}
                )
                assert cluster["result"]["triangles"] == 2
                assert cluster["result"]["transitivity"] == pytest.approx(0.75)
                assert cluster["result"]["average_clustering"] == pytest.approx(
                    10 / 12
                )
                pair = await handle_request(
                    service,
                    {"id": 5, "op": "common_neighbors", "graph": spec,
                     "u": 0, "v": 3},
                )
                assert pair["result"] == {"u": 0, "v": 3, "score": 2}
                probe = await handle_request(
                    service,
                    {"id": 6, "op": "common_neighbors", "graph": spec, "u": 0},
                )
                assert probe["result"] == {
                    "u": 0, "candidates": [[3, 2]], "k": 10,
                }
                for response in (support, truss, k_truss, cluster, pair, probe):
                    json.dumps(response)

        run(main())

    def test_unknown_op_enumerates_workload_ops(self):
        # The error must teach the caller the full op set, including the
        # workload ops, not just reject the request.
        async def main():
            async with open_service(max_sessions=2) as service:
                response = await handle_request(
                    service, {"id": 1, "op": "triangles?"}
                )
                assert not response["ok"]
                assert "unknown op" in response["error"]
                for op in (
                    "count", "simulate", "slice-stats", "baseline", "apply",
                    "support", "truss", "cluster", "common_neighbors",
                    "ping", "report",
                ):
                    assert f"'{op}'" in response["error"]

        run(main())

    def test_argument_validation(self, tmp_path, paper_graph):
        spec = self._spec(tmp_path, paper_graph)

        async def main():
            async with open_service(max_sessions=2) as service:
                missing_u = await handle_request(
                    service, {"id": 1, "op": "common_neighbors", "graph": spec}
                )
                assert not missing_u["ok"] and "'u' vertex" in missing_u["error"]
                bad_k = await handle_request(
                    service,
                    {"id": 2, "op": "truss", "graph": spec, "k": "three"},
                )
                assert not bad_k["ok"] and "must be an integer" in bad_k["error"]
                bool_k = await handle_request(
                    service,
                    {"id": 3, "op": "truss", "graph": spec, "k": True},
                )
                assert not bool_k["ok"] and "must be an integer" in bool_k["error"]

        run(main())

    def test_coalescing_is_keyed_per_op_and_args(self, tmp_path, paper_graph):
        spec = self._spec(tmp_path, paper_graph)

        async def main():
            async with open_service(max_sessions=2) as service:
                await service.support(spec)
                await service.support(spec)
                await service.truss(spec)
                await service.truss(spec, k=3)
                await service.cluster(spec)
                await service.common_neighbors(spec, 0, 3)
                await service.common_neighbors(spec, 0, None, 2)
                return service.report()

        report = run(main())
        by_kind = report.sessions[0].by_kind
        assert by_kind["support"] == 2
        assert by_kind["truss"] == 1
        assert by_kind["truss:3"] == 1
        assert by_kind["cluster"] == 1
        assert by_kind["common_neighbors:0:3:None"] == 1
        assert by_kind["common_neighbors:0:None:2"] == 1

    def test_concurrent_identical_workloads_coalesce(self):
        graph = generators.barabasi_albert(3000, 5, seed=3)

        async def main():
            async with open_service(max_sessions=2) as service:
                payloads = await asyncio.gather(
                    *(service.cluster(graph) for _ in range(4))
                )
                assert len({p["triangles"] for p in payloads}) == 1
                report = service.report()
                assert report.queries == 4
                assert report.coalesced >= 1

        run(main())

    def test_workloads_after_apply_reflect_mutation(self, tmp_path, paper_graph):
        spec = self._spec(tmp_path, paper_graph)

        async def main():
            async with open_service(max_sessions=2) as service:
                before = await service.support(spec)
                assert before["num_edges"] == 5
                await service.apply(spec, [("+", 0, 3)])
                after = await service.support(spec)
                assert after["num_edges"] == 6
                # K4: every edge sits in two triangles.
                assert after["histogram"] == {"2": 6}
                truss = await service.truss(spec)
                assert truss["max_trussness"] == 4

        run(main())
