"""The async serving tier: many resident sessions, one entry point.

:class:`Service` multiplexes concurrent clients over a
:class:`~repro.serve.pool.SessionPool` of resident
:class:`~repro.api.TCIMSession` objects:

* **reads** (:meth:`Service.count`, :meth:`Service.simulate`,
  :meth:`Service.slice_stats`, :meth:`Service.baseline`, and the
  workload queries :meth:`Service.support`, :meth:`Service.truss`,
  :meth:`Service.cluster`, :meth:`Service.common_neighbors`) are served
  from each session's resident caches; identical in-flight reads against
  the same session *coalesce* onto one executor job (keyed by the
  session's mutation generation — and, for argument-bearing workloads,
  per op + arguments — so a read never coalesces across an update or
  across different arguments);
* **writes** (:meth:`Service.apply`) serialise per session behind an
  ``asyncio.Lock`` — an apply stream can never interleave with another
  apply on the same graph — while applies on *different* sessions
  interleave freely;
* all CPU-bound engine work runs on a shared thread worker pool, so the
  event loop stays responsive and independent sessions' numpy kernels
  overlap.

Three serving-scale facilities are layered on top (all off by default,
so a plain ``Service()`` behaves exactly as before):

* **cross-session query fusion** (``fuse_window_ms``): instead of one
  executor job per read, compatible reads that arrive within the window
  are grouped — across *different* sessions — and executed as **one**
  gather→AND→popcount sweep over the concatenated per-session join
  plans (:func:`repro.core.kernels.execute_fused`).  Probe-style reads
  (``common_neighbors``/``common_neighbors_many``) additionally merge
  per session, so a window's worth of probes against one graph compiles
  a single batched join instead of one per request.  Every fused commit
  is fenced by the session's mutation generation: a concurrent
  ``apply`` invalidates the in-flight group for that session and its
  requests transparently re-run per-request, so fused results are
  always bit-identical to unfused serving;
* **bounded admission** (``max_queue``): at most that many requests may
  be in flight; excess requests are either rejected with
  :class:`~repro.errors.OverloadedError` (``admission="reject"``) or
  parked FIFO until a slot frees (``admission="block"``);
* **hot-graph replication** (``replicas``): the pool may hold up to N
  read replicas per entry and fan pure reads across them; writes land
  on the primary and fence the replicas by generation.

Every piece of engine work a session performs for the service — the
residency-establishing first run, post-update re-runs (priced once per
generation), and each incremental delta re-join — accumulates into the
entry's merged :class:`EventCounts`.  :meth:`Service.report` prices that
fleet through :func:`repro.arch.pipeline.measured_fleet_report`: the
aggregate throughput, per-session critical paths, and pool occupancy of
the whole serving run.

Usage::

    from repro.serve import open_service

    async def main():
        async with open_service(max_sessions=8) as service:
            count = await service.count("dataset:com-dblp@0.05")
            await service.apply("dataset:com-dblp@0.05", [("+", 0, 1)])
            print(service.report().queries_per_second)
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from repro.api import RunReport, UpdateReport
from repro.core import kernels
from repro.core.accelerator import EventCounts
from repro.core.slicing import SliceStatistics
from repro.errors import OverloadedError, ReproError
from repro.serve.pool import PoolStats, SessionEntry, SessionPool

__all__ = [
    "SessionServeStats",
    "ServiceReport",
    "Service",
    "open_service",
]


@dataclass
class _FusionRequest:
    """One read parked in the fusion window, waiting for its sweep."""

    entry: SessionEntry
    kind: str
    #: Fusion class: ``"count"`` | ``"supports"`` | ``"pairs"``.
    klass: str
    #: Op-specific payload — for ``"pairs"``: ``("pair", u, v)``,
    #: ``("cand", u, k)`` or ``("many", pairs)``.
    spec: object
    #: The per-request work fn: the fallback when the sweep is fenced.
    work: object
    future: asyncio.Future


@dataclass
class SessionServeStats:
    """Serving statistics of one (possibly evicted) resident session."""

    key: str
    queries: int
    by_kind: dict[str, int]
    ops_applied: int
    events: EventCounts
    resident_bytes: int
    #: Share of ``resident_bytes`` held by the compiled join plan — the
    #: memory the pool spends to make this session's repeat reads
    #: near-free (see docs/API.md, "Join plans").
    plan_bytes: int = 0
    #: Modelled critical path of this session's accumulated engine work.
    latency_s: float = 0.0
    #: ``TCIMSession.resident_bytes_detail()`` breakdown — slices, plan,
    #: sym_plan, edges, graph, shards (self-contained coloring shard
    #: contexts), spilled (disk-backed share) and total.  Empty for
    #: evicted entries (their residency is gone).
    resident_detail: dict = field(default_factory=dict)
    #: ``TCIMSession.shard_residency()`` — one entry per resident
    #: coloring :class:`~repro.core.sharding.ShardContext` (shard id,
    #: owned color triple, owned edges, resident bytes).  Empty unless
    #: the session shards by coloring.
    shards: list = field(default_factory=list)
    #: ``TCIMSession.patch_fallbacks`` — times each incremental patch
    #: path (flush, contexts, sym_plan) fell back to a cold rebuild.
    #: Empty for evicted entries.
    patch_fallbacks: dict = field(default_factory=dict)

    def to_mapping(self) -> dict:
        return {
            "key": self.key,
            "queries": self.queries,
            "by_kind": dict(self.by_kind),
            "ops_applied": self.ops_applied,
            "events": asdict(self.events),
            "resident_bytes": self.resident_bytes,
            "plan_bytes": self.plan_bytes,
            "latency_s": self.latency_s,
            "resident_detail": dict(self.resident_detail),
            "shards": [dict(shard) for shard in self.shards],
            "patch_fallbacks": dict(self.patch_fallbacks),
        }


@dataclass
class ServiceReport:
    """Aggregate outcome of a serving run, priced through ``arch/perf``.

    ``fleet`` is the measured fleet :class:`~repro.arch.perf.PerfReport`
    (critical path = slowest session, per-group leakage); it is ``None``
    until any session has performed engine work.
    """

    wall_clock_s: float
    queries: int
    queries_per_second: float
    #: Reads answered by an already in-flight identical computation.
    coalesced: int
    sessions: list[SessionServeStats] = field(default_factory=list)
    fleet: object | None = None  # arch.perf.PerfReport, imported lazily
    pool: PoolStats = field(default_factory=PoolStats)
    resident: int = 0
    max_sessions: int = 0
    resident_bytes: int = 0
    # --- fusion / admission / replication (PR 7) ----------------------
    #: Requests currently inside the service (admitted + parked).
    queue_depth: int = 0
    #: Requests rejected with ``OverloadedError`` (admission="reject").
    shed: int = 0
    #: Fused sweeps executed (each is one kernel launch for its group).
    fused_batches: int = 0
    #: Reads routed through the fusion scheduler.
    fused_reads: int = 0
    #: Largest request group a single fused sweep served.
    max_fused_batch: int = 0
    #: Fused commits discarded by a concurrent mutation's generation
    #: fence (those requests transparently re-ran per-request).
    fenced: int = 0
    #: Engine-work dispatches (per-request jobs + applies + fused
    #: sweeps); what :func:`~repro.arch.perf.evaluate_fleet` amortises
    #: its per-launch cost over.
    kernel_launches: int = 0
    #: Read replicas currently built across resident entries.
    replicas: int = 0

    @property
    def occupancy(self) -> float:
        """Resident sessions over capacity (1.0 = full pool)."""
        return self.resident / self.max_sessions if self.max_sessions else 0.0

    def to_mapping(self) -> dict:
        payload = {
            "wall_clock_s": self.wall_clock_s,
            "queries": self.queries,
            "queries_per_second": self.queries_per_second,
            "coalesced": self.coalesced,
            "sessions": [stats.to_mapping() for stats in self.sessions],
            "pool": asdict(self.pool),
            "resident": self.resident,
            "max_sessions": self.max_sessions,
            "occupancy": self.occupancy,
            "resident_bytes": self.resident_bytes,
            "queue_depth": self.queue_depth,
            "shed": self.shed,
            "fused_batches": self.fused_batches,
            "fused_reads": self.fused_reads,
            "max_fused_batch": self.max_fused_batch,
            "fenced": self.fenced,
            "kernel_launches": self.kernel_launches,
            "replicas": self.replicas,
        }
        if self.fleet is not None:
            payload["fleet"] = {
                "latency_s": self.fleet.latency_s,
                "array_energy_j": self.fleet.array_energy_j,
                "system_energy_j": self.fleet.system_energy_j,
                "latency_breakdown_s": dict(self.fleet.latency_breakdown_s),
            }
        return payload


class Service:
    """Async front door over a pool of resident sessions.

    Construct directly or via :func:`open_service`.  ``config`` and
    ``overrides`` set the default accelerator configuration for sessions
    the service opens; per-request configs key separate pool entries.
    ``record_journal=True`` keeps each session's applied op batches in
    execution order — the hook the differential serving tests replay.

    The service is an async context manager; :meth:`close` drains the
    worker pool and evicts every resident session.
    """

    def __init__(
        self,
        pool: SessionPool | None = None,
        *,
        max_sessions: int = 8,
        max_resident_bytes: int | None = None,
        max_workers: int | None = None,
        model=None,
        config=None,
        record_journal: bool = False,
        fuse_window_ms: float | None = None,
        max_queue: int | None = None,
        admission: str = "reject",
        replicas: int = 0,
        **overrides,
    ) -> None:
        if fuse_window_ms is not None and fuse_window_ms < 0:
            raise ReproError(
                f"fuse_window_ms must be >= 0, got {fuse_window_ms}"
            )
        if max_queue is not None and max_queue < 1:
            raise ReproError(f"max_queue must be >= 1, got {max_queue}")
        if admission not in ("reject", "block"):
            raise ReproError(
                f"admission must be 'reject' or 'block', got {admission!r}"
            )
        if replicas < 0:
            raise ReproError(f"replicas must be >= 0, got {replicas}")
        if pool is not None and (
            max_sessions != 8
            or max_resident_bytes is not None
            or config is not None
            or overrides
        ):
            # Silently dropping these would leave e.g. a "memory budget"
            # the operator believes is active but the pool never saw.
            raise ReproError(
                "pass pool configuration (max_sessions/max_resident_bytes/"
                "config/overrides) either to the SessionPool or to the "
                "Service, not both"
            )
        self._pool = pool or SessionPool(
            max_sessions,
            max_resident_bytes,
            config=config,
            model=model,
            **overrides,
        )
        self._model = model
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="tcim-serve"
        )
        self._record_journal = record_journal
        #: key -> [asyncio.Lock, active-user count]; pruned when idle.
        self._acquire_locks: dict[str, list] = {}
        self._started = time.perf_counter()
        self._queries = 0
        self._coalesced = 0
        self._closed = False
        # --- fusion scheduler ---------------------------------------
        self._fuse_window_ms = fuse_window_ms
        self._fuse_window_s = (
            None if fuse_window_ms is None else fuse_window_ms / 1000.0
        )
        self._fusion_pending: list[_FusionRequest] = []
        self._fusion_wake: asyncio.Event | None = None
        self._fusion_task: asyncio.Task | None = None
        self._fusion_groups: set = set()
        # --- admission control --------------------------------------
        self._max_queue = max_queue
        self._admission = admission
        self._admitted = 0
        self._admission_waiters: deque = deque()
        self._shed = 0
        # --- replication / counters ---------------------------------
        self._replicas = replicas
        #: Guards the counters below against fused worker threads.
        self._stats_lock = threading.Lock()
        self._fused_batches = 0
        self._fused_reads = 0
        self._max_fused_batch = 0
        self._fenced = 0
        self._launches = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "Service":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain in-flight work, shut the worker pool, evict all sessions."""
        if self._closed:
            return
        self._closed = True
        # Drain the fusion scheduler first: wake it so it flushes any
        # parked requests (their futures must resolve before the worker
        # pool they run on shuts down).
        while self._fusion_task is not None and not self._fusion_task.done():
            self._fusion_wake.set()
            await self._fusion_task
        if self._fusion_groups:
            await asyncio.gather(
                *list(self._fusion_groups), return_exceptions=True
            )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, partial(self._executor.shutdown, wait=True))
        self._pool.close()

    @property
    def pool(self) -> SessionPool:
        """The underlying session pool."""
        return self._pool

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    async def count(self, source, config=None, **overrides) -> int:
        """Exact triangle count (incrementally maintained across applies)."""
        return await self._read(
            source,
            config,
            overrides,
            "count",
            self._count_work,
            fusion=("count", None),
        )

    async def simulate(self, source, config=None, **overrides) -> RunReport:
        """Full priced run on the resident structures (cached per generation)."""
        return await self._read(
            source, config, overrides, "simulate", self._simulate_work
        )

    async def slice_stats(self, source, config=None, **overrides) -> SliceStatistics:
        """Table III/IV compression statistics of the resident structures."""
        return await self._read(
            source, config, overrides, "slice_stats", self._slice_stats_work
        )

    async def baseline(self, source, name: str, config=None, **overrides) -> int:
        """Triangle count via a registered software baseline."""
        return await self._read(
            source,
            config,
            overrides,
            f"baseline:{name}",
            partial(self._baseline_work, name=name),
        )

    async def support(self, source, config=None, **overrides) -> dict:
        """Per-edge triangle supports via the session's workload kernel.

        Returns a JSON-able mapping with the support histogram and
        totals (the full per-edge map lives in the session; clients
        wanting individual edges use ``common_neighbors``).
        """
        return await self._read(
            source,
            config,
            overrides,
            "support",
            self._support_work,
            fusion=("supports", None),
        )

    async def truss(self, source, k=None, config=None, **overrides) -> dict:
        """Truss decomposition summary (optionally the k-truss edge count).

        Coalescing is keyed per ``k``: two in-flight ``truss(k=3)``
        queries share one computation, while ``truss()`` and
        ``truss(k=3)`` run independently.
        """
        kind = "truss" if k is None else f"truss:{int(k)}"
        return await self._read(
            source,
            config,
            overrides,
            kind,
            partial(self._truss_work, k=k),
            fusion=("supports", None),
        )

    async def cluster(self, source, config=None, **overrides) -> dict:
        """Clustering metrics from the session's per-vertex tally workload."""
        return await self._read(
            source,
            config,
            overrides,
            "cluster",
            self._cluster_work,
            fusion=("supports", None),
        )

    async def common_neighbors(
        self, source, u: int, v=None, k=None, config=None, **overrides
    ) -> dict:
        """Common-neighbor scores from vertex ``u`` (pair score or top-k).

        Coalescing is keyed per ``(u, v, k)`` triple, so repeated
        identical link-prediction probes against an unchanged session
        share one kernel run.
        """
        kind = f"common_neighbors:{int(u)}:{v}:{k}"
        spec = ("pair", u, v) if v is not None else ("cand", u, k)
        return await self._read(
            source,
            config,
            overrides,
            kind,
            partial(self._common_neighbors_work, u=u, v=v, k=k),
            fusion=("pairs", spec),
        )

    async def common_neighbors_many(
        self, source, pairs, config=None, **overrides
    ) -> dict:
        """Batched common-neighbor scores for many ``(u, v)`` probes.

        The whole batch compiles one join and runs one kernel pass
        (:meth:`~repro.api.TCIMSession.common_neighbors_many`); under a
        fusion window, batches from different clients — and different
        *sessions* — additionally merge into a single fused sweep.
        Returns ``{"pairs": n, "scores": [...]}`` with scores in probe
        order.  Coalescing is keyed by a digest of the probe list.
        """
        pairs = [
            tuple(pair) if isinstance(pair, (list, tuple)) else pair
            for pair in pairs
        ]
        digest = hashlib.blake2b(
            repr(pairs).encode(), digest_size=12
        ).hexdigest()
        return await self._read(
            source,
            config,
            overrides,
            f"common_neighbors_many:{digest}",
            partial(self._cn_many_work, pairs=pairs),
            fusion=("pairs", ("many", pairs)),
        )

    async def apply(
        self, source, ops, config=None, *, record: bool = False, **overrides
    ) -> UpdateReport:
        """Apply one ordered update stream to the resident session.

        Applies to the same session run strictly one at a time, in
        arrival order at the session's write lock; applies to different
        sessions interleave across the worker pool.
        """
        ops = list(ops)
        await self._admit()
        try:
            entry = await self._checkout(source, config, overrides)
            try:
                entry.count_query("apply")
                if entry.write_lock is None:
                    entry.write_lock = asyncio.Lock()
                loop = asyncio.get_running_loop()
                async with entry.write_lock:
                    with self._stats_lock:
                        self._launches += 1
                    report = await loop.run_in_executor(
                        self._executor,
                        partial(self._apply_work, entry, ops, record),
                    )
                self._queries += 1
                return report
            finally:
                self._release(entry)
        finally:
            self._discharge()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> ServiceReport:
        """Aggregate serving report, priced through the performance model."""
        wall = time.perf_counter() - self._started
        resident_stats = [
            self._snapshot(entry, resident=True) for entry in self._pool.entries()
        ]
        retired_stats = [
            self._snapshot(entry, resident=False) for entry in self._pool.retired()
        ]
        stats = resident_stats + retired_stats
        active = [s for s in stats if any(asdict(s.events).values())]
        fleet = None
        if active:
            from repro.arch.perf import default_pim_model
            from repro.arch.pipeline import measured_fleet_report

            model = self._model or default_pim_model()
            for session_stats in active:
                session_stats.latency_s = model.evaluate(
                    session_stats.events
                ).latency_s
            # The fleet figure models the *currently resident* groups
            # operating concurrently; evicted sessions' array groups no
            # longer exist, so pricing them as co-resident would inflate
            # leakage and the critical path.  They keep their individual
            # latency_s in the sessions list.
            co_resident = [
                s for s in resident_stats if any(asdict(s.events).values())
            ]
            if co_resident:
                fleet = measured_fleet_report(
                    [s.events for s in co_resident],
                    base_model=model,
                    launches=self._launches,
                )
        with self._stats_lock:
            fused_batches = self._fused_batches
            fused_reads = self._fused_reads
            max_fused_batch = self._max_fused_batch
            fenced = self._fenced
            launches = self._launches
        return ServiceReport(
            wall_clock_s=wall,
            queries=self._queries,
            queries_per_second=self._queries / wall if wall > 0 else 0.0,
            coalesced=self._coalesced,
            sessions=stats,
            fleet=fleet,
            # Copy: the report is a snapshot, not a live view that later
            # pool activity (e.g. close()'s evictions) keeps mutating.
            pool=PoolStats(**asdict(self._pool.stats)),
            resident=self._pool.resident,
            max_sessions=self._pool.max_sessions,
            resident_bytes=self._pool.resident_bytes(),
            queue_depth=self._admitted + len(self._admission_waiters),
            shed=self._shed,
            fused_batches=fused_batches,
            fused_reads=fused_reads,
            max_fused_batch=max_fused_batch,
            fenced=fenced,
            kernel_launches=launches,
            replicas=self._pool.replica_count(),
        )

    def stats(self) -> dict:
        """Cheap live scheduler counters (the protocol's ``stats`` op).

        Unlike :meth:`report` this takes no session locks and prices
        nothing — it is safe to poll from a monitoring loop while the
        service is saturated.
        """
        with self._stats_lock:
            fused_batches = self._fused_batches
            fused_reads = self._fused_reads
            max_fused_batch = self._max_fused_batch
            fenced = self._fenced
            launches = self._launches
        return {
            "queries": self._queries,
            "coalesced": self._coalesced,
            "queue_depth": self._admitted + len(self._admission_waiters),
            "waiting": len(self._admission_waiters),
            "max_queue": self._max_queue,
            "admission": self._admission,
            "shed": self._shed,
            "fuse_window_ms": self._fuse_window_ms,
            "pending_fusion": len(self._fusion_pending),
            "fused_batches": fused_batches,
            "fused_reads": fused_reads,
            "max_fused_batch": max_fused_batch,
            "fenced": fenced,
            "kernel_launches": launches,
            "replicas": self._pool.replica_count(),
            "resident": self._pool.resident,
            # Out-of-core paging traffic (see repro.serve.pool): eviction
            # snapshots written, warm hydrations served, and the payload
            # bytes currently paged out to the spill directory.
            "snapshots_written": self._pool.stats.snapshots_written,
            "hydrations": self._pool.stats.hydrations,
            "spilled_bytes": self._pool.stats.spilled_bytes,
            # Zero-copy execution plane: bytes pooled sessions hold in
            # named shared-memory segments (backing="shm").
            "shared_bytes": self._pool.shared_bytes(),
        }

    def journal(self, source, config=None, **overrides) -> list:
        """The recorded op batches of one session key, in execution order.

        Requires ``record_journal=True``.  A key that was evicted and
        re-acquired has history on both the retired entries and the
        resident one; the returned stream concatenates them in eviction
        order, so replaying it from the base graph reproduces the
        session's current state.  (Retired entries are retained up to a
        bound — journal replay is a testing facility, not durable
        storage.)  Raises if the key has never been served.
        """
        if not self._record_journal:
            raise ReproError("journal recording is off; open the Service "
                             "with record_journal=True")
        key = self._pool.key_for(source, config, overrides)
        batches: list = []
        seen = False
        for entry in self._pool.retired() + self._pool.entries():
            if entry.key == key:
                seen = True
                batches.extend(entry.journal)
        if not seen:
            raise ReproError(f"no session for key {key!r}")
        return batches

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    async def _checkout(self, source, config, overrides) -> SessionEntry:
        if self._closed:
            raise ReproError("service is closed")
        key = self._pool.key_for(source, config, overrides)
        # Hot path: a resident hit is one short lock hold — take it
        # inline instead of paying an executor round trip per request.
        entry = self._pool.acquire_hit(key)
        if entry is not None:
            return entry
        # Serialise acquires per key so a pool miss is built exactly once
        # even when many clients hit a cold key simultaneously.  Slots
        # are refcounted and dropped when idle, so a long-running server
        # doesn't accumulate one lock per key it has ever seen.
        slot = self._acquire_locks.get(key)
        if slot is None:
            slot = self._acquire_locks[key] = [asyncio.Lock(), 0]
        slot[1] += 1
        loop = asyncio.get_running_loop()
        try:
            async with slot[0]:
                return await loop.run_in_executor(
                    self._executor,
                    partial(self._pool.acquire, source, config, **overrides),
                )
        finally:
            slot[1] -= 1
            if slot[1] == 0 and self._acquire_locks.get(key) is slot:
                del self._acquire_locks[key]

    def _release(self, entry: SessionEntry) -> None:
        """Return the lease off the event loop.

        Release can evict (closing a session, snapshotting its graph) and
        the byte-budget check sums ``resident_bytes`` under session
        locks, so it runs on the worker pool; inline only as a fallback
        while the executor is shutting down.
        """
        try:
            self._executor.submit(self._pool.release, entry)
        except RuntimeError:
            self._pool.release(entry)

    async def _read(
        self, source, config, overrides, kind: str, work, fusion=None
    ) -> object:
        await self._admit()
        try:
            entry = await self._checkout(source, config, overrides)
            try:
                entry.count_query(kind)
                loop = asyncio.get_running_loop()
                # The service-maintained generation mirror: reading the
                # real session.generation here would block the event loop
                # behind an in-flight apply's session lock.
                generation = entry.known_generation
                slot = entry.inflight.get(kind)
                if (
                    slot is not None
                    and slot[0] == generation
                    and not slot[1].done()
                ):
                    # Identical read already computing against the same
                    # resident state: join it, don't queue a duplicate.
                    self._coalesced += 1
                    future = slot[1]
                elif (
                    fusion is not None
                    and self._fuse_window_s is not None
                    and not self._closed
                    and entry.session.config.num_arrays == 1
                ):
                    future = self._enqueue_fused(entry, kind, fusion, work)
                    entry.inflight[kind] = (generation, future)
                else:
                    with self._stats_lock:
                        self._launches += 1
                    future = loop.run_in_executor(
                        self._executor, partial(work, entry)
                    )
                    entry.inflight[kind] = (generation, future)
                result = await future
                self._queries += 1
                return result
            finally:
                self._release(entry)
        finally:
            self._discharge()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    async def _admit(self) -> None:
        """Take an admission slot (or shed/park the request).

        Unbounded (``max_queue=None``) is a no-op.  ``"reject"`` raises
        :class:`OverloadedError` deterministically once ``max_queue``
        requests are in flight; ``"block"`` parks the caller on a FIFO
        queue and :meth:`_discharge` hands slots over in arrival order.
        """
        if self._max_queue is None:
            return
        if self._admitted < self._max_queue:
            self._admitted += 1
            return
        if self._admission == "reject":
            self._shed += 1
            raise OverloadedError(
                f"admission queue full: {self._admitted} requests in "
                f"flight (max_queue={self._max_queue}); retry later or "
                "serve with admission='block'"
            )
        waiter = asyncio.get_running_loop().create_future()
        self._admission_waiters.append(waiter)
        try:
            await waiter  # a finishing request hands its slot over
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                self._discharge()  # slot arrived anyway; pass it on
            else:
                try:
                    self._admission_waiters.remove(waiter)
                except ValueError:
                    pass
            raise

    def _discharge(self) -> None:
        """Return an admission slot, waking the oldest parked request."""
        if self._max_queue is None:
            return
        while self._admission_waiters:
            waiter = self._admission_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)  # slot transferred, count unchanged
                return
        self._admitted -= 1

    # ------------------------------------------------------------------
    # Cross-session query fusion
    # ------------------------------------------------------------------
    def _enqueue_fused(self, entry, kind, fusion, work) -> asyncio.Future:
        """Park one read in the fusion window; resolves via its sweep."""
        klass, spec = fusion
        future = asyncio.get_running_loop().create_future()
        self._fusion_pending.append(
            _FusionRequest(entry, kind, klass, spec, work, future)
        )
        with self._stats_lock:
            self._fused_reads += 1
        if self._fusion_task is None or self._fusion_task.done():
            if self._fusion_wake is None:
                self._fusion_wake = asyncio.Event()
            self._fusion_task = asyncio.get_running_loop().create_task(
                self._fusion_loop()
            )
        self._fusion_wake.set()
        return future

    async def _fusion_loop(self) -> None:
        """Drain the pending queue: wait, window, group, sweep.

        Requests arriving while the window sleeps join the same drain —
        that is the window.  The window is adaptive: it sleeps in
        quarter-window slices and drains as soon as a slice brings no new
        arrivals, so a burst that lands entirely in the first slice is
        not taxed the full window, while a steady trickle still
        accumulates up to the configured bound.  Each drained batch is
        grouped by (fusion class, slice width) and every group becomes
        one fused sweep on the worker pool; groups run concurrently with
        the next window.
        """
        while True:
            await self._fusion_wake.wait()
            self._fusion_wake.clear()
            if self._fuse_window_s:
                loop = asyncio.get_running_loop()
                deadline = loop.time() + self._fuse_window_s
                seen = len(self._fusion_pending)
                while True:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    await asyncio.sleep(min(remaining, self._fuse_window_s / 4))
                    arrived = len(self._fusion_pending)
                    if arrived == seen:
                        break
                    seen = arrived
            batch, self._fusion_pending = self._fusion_pending, []
            groups: dict = {}
            for request in batch:
                key = (request.klass, request.entry.session.config.slice_bits)
                groups.setdefault(key, []).append(request)
            for group in groups.values():
                task = asyncio.ensure_future(self._run_fused_group(group))
                self._fusion_groups.add(task)
                task.add_done_callback(self._fusion_groups.discard)
            if self._closed and not self._fusion_pending:
                return

    async def _run_fused_group(self, group: list) -> None:
        with self._stats_lock:
            self._max_fused_batch = max(self._max_fused_batch, len(group))
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, partial(self._fused_group_work, group)
            )
        except Exception as error:
            for request in group:
                if not request.future.done():
                    request.future.set_exception(error)
            return
        for request, outcome in zip(group, outcomes):
            if request.future.done():
                continue
            ok, value = outcome
            if ok:
                request.future.set_result(value)
            else:
                request.future.set_exception(value)

    def _fused_group_work(self, group: list) -> list:
        """Worker-thread body of one fused sweep.

        Snapshot each session's state under its lock, concatenate every
        snapshot into one :func:`~repro.core.kernels.execute_fused`
        sweep, then commit each segment back under its session's lock.
        A request whose session can't fuse (sharded, cached, fenced by a
        concurrent mutation) runs its ordinary per-request work instead
        — the results are indistinguishable either way.

        Returns ``(ok, value-or-error)`` per request, aligned with
        ``group``.
        """
        outcomes: list = [None] * len(group)
        segments: list = []
        finishers: list = []
        by_entry: dict[int, list] = {}
        order: list[SessionEntry] = []
        for index, request in enumerate(group):
            bucket = by_entry.setdefault(id(request.entry), [])
            if not bucket:
                order.append(request.entry)
            bucket.append((index, request))
        for entry in order:
            members = by_entry[id(entry)]
            klass = members[0][1].klass
            try:
                if klass == "count":
                    self._snapshot_count(
                        entry, members, segments, finishers, outcomes
                    )
                elif klass == "supports":
                    self._snapshot_supports(
                        entry, members, segments, finishers, outcomes
                    )
                else:
                    self._snapshot_pairs(
                        entry, members, segments, finishers, outcomes
                    )
            except Exception as error:
                for index, request in members:
                    if outcomes[index] is None:
                        outcomes[index] = (False, error)
        if segments:
            with self._stats_lock:
                self._fused_batches += 1
                self._launches += 1
            results = kernels.execute_fused(segments)
            for finisher, result in zip(finishers, results):
                finisher(result)
        return outcomes

    def _run_fallback(self, request: _FusionRequest, entry) -> tuple:
        try:
            return (True, request.work(entry))
        except Exception as error:
            return (False, error)

    def _note_fence(self) -> None:
        with self._stats_lock:
            self._fenced += 1

    def _merge_fused_events(self, entry, generation, events: dict) -> None:
        """Price a fused count sweep exactly as :meth:`_warm` would.

        The fused segment reproduces the planned count run field by
        field, so merging its events once per generation keeps the
        priced fleet identical to per-request serving.
        """
        with entry.stats_lock:
            entry.known_generation = max(entry.known_generation, generation)
            if generation not in entry.priced_generations:
                entry.events = entry.events.merge(EventCounts(**events))
                entry.priced_generations.add(generation)
                entry.warmed = True

    def _snapshot_count(self, entry, members, segments, finishers, outcomes):
        session = entry.session
        state, payload, generation = session.fusion_count_state()
        if state != "segment":
            # Cached (near-free) or unfusible (sharded/plan-free).
            for index, request in members:
                outcomes[index] = self._run_fallback(request, entry)
            return

        def finish(result):
            committed = session.fusion_commit_count(
                generation, result.accumulator
            )
            if committed is None:
                self._note_fence()
                outcome = None
            else:
                self._merge_fused_events(entry, generation, result.events)
                outcome = (True, committed)
            for index, request in members:
                outcomes[index] = (
                    outcome
                    if outcome is not None
                    else self._run_fallback(request, entry)
                )

        segments.append(payload)
        finishers.append(finish)

    def _snapshot_supports(self, entry, members, segments, finishers, outcomes):
        session = entry.session
        state, payload, generation = session.fusion_supports_state()
        if state != "segment":
            for index, request in members:
                outcomes[index] = self._run_fallback(request, entry)
            return

        def finish(result):
            committed = session.fusion_commit_supports(
                generation, result.value, result.events, result.cache_stats
            )
            if not committed:
                self._note_fence()
            # Either way the per-request work now completes cheaply (from
            # the committed cache) or correctly (post-mutation recompute).
            for index, request in members:
                outcomes[index] = self._run_fallback(request, entry)

        segments.append(payload)
        finishers.append(finish)

    def _snapshot_pairs(self, entry, members, segments, finishers, outcomes):
        """Merge every probe read against one session into one join.

        All of a window's ``common_neighbors``/``common_neighbors_many``
        probes for this session concatenate into a single batched join
        plan — one vectorised merge-join and one kernel segment for the
        lot, where per-request serving compiles one plan per request.
        """
        session = entry.session
        slices: list = []  # (index, request, lo, hi, meta)
        sources: list = []
        dests: list = []
        with session.lock:
            total = 0
            for index, request in members:
                spec = request.spec
                try:
                    if spec[0] == "pair":
                        us, vs = session.parse_pairs([(spec[1], spec[2])])
                        meta = ("pair", int(spec[1]), int(spec[2]))
                    elif spec[0] == "many":
                        us, vs = session.parse_pairs(spec[1])
                        meta = ("many",)
                    else:  # ("cand", u, k): rank u's two-hop candidates
                        state, payload, _gen = session.fusion_candidates_state(
                            int(spec[1])
                        )
                        if state == "cached":
                            outcomes[index] = self._run_fallback(
                                request, entry
                            )
                            continue
                        candidates = payload
                        us = np.full(
                            candidates.size, int(spec[1]), dtype=np.int64
                        )
                        vs = candidates.astype(np.int64, copy=False)
                        meta = ("cand", int(spec[1]), candidates)
                except Exception as error:
                    outcomes[index] = (False, error)
                    continue
                if us.size == 0:  # an empty common_neighbors_many batch
                    outcomes[index] = (True, {"pairs": 0, "scores": []})
                    continue
                slices.append((index, request, total, total + us.size, meta))
                sources.append(us)
                dests.append(vs)
                total += us.size
            if not total:
                return
            _state, segment, generation = session.fusion_pairs_state(
                np.concatenate(sources), np.concatenate(dests)
            )

        def finish(result):
            with session.lock:
                fresh = session.generation == generation
            if not fresh:
                self._note_fence()
            else:
                self._warm(entry)  # pricing parity with per-request reads
            scores = result.value if fresh else None
            for index, request, lo, hi, meta in slices:
                if scores is None:
                    outcomes[index] = self._run_fallback(request, entry)
                elif meta[0] == "pair":
                    outcomes[index] = (
                        True,
                        {
                            "u": meta[1],
                            "v": meta[2],
                            "score": int(scores[lo]),
                        },
                    )
                elif meta[0] == "many":
                    outcomes[index] = (
                        True,
                        {
                            "pairs": hi - lo,
                            "scores": [int(s) for s in scores[lo:hi]],
                        },
                    )
                else:
                    session.fusion_commit_candidates(
                        generation, meta[1], meta[2], scores[lo:hi]
                    )
                    # Rank + shape from the (now resident) cache via the
                    # ordinary work fn — identical payload either way.
                    outcomes[index] = self._run_fallback(request, entry)

        segments.append(segment)
        finishers.append(finish)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def _read_target(self, entry: SessionEntry):
        """The session a pure read should run on (primary or replica)."""
        if not self._replicas:
            return entry.session
        return self._pool.replica_for(entry, self._replicas)

    def _warm(self, entry: SessionEntry) -> None:
        """Establish (and price) residency: the Fig. 4 'load the sliced
        graph into the array' step, exactly once per pool entry."""
        if entry.warmed:
            return
        session = entry.session
        with session.lock:
            result = session.run()
            generation = session.generation
        with entry.stats_lock:
            entry.known_generation = max(entry.known_generation, generation)
            if not entry.warmed:
                entry.events = entry.events.merge(result.events)
                entry.priced_generations.add(generation)
                entry.warmed = True

    def _price_run(self, entry: SessionEntry) -> None:
        """Merge the current generation's full-run events, at most once."""
        session = entry.session
        with session.lock:
            result = session.run()
            generation = session.generation
        with entry.stats_lock:
            entry.known_generation = max(entry.known_generation, generation)
            if generation not in entry.priced_generations:
                entry.events = entry.events.merge(result.events)
                entry.priced_generations.add(generation)

    def _count_work(self, entry: SessionEntry) -> int:
        self._warm(entry)
        return self._read_target(entry).count()

    def _simulate_work(self, entry: SessionEntry) -> RunReport:
        self._warm(entry)
        report = entry.session.simulate()
        self._price_run(entry)
        return report

    def _slice_stats_work(self, entry: SessionEntry) -> SliceStatistics:
        self._warm(entry)
        return entry.session.slice_stats()

    def _baseline_work(self, entry: SessionEntry, name: str) -> int:
        self._warm(entry)
        return entry.session.baseline(name)

    def _support_work(self, entry: SessionEntry) -> dict:
        self._warm(entry)
        support = self._read_target(entry).support()
        histogram: dict[str, int] = {}
        for value in support.values():
            key = str(value)
            histogram[key] = histogram.get(key, 0) + 1
        return {
            "num_edges": len(support),
            "total_support": sum(support.values()),
            "max_support": max(support.values(), default=0),
            "histogram": histogram,
        }

    def _truss_work(self, entry: SessionEntry, k) -> dict:
        self._warm(entry)
        session = self._read_target(entry)
        trussness = session.truss()
        histogram: dict[str, int] = {}
        for value in trussness.values():
            key = str(value)
            histogram[key] = histogram.get(key, 0) + 1
        payload = {
            "num_edges": len(trussness),
            "max_trussness": max(trussness.values(), default=0),
            "histogram": histogram,
        }
        if k is not None:
            payload["k"] = int(k)
            payload["k_truss_edges"] = session.truss(int(k)).num_edges
        return payload

    def _cluster_work(self, entry: SessionEntry) -> dict:
        self._warm(entry)
        return self._read_target(entry).clustering().to_mapping()

    def _common_neighbors_work(self, entry: SessionEntry, u, v, k) -> dict:
        self._warm(entry)
        session = self._read_target(entry)
        if v is not None:
            return {
                "u": int(u),
                "v": int(v),
                "score": session.common_neighbors(int(u), int(v)),
            }
        candidates = session.common_neighbors(
            int(u), k=None if k is None else int(k)
        )
        payload = {
            "u": int(u),
            "candidates": [[int(vertex), int(score)] for vertex, score in candidates],
        }
        if k is not None:
            payload["k"] = int(k)
        return payload

    def _cn_many_work(self, entry: SessionEntry, pairs) -> dict:
        self._warm(entry)
        scores = self._read_target(entry).common_neighbors_many(pairs)
        return {"pairs": len(scores), "scores": [int(s) for s in scores]}

    def _apply_work(self, entry: SessionEntry, ops, record: bool) -> UpdateReport:
        self._warm(entry)
        session = entry.session
        try:
            report = session.apply(ops, record=record)
        except Exception as error:
            # A mid-stream failure still committed every earlier segment
            # (the failing one rolled back): fold the partial accounting
            # the session attaches into this entry so the priced events
            # and the journal keep matching the session's real state.
            partial = getattr(error, "partial_update", None)
            applied = getattr(error, "applied_operations", None)
            with entry.stats_lock:
                entry.known_generation = max(
                    entry.known_generation, session.generation
                )
                if partial is not None:
                    entry.events = entry.events.merge(partial.events)
                    entry.ops_applied += partial.inserted + partial.deleted
                if self._record_journal and applied:
                    entry.journal.append(list(applied))
            raise
        with entry.stats_lock:
            entry.known_generation = max(
                entry.known_generation, session.generation
            )
            entry.events = entry.events.merge(report.events)
            # Effective ops (edges actually changed), matching the unit
            # the partial-failure path can account in.
            entry.ops_applied += report.inserted + report.deleted
            if self._record_journal:
                entry.journal.append(list(ops))
        return report

    def _snapshot(self, entry: SessionEntry, resident: bool) -> SessionServeStats:
        with entry.stats_lock:
            return SessionServeStats(
                key=entry.key,
                queries=entry.total_queries,
                by_kind=dict(entry.queries),
                ops_applied=entry.ops_applied,
                events=entry.events,
                resident_bytes=entry.session.resident_bytes() if resident else 0,
                plan_bytes=entry.session.plan_resident_bytes() if resident else 0,
                resident_detail=(
                    entry.session.resident_bytes_detail() if resident else {}
                ),
                shards=entry.session.shard_residency() if resident else [],
                patch_fallbacks=(
                    entry.session.patch_fallbacks if resident else {}
                ),
            )


def open_service(
    pool: SessionPool | None = None,
    *,
    max_sessions: int = 8,
    max_resident_bytes: int | None = None,
    max_workers: int | None = None,
    model=None,
    config=None,
    record_journal: bool = False,
    fuse_window_ms: float | None = None,
    max_queue: int | None = None,
    admission: str = "reject",
    replicas: int = 0,
    **overrides,
) -> Service:
    """Open a :class:`Service` (the serving counterpart of ``open_session``).

    Returns the service directly; use ``async with`` for scoped cleanup::

        async with open_service(max_sessions=16, num_arrays=4) as service:
            print(await service.count("dataset:com-dblp@0.05"))
    """
    return Service(
        pool,
        max_sessions=max_sessions,
        max_resident_bytes=max_resident_bytes,
        max_workers=max_workers,
        model=model,
        config=config,
        record_journal=record_journal,
        fuse_window_ms=fuse_window_ms,
        max_queue=max_queue,
        admission=admission,
        replicas=replicas,
        **overrides,
    )
