"""Resident-session pool: the serving tier's memory manager.

The paper's controller (Fig. 4) keeps *one* sliced graph resident in the
MRAM array.  A serving deployment holds many: each
:class:`~repro.api.TCIMSession` pins its compressed structures (oriented
edges, slice matrices, shard plan) in memory, and the array budget only
fits so many of them.  :class:`SessionPool` manages that budget the way
the controller's row-buffer manages slices — least-recently-used
residents are evicted when the pool exceeds its session-count or byte
budget, and re-opening an evicted graph rebuilds its residency from
scratch (which is exactly the cost the pool exists to amortise; the
serving benchmark's serial baseline measures it).

Entries are keyed by ``(graph source, effective AcceleratorConfig)``:
two requests naming the same spec and config share one resident session,
while the same graph under a different slice width or shard layout gets its
own.  Entries are reference-counted; an entry leased by an in-flight
request is never evicted, so the pool may transiently exceed its budget
under load and trims back as leases are returned.

Evicting a *mutated* session (one that applied updates) writes its
current graph back into the pool: the next acquire of that key resumes
from the updated state rather than the original source, so eviction
never silently discards applied edges.  Write-back snapshots are plain
edge arrays — far smaller than the residency they replace — and remain
the key's state of record until a newer eviction overwrites them or the
pool is closed; :meth:`SessionPool.writeback_bytes` reports their
footprint, which sits outside the eviction budget (snapshots are what
makes eviction safe, so they cannot themselves be evicted).

When a session's config names a ``storage_dir``, eviction additionally
pages the *whole residency* out: a :mod:`repro.storage.snapshot` of the
slice structures, oriented edges and compiled plans is persisted under
``<storage_dir>/pool/<key-hash>``, and the next acquire of that key
hydrates it warm — no re-slice, no plan recompile (the in-memory graph
write-back stays as the fallback if the snapshot cannot be read back).
:class:`PoolStats` counts the paging traffic: ``snapshots_written``,
``hydrations``, and ``spilled_bytes`` (payload bytes currently paged
out to pool snapshots).

The pool is thread-safe for its bookkeeping, but session *creation* for
one key is not deduplicated here — :class:`repro.serve.Service`
serialises acquires per key on the event loop, which is the supported
concurrent front door.
"""

from __future__ import annotations

import hashlib
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import TCIMSession, open_session
from repro.core.accelerator import AcceleratorConfig, EventCounts
from repro.errors import ReproError, StorageError
from repro.graph.graph import Graph
from repro.storage.snapshot import snapshot_nbytes

__all__ = ["PoolStats", "SessionEntry", "SessionPool"]

#: Retired (evicted) entries kept for the service report, oldest dropped.
MAX_RETIRED = 64


@dataclass
class PoolStats:
    """Pool traffic counters (monotone over the pool's lifetime,
    except ``spilled_bytes`` which is a gauge)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    peak_resident: int = 0
    #: Read replicas built for hot entries / discarded by write fences.
    replicas_built: int = 0
    replicas_retired: int = 0
    #: Eviction snapshots persisted to the spill directory.
    snapshots_written: int = 0
    #: Acquires served warm from an eviction snapshot (no re-slice,
    #: no plan recompile).
    hydrations: int = 0
    #: Payload bytes currently paged out to pool eviction snapshots.
    spilled_bytes: int = 0
    #: Gauge: bytes the pooled sessions currently hold in named
    #: shared-memory segments (the zero-copy ``backing="shm"`` plane).
    shared_bytes: int = 0


@dataclass
class SessionEntry:
    """One resident session plus its serving-side accounting.

    The pool maintains ``refs`` (leases) and LRU position; the serving
    tier fills in the per-session statistics — query counters, merged
    engine :class:`EventCounts` (what :func:`~repro.arch.pipeline.measured_fleet_report`
    prices), the op journal, and its coalescing state.
    """

    key: str
    session: TCIMSession
    #: The original source object, pinned so a Graph-keyed entry's id()
    #: stays unique for the entry's lifetime.
    source: object
    refs: int = 0
    # --- serving accounting (maintained by repro.serve.Service) -------
    queries: dict[str, int] = field(default_factory=dict)
    #: Edges actually inserted + deleted (effective ops, not requested).
    ops_applied: int = 0
    events: EventCounts = field(default_factory=EventCounts)
    #: Generations whose full-run events have been merged already.
    priced_generations: set[int] = field(default_factory=set)
    #: Service-side mirror of ``session.generation``, updated by worker
    #: threads after each operation so the event loop can key its read
    #: coalescing without touching the session's (blocking) lock.
    known_generation: int = 0
    #: Whether the residency-establishing first run has been priced.
    warmed: bool = False
    #: Applied op batches in execution order (``Service(record_journal=True)``).
    journal: list = field(default_factory=list)
    #: Serialises writers per session (created lazily by the service).
    write_lock: object | None = None
    #: kind -> (generation, in-flight future) for read coalescing.
    inflight: dict = field(default_factory=dict)
    #: Last known ``session.resident_bytes()``, refreshed on release (and
    #: by the service's workers) so the pool's budget check can sum plain
    #: ints under its lock instead of taking every session's lock.
    cached_bytes: int = 0
    #: Read replicas of a hot entry: ``(session, generation-at-build)``.
    #: Reads fan across ``[primary, *replicas]`` round-robin; a committed
    #: write bumps the primary's generation, which fences every replica
    #: built before it (they are pruned, never served stale).
    replicas: list = field(default_factory=list)
    #: Round-robin cursor over the read fan-out (monotone).
    replica_cursor: int = 0
    #: Guards the accounting fields against concurrent worker threads.
    stats_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def total_queries(self) -> int:
        return sum(self.queries.values())

    def count_query(self, kind: str) -> None:
        with self.stats_lock:
            self.queries[kind] = self.queries.get(kind, 0) + 1


class SessionPool:
    """LRU pool of resident :class:`TCIMSession` objects.

    ``max_sessions`` bounds how many graphs stay resident;
    ``max_resident_bytes`` additionally bounds their combined
    :meth:`TCIMSession.resident_bytes` estimate (``None`` = unbounded).
    ``config``/``overrides`` set the default accelerator configuration
    for sessions the pool opens; per-acquire configs override it and key
    separate entries.
    """

    def __init__(
        self,
        max_sessions: int = 8,
        max_resident_bytes: int | None = None,
        *,
        config: AcceleratorConfig | None = None,
        model=None,
        **overrides,
    ) -> None:
        if max_sessions < 1:
            raise ReproError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_resident_bytes is not None and max_resident_bytes <= 0:
            raise ReproError(
                f"max_resident_bytes must be positive, got {max_resident_bytes}"
            )
        self.max_sessions = max_sessions
        self.max_resident_bytes = max_resident_bytes
        self._default_config = config
        self._default_overrides = overrides
        self._model = model
        self._entries: OrderedDict[str, SessionEntry] = OrderedDict()
        self._retired: list[SessionEntry] = []
        #: key -> (pinned source, Graph snapshot) of a mutated session
        #: evicted before its updates could be re-derived from the source
        #: (write-back).  Pinning the source object keeps a Graph-keyed
        #: entry's ``id()`` taken for as long as its snapshot is live, so
        #: a recycled address can never resolve to a stale snapshot.
        self._writeback: dict[str, tuple[object, Graph]] = {}
        #: key -> (pinned source, snapshot directory, payload bytes) of a
        #: session paged out to disk on eviction (configs that name a
        #: ``storage_dir``).  Re-admission hydrates from here — warm
        #: slices and plans — before falling back to ``_writeback`` or
        #: the original source.
        self._snapshots: dict[str, tuple[object, Path, int]] = {}
        #: (config, sorted overrides) -> rendered config token.  Key
        #: derivation sits on every request's hot path, and the default
        #: case re-renders the same token every time.
        self._config_tokens: dict = {}
        self._lock = threading.Lock()
        self._closing = False
        self.stats = PoolStats()

    # ------------------------------------------------------------------
    # Keys and configuration
    # ------------------------------------------------------------------
    def effective_config(self, config=None, overrides=None) -> AcceleratorConfig:
        """Resolve the :class:`AcceleratorConfig` one acquire would use."""
        merged = dict(self._default_overrides)
        merged.update(overrides or {})
        if config is None:
            config = self._default_config
        if isinstance(config, AcceleratorConfig):
            if merged:
                return AcceleratorConfig.from_mapping(config.to_mapping(), **merged)
            return config
        return AcceleratorConfig.from_mapping(config, **merged)

    def key_for(self, source, config=None, overrides=None) -> str:
        """Stable entry key: the graph source plus the effective config."""
        if isinstance(source, Graph):
            token = f"graph@{id(source):#x}"
        elif isinstance(source, str):
            token = source
        else:
            raise ReproError(
                f"graph source must be a Graph or a spec string, "
                f"got {type(source).__name__}"
            )
        return f"{token}|{self._config_token(config, overrides)}"

    def _config_token(self, config, overrides) -> str:
        """Rendered effective-config string, memoised per (config, overrides).

        ``AcceleratorConfig`` is a frozen dataclass, so the common inputs
        (``None`` or a shared config object, few or no overrides) are
        hashable and the render happens once; unhashable inputs (mapping
        configs, exotic override values) just skip the cache.
        """
        try:
            cache_key = (config, tuple(sorted(overrides.items())) if overrides else ())
            cached = self._config_tokens.get(cache_key)
        except TypeError:
            cache_key = None
            cached = None
        if cached is not None:
            return cached
        mapping = self.effective_config(config, overrides).to_mapping()
        rendered = ",".join(f"{k}={mapping[k]}" for k in sorted(mapping))
        if cache_key is not None and len(self._config_tokens) < 1024:
            self._config_tokens[cache_key] = rendered
        return rendered

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def acquire(self, source, config=None, **overrides) -> SessionEntry:
        """Lease the resident session for ``(source, config)``.

        A hit refreshes the entry's LRU position; a miss opens a new
        session (building residency lazily on first query) and may evict
        idle least-recently-used entries over budget.  Pair every
        acquire with :meth:`release`.
        """
        key = self.key_for(source, config, overrides)
        entry = self.acquire_hit(key)
        if entry is not None:
            return entry
        # Session creation happens outside the pool lock: it can be
        # expensive (spec resolution, graph synthesis) and must not
        # stall hits on other keys.  The Service serialises acquires
        # per key, so concurrent duplicate creation cannot happen
        # through the supported front door.  State-of-record precedence
        # for a previously evicted key: an on-disk eviction snapshot
        # hydrates warm (slices + plans, no rebuild); failing that, the
        # in-memory graph write-back (the final graph of a mutated
        # session) resumes from the updated state; failing both, the
        # source is re-resolved cold.  Snapshots stay in place — each is
        # its key's state of record until a newer eviction overwrites
        # it, covering sessions evicted again without further updates.
        effective = self.effective_config(config, overrides)
        with self._lock:
            paged = self._snapshots.get(key)
            written_back = self._writeback.get(key)
        session = None
        if paged is not None:
            try:
                session = open_session(
                    config=effective, model=self._model, snapshot=paged[1]
                )
            except StorageError:
                session = None  # unreadable page: fall back below
        hydrated = session is not None
        if session is None:
            graph = written_back[1] if written_back is not None else None
            session = open_session(
                graph if graph is not None else source,
                effective,
                model=self._model,
            )
        entry = SessionEntry(key=key, session=session, source=source, refs=1)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # Lost a (direct-use) race; lease the resident entry and
                # drop the duplicate session before it builds anything.
                self._entries.move_to_end(key)
                existing.refs += 1
                self.stats.hits += 1
                session.close()
                return existing
            self._entries[key] = entry
            self.stats.misses += 1
            if hydrated:
                self.stats.hydrations += 1
            self.stats.peak_resident = max(self.stats.peak_resident, len(self._entries))
            self._evict_over_budget_locked()
            return entry

    def acquire_hit(self, key: str) -> SessionEntry | None:
        """Lease the resident entry for ``key`` if present, else ``None``.

        The cheap half of :meth:`acquire` — one short lock hold, no
        session construction — so callers on a latency-sensitive path
        (the serving tier's per-request checkout) can take a hit inline
        and only pay a worker-pool hop for the build-a-session miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.refs += 1
                self.stats.hits += 1
            return entry

    def release(self, entry: SessionEntry) -> None:
        """Return a lease; evicts over-budget idle entries.

        Refreshes the entry's byte estimate first, outside the pool lock
        — sizing takes the session's lock, and holding both would stall
        unrelated pool traffic behind one session's long engine run.
        """
        if self.max_resident_bytes is not None:
            entry.cached_bytes = entry.session.resident_bytes()
        with self._lock:
            entry.refs = max(0, entry.refs - 1)
            self._evict_over_budget_locked()

    # ------------------------------------------------------------------
    # Hot-graph read replicas
    # ------------------------------------------------------------------
    def replica_for(self, entry: SessionEntry, limit: int) -> TCIMSession:
        """A read target for one pure-read query: primary or replica.

        Fans reads round-robin across the primary and up to ``limit``
        replicas, building replicas lazily from a generation-stamped
        snapshot of the primary's graph.  Replicas whose build generation
        trails the primary's are stale — a write landed — and are pruned
        here rather than served; readers fall back to the primary until a
        current replica is rebuilt.  Callers must hold a lease on
        ``entry`` (which they do: this runs inside served requests), so
        the entry cannot retire mid-call.
        """
        if limit < 1:
            return entry.session
        primary = entry.session
        with primary.lock:
            generation = primary.generation
        with entry.stats_lock:
            stale = [r for r in entry.replicas if r[1] != generation]
            if stale:
                entry.replicas = [
                    r for r in entry.replicas if r[1] == generation
                ]
            cursor = entry.replica_cursor
            entry.replica_cursor += 1
            slot = cursor % (limit + 1)
            if 0 < slot <= len(entry.replicas):
                target = entry.replicas[slot - 1][0]
            else:
                target = None
        for session, _ in stale:
            session.close()
        if stale:
            with self._lock:
                self.stats.replicas_retired += len(stale)
        if target is not None:
            return target
        if slot == 0:
            return primary
        # Build one replica outside all locks; snapshot the graph and its
        # generation atomically so the replica is stamped consistently.
        with primary.lock:
            graph = primary.graph
            build_generation = primary.generation
        if build_generation != generation:
            return primary  # a write landed mid-build; don't chase it
        replica = open_session(graph, primary.config, model=self._model)
        with entry.stats_lock:
            if (
                entry.known_generation == build_generation
                and len(entry.replicas) < limit
            ):
                entry.replicas.append((replica, build_generation))
                installed = True
            else:
                installed = False
        if not installed:
            replica.close()
            return primary
        with self._lock:
            self.stats.replicas_built += 1
        return replica

    def replica_count(self) -> int:
        """Currently-built replicas across all resident entries."""
        total = 0
        for entry in self.entries():
            with entry.stats_lock:
                total += len(entry.replicas)
        return total

    # ------------------------------------------------------------------
    # Budget and eviction
    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Combined resident-structure estimate of every pooled session."""
        with self._lock:
            entries = list(self._entries.values())
        return sum(entry.session.resident_bytes() for entry in entries)

    def shared_bytes(self) -> int:
        """Combined shm-segment bytes of every pooled session.

        Refreshes the :attr:`PoolStats.shared_bytes` gauge as a side
        effect; 0 unless sessions run ``backing="shm"``.
        """
        with self._lock:
            entries = list(self._entries.values())
        total = sum(
            entry.session.resident_bytes_detail().get("shared", 0)
            for entry in entries
        )
        self.stats.shared_bytes = total
        return total

    def _over_budget_locked(self) -> bool:
        if len(self._entries) > self.max_sessions:
            return True
        if self.max_resident_bytes is None:
            return False
        # Cached estimates only: never touch session locks in here.
        return (
            sum(e.cached_bytes for e in self._entries.values())
            > self.max_resident_bytes
        )

    def _evict_over_budget_locked(self) -> None:
        while self._over_budget_locked():
            victim_key = next(
                (k for k, e in self._entries.items() if e.refs == 0), None
            )
            if victim_key is None:
                return  # everything is leased; trim on a later release
            self._retire_locked(victim_key)

    def _retire_locked(self, key: str) -> None:
        entry = self._entries.pop(key)
        with entry.stats_lock:
            replicas, entry.replicas = entry.replicas, []
        for session, _ in replicas:
            session.close()
        self.stats.replicas_retired += len(replicas)
        if entry.session.generation > 0:
            # The session was mutated since it was opened: write its
            # current graph back so a later acquire resumes from the
            # updated state instead of the original source.
            self._writeback[key] = (entry.source, entry.session.graph)
        self._page_out_locked(key, entry)
        entry.session.close()
        self.stats.evictions += 1
        self._retired.append(entry)
        del self._retired[:-MAX_RETIRED]

    def _page_out_locked(self, key: str, entry: SessionEntry) -> None:
        """Persist an eviction snapshot when the config spills to disk.

        Best-effort: a failed write leaves the graph write-back (or the
        original source) as the key's state of record, so paging can
        never make eviction less safe than it was without it.
        """
        storage_dir = entry.session.config.storage_dir
        if storage_dir is None or self._closing:
            return
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
        target = Path(storage_dir) / "pool" / digest
        try:
            entry.session.snapshot(target, ensure=False)
            nbytes = snapshot_nbytes(target)
        except StorageError:
            shutil.rmtree(target, ignore_errors=True)
            self._snapshots.pop(key, None)
        else:
            self._snapshots[key] = (entry.source, target, nbytes)
            self.stats.snapshots_written += 1
        self.stats.spilled_bytes = sum(
            nbytes for _, _, nbytes in self._snapshots.values()
        )

    def evict(self, source, config=None, **overrides) -> bool:
        """Explicitly evict one idle entry; returns whether it was resident."""
        key = self.key_for(source, config, overrides)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.refs > 0:
                return False
            self._retire_locked(key)
            return True

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def resident(self) -> int:
        """Number of currently resident sessions."""
        with self._lock:
            return len(self._entries)

    def entries(self) -> list[SessionEntry]:
        """Snapshot of the resident entries, LRU-oldest first."""
        with self._lock:
            return list(self._entries.values())

    def retired(self) -> list[SessionEntry]:
        """Evicted entries retained for reporting (bounded, oldest first)."""
        with self._lock:
            return list(self._retired)

    def writeback_bytes(self) -> int:
        """Edge storage pinned by write-back snapshots (not evictable)."""
        with self._lock:
            return sum(
                graph.edge_array().nbytes
                for _, graph in self._writeback.values()
            )

    def close(self) -> None:
        """Tear the pool down: evict everything and drop write-back state.

        Terminal — unlike budget eviction, close discards the write-back
        state and deletes on-disk eviction snapshots too, so a closed
        pool's keys resolve from their original sources again.
        """
        with self._lock:
            self._closing = True
            for key in list(self._entries):
                self._retire_locked(key)
            self._writeback.clear()
            for _, target, _ in self._snapshots.values():
                shutil.rmtree(target, ignore_errors=True)
            self._snapshots.clear()
            self.stats.spilled_bytes = 0
