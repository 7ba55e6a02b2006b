"""The pickle-ship context pool: the measured baseline of the shm plane.

Before the zero-copy :class:`~repro.core.sharding.ContextPool`, resident
coloring shards were served by this plane, kept here (out of ``src/``)
as the baseline that ``smoke_shm.py`` gates against and ``record.py``
measures:

* construction pickles the full context list into every worker through
  the :class:`ProcessPoolExecutor` initializer;
* :meth:`PicklePool.run` dispatches one ``(shard_id, use_plan)`` future
  per shard against the shipped copies;
* :meth:`PicklePool.publish` makes a delta visible the only way this
  plane can — shutting the executor down and re-shipping every context
  to a fresh one.

Results are bit-identical to serial
:func:`~repro.core.sharding.execute_contexts`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor

from repro.core.sharding import (
    ShardContext,
    ShardedOutcome,
    _context_capacity,
    _init_context_worker,
    _merge_shard_results,
    _run_resident_context,
)


class PicklePool:
    """Context pool whose workers hold pickled copies of every shard."""

    def __init__(
        self,
        contexts: list[ShardContext],
        capacity_slices: int,
        policy,
        seed: int,
        workers: int,
        batch_candidates: int | None = None,
    ) -> None:
        per_array_capacity = _context_capacity(capacity_slices, len(contexts))
        self._contexts = contexts
        self._initargs = (per_array_capacity, policy, seed, batch_candidates)
        self._max_workers = min(workers, len(contexts), os.cpu_count() or 1)
        self._lock = threading.Lock()
        self._executor = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self._max_workers,
            initializer=_init_context_worker,
            initargs=(self._contexts,) + self._initargs,
        )

    def run(self, use_plan: bool = True) -> ShardedOutcome:
        """One sweep: one ``(shard_id, use_plan)`` future per shard."""
        with self._lock:
            shard_results = list(
                self._executor.map(
                    _run_resident_context,
                    [(ctx.shard_id, use_plan) for ctx in self._contexts],
                )
            )
        return _merge_shard_results(shard_results)

    def publish(self, mutator=None) -> None:
        """Apply ``mutator`` (if any), then respawn the workers to re-ship."""
        with self._lock:
            if mutator is not None:
                mutator()
            self._executor.shutdown(wait=True)
            self._executor = self._spawn()

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "PicklePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
