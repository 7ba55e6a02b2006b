"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the id of the harness
operation that caused it.  The current span lives in a context variable,
so the two client coroutines of ``serve-mix`` each keep their own stack.
Spans are written out once, when the run ends.

:func:`instrument` wraps public functions of the program (slice build,
plan compile and patch, shard-context build, the ``ContextPool`` fence
and sweep) so that calls the program makes internally are recorded as
child spans too.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import contextvars
import functools
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_current = contextvars.ContextVar("perfbench_span", default=(-1, None))


class Tracer:
    """Records spans when ``active``; otherwise every span is a no-op."""

    def __init__(self, active: bool) -> None:
        self.active = active
        self.spans: list[list] = []
        #: Layer gauges and exact counts observed while tracing.
        self.gauges: dict[str, float] = {}

    def span(self, name: str, op: int | None = None):
        if not self.active:
            return nullcontext()
        return self._span(name, op)

    @contextmanager
    def _span(self, name: str, op: int | None):
        parent, parent_op = _current.get()
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, parent_op if op is None else op]
        self.spans.append(record)
        token = _current.set((index, record[4]))
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            _current.reset(token)

    def has(self, name: str) -> bool:
        return any(span[0] == name for span in self.spans)

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus what its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        result: dict[str, list[float]] = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, cursor)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.setdefault(name, []).append(end - start - covered)
        return result

    def median_self(self) -> dict[str, float]:
        return {
            name: statistics.median(values)
            for name, values in self.self_times().items()
        }

    def total_self(self) -> dict[str, float]:
        return {name: sum(values) for name, values in self.self_times().items()}

    def dump(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "summary": summary,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [name, start - origin, end - origin, parent, op]
                for name, start, end, parent, op in self.spans
            ],
        }
        path.write_text(json.dumps(payload))


def _wrap(tracer: Tracer | None, name: str, function, after=None):
    """``function`` inside a span (none if ``tracer`` is None), then ``after``."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name) if tracer is not None else nullcontext():
            result = function(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, pools: list, segments: list):
    """Patch the program's public layer functions for the life of the block.

    Traced or not, every ``ContextPool`` constructed inside the block is
    appended to ``pools`` and the name of every shared-memory segment a
    ``BackingStore`` creates to ``segments``, so the harness can check
    that none of them outlives the run.
    """
    from repro.core import plan, sharding
    from repro.core.slicing import SlicedMatrix
    from repro.storage.backing import BackingStore

    def note_balance(_args, contexts):
        tracer.gauges["core.sharding.balance"] = sharding.context_balance(contexts)

    def note_pool(args, _result):
        pools.append(args[0])

    def note_segment(args, array):
        name = args[0].segment_of(array)
        if name is not None:
            segments.append(name)

    patches = [
        (sharding.ContextPool, "__init__", _wrap(
            tracer, "core.sharding.pool_attach",
            sharding.ContextPool.__init__, note_pool,
        )),
        (BackingStore, "empty", _wrap(None, "", BackingStore.empty, note_segment)),
    ]
    if tracer.active:
        patches += [
            (SlicedMatrix, "from_graph", classmethod(_wrap(
                tracer, "core.slicing.build", SlicedMatrix.from_graph.__func__
            ))),
            (plan, "build_join_plan", _wrap(
                tracer, "core.plan.compile", plan.build_join_plan
            )),
            (plan, "patch_join_plan", _wrap(
                tracer, "core.plan.patch", plan.patch_join_plan
            )),
            (sharding, "build_shard_contexts", _wrap(
                tracer, "core.sharding.context_build",
                sharding.build_shard_contexts, note_balance,
            )),
            (sharding.ContextPool, "run", _wrap(
                tracer, "core.sharding.pool_run", sharding.ContextPool.run
            )),
            (sharding.ContextPool, "publish", _wrap(
                tracer, "core.sharding.publish", sharding.ContextPool.publish
            )),
        ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
