"""Golden per-shard fixture for the position partitioners.

``tests/golden/position_shards.json`` pins, for ``edges``/``rows``/
``degree`` x {1, 3, 8, more arrays than oriented edges} x
upper/symmetric x plan on/off:

* every :class:`~repro.core.sharding.ShardResult` field of every shard;
* the merged :class:`~repro.core.accelerator.EventCounts` and cache
  statistics, the run's row region and column cache, and ``notes``;
* the modelled ``latency_s`` of :meth:`TCIMSession.simulate`.

The fixture is asserted bit for bit with ``workers`` 0 and 2, so the
serial and process-pool paths of the shard executor must both reproduce
it.  Regenerate it (only when the dataflow or the model is meant to
change) with::

    PYTHONPATH=src python tests/test_position_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.api import TCIMSession
from repro.core.accelerator import AcceleratorConfig
from repro.core.sharding import POSITION_PARTITIONERS
from repro.graph import generators

FIXTURE = Path(__file__).parent / "golden" / "position_shards.json"

#: Column order of one shard record in the fixture.
SHARD_FIELDS = (
    "shard_id",
    "edges",
    "rows",
    "accumulator",
    "row_region_slices",
    "column_cache_slices",
)


def _graph():
    return generators.powerlaw_cluster(24, 2, 0.7, seed=5)


def _cases():
    """``(key, config kwargs)`` for every pinned configuration."""
    graph = _graph()
    for orientation in ("upper", "symmetric"):
        oriented = graph.num_edges * (1 if orientation == "upper" else 2)
        for num_arrays in (1, 3, 8, oriented + 2):
            for shard_by in POSITION_PARTITIONERS:
                for use_plan in (True, False):
                    key = (
                        f"{orientation}/{num_arrays}/{shard_by}/"
                        f"{'plan' if use_plan else 'noplan'}"
                    )
                    yield key, dict(
                        orientation=orientation,
                        num_arrays=num_arrays,
                        shard_by=shard_by,
                        use_plan=use_plan,
                    )


def _flat(counts) -> list[int]:
    return list(dataclasses.astuple(counts))


def capture(workers: int = 0) -> dict:
    """Run every pinned configuration and record what the fixture holds."""
    graph = _graph()
    records = {}
    for key, kwargs in _cases():
        config = AcceleratorConfig(workers=workers, **kwargs)
        with TCIMSession(graph, config) as session:
            report = session.simulate()
        result = report.result
        records[key] = {
            "triangles": result.triangles,
            "events": _flat(result.events),
            "cache_stats": _flat(result.cache_stats),
            "row_region_slices": result.row_region_slices,
            "column_cache_slices": result.column_cache_slices,
            "notes": result.notes,
            "latency_s": report.perf.latency_s,
            "shards": [
                [getattr(shard, name) for name in SHARD_FIELDS]
                + _flat(shard.events)
                + _flat(shard.cache_stats)
                for shard in result.shards
            ],
        }
    return {"shard_fields": list(SHARD_FIELDS), "records": records}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("workers", [0, 2])
def test_position_shards_match_golden(golden, workers):
    observed = json.loads(json.dumps(capture(workers)))
    assert observed["shard_fields"] == golden["shard_fields"]
    assert sorted(observed["records"]) == sorted(golden["records"])
    for key, expected in golden["records"].items():
        assert observed["records"][key] == expected, key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(capture(), separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
