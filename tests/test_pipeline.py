"""Tests for the bank-parallelism performance model."""

from __future__ import annotations

import pytest

from repro.errors import ArchitectureError
from repro.arch.perf import default_pim_model
from repro.arch.pipeline import ParallelConfig, ParallelPimModel
from repro.core.accelerator import EventCounts, TCIMAccelerator
from repro.graph import generators


def _events() -> EventCounts:
    events = EventCounts()
    events.and_operations = 1_000_000
    events.bitcount_operations = 1_000_000
    events.row_slice_writes = 50_000
    events.col_slice_writes = 150_000
    events.col_slice_hits = 600_000
    events.index_lookups = 400_000
    events.edges_processed = 400_000
    events.dense_pair_operations = 10_000_000
    return events


class TestConfig:
    def test_validation(self):
        with pytest.raises(ArchitectureError):
            ParallelConfig(compute_units=0)
        with pytest.raises(ArchitectureError):
            ParallelConfig(write_ports=0)

    def test_default_matches_serial_baseline(self):
        base = default_pim_model()
        parallel = ParallelPimModel(base, ParallelConfig())
        events = _events()
        assert parallel.evaluate(events).latency_s == pytest.approx(
            base.evaluate(events).latency_s
        )


class TestScaling:
    @pytest.fixture(scope="class")
    def base(self):
        return default_pim_model()

    def test_more_units_never_slower(self, base):
        events = _events()
        latencies = [
            ParallelPimModel(base, ParallelConfig(compute_units=units))
            .evaluate(events)
            .latency_s
            for units in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b for a, b in zip(latencies, latencies[1:]))

    def test_amdahl_saturation(self, base):
        """Control overhead is serial: speedup must saturate below the
        ideal linear scaling."""
        events = _events()
        model = ParallelPimModel(base, ParallelConfig(compute_units=1024))
        speedup = model.speedup_over_serial(events)
        serial = base.evaluate(events)
        control = serial.latency_breakdown_s["control"]
        ideal_bound = serial.latency_s / control
        assert 1.0 < speedup < ideal_bound

    def test_write_overlap_helps(self, base):
        events = _events()
        no_overlap = ParallelPimModel(
            base, ParallelConfig(compute_units=4, write_ports=4)
        )
        overlap = ParallelPimModel(
            base,
            ParallelConfig(compute_units=4, write_ports=4, overlap_write_with_compute=True),
        )
        assert overlap.evaluate(events).latency_s < no_overlap.evaluate(events).latency_s

    def test_dynamic_energy_invariant_under_parallelism(self, base):
        """Parallelism shortens time but does the same operations: only
        the time-proportional terms (leakage, host) may change."""
        events = _events()
        serial = ParallelPimModel(base, ParallelConfig()).evaluate(events)
        wide = ParallelPimModel(base, ParallelConfig(compute_units=16)).evaluate(events)
        assert wide.energy_breakdown_j["dynamic"] == pytest.approx(
            serial.energy_breakdown_j["dynamic"]
        )
        assert wide.energy_breakdown_j["leakage"] < serial.energy_breakdown_j["leakage"]

    def test_on_real_accelerator_run(self, base):
        graph = generators.powerlaw_cluster(200, 4, 0.6, seed=3)
        run = TCIMAccelerator().run(graph)
        model = ParallelPimModel(base, ParallelConfig(compute_units=8, write_ports=4))
        report = model.evaluate(run.events)
        assert report.latency_s > 0
        assert report.system_energy_j > report.array_energy_j


class TestSimulateParallel:
    def test_one_call_pipeline(self):
        from repro.arch.pipeline import simulate_parallel
        from repro.core.accelerator import AcceleratorConfig

        graph = generators.powerlaw_cluster(200, 4, 0.6, seed=3)
        result, report = simulate_parallel(
            graph, parallel_config=ParallelConfig(compute_units=8)
        )
        assert result.triangles == TCIMAccelerator().run(graph).triangles
        assert report.latency_s > 0

    def test_engine_choice_does_not_change_report(self):
        """Pricing the per-edge oracle's events gives the same report."""
        import numpy as np

        from repro.arch.pipeline import simulate_parallel
        from repro.core.engine import oriented_edges
        from repro.core.oracle import run_legacy

        graph = generators.erdos_renyi(100, 350, seed=4)
        _, vectorized = simulate_parallel(graph)
        rows = int(np.unique(oriented_edges(graph, "upper")[0]).size)
        legacy = ParallelPimModel(default_pim_model()).evaluate(
            run_legacy(graph).events, rows
        )
        assert vectorized.latency_s == pytest.approx(legacy.latency_s)
        assert vectorized.system_energy_j == pytest.approx(legacy.system_energy_j)


class TestMeasuredShardPricing:
    """evaluate_shards: the measured per-shard critical-path mode."""

    @pytest.fixture(scope="class")
    def base(self):
        return default_pim_model()

    def test_one_shard_degenerates_to_serial(self, base):
        events = _events()
        serial = base.evaluate(events, 500)
        sharded = base.evaluate_shards([events], [500])
        # A single shard merges nothing, whatever the partitioner.
        assert sharded.latency_s == pytest.approx(serial.latency_s)
        assert sharded.latency_breakdown_s["imbalance"] == pytest.approx(1.0)
        assert "merge" not in sharded.latency_breakdown_s

    def test_critical_path_is_slowest_shard_plus_merge(self, base):
        light = _events()
        heavy = _events()
        heavy.and_operations *= 3
        heavy.edges_processed *= 3
        report = base.evaluate_shards([light, heavy], [100, 300])
        merge = 2 * base.timing.shard_merge_latency_s
        assert report.latency_breakdown_s["merge"] == pytest.approx(merge)
        assert report.latency_s == pytest.approx(
            base.evaluate(heavy, 300).latency_s + merge
        )
        assert report.latency_breakdown_s["imbalance"] > 1.0

    def test_communication_free_drops_merge(self, base):
        light = _events()
        heavy = _events()
        heavy.and_operations *= 3
        heavy.edges_processed *= 3
        report = base.evaluate_shards(
            [light, heavy], [100, 300], communication_free=True
        )
        assert "merge" not in report.latency_breakdown_s
        assert report.latency_s == pytest.approx(
            base.evaluate(heavy, 300).latency_s
        )
        merged = base.evaluate_shards([light, heavy], [100, 300])
        assert merged.latency_s > report.latency_s

    def test_dynamic_energy_sums_over_shards(self, base):
        events = _events()
        single = base.evaluate_shards([events], [0])
        double = base.evaluate_shards(
            [events, events], [0, 0], communication_free=True
        )
        assert double.energy_breakdown_j["dynamic"] == pytest.approx(
            2 * single.energy_breakdown_j["dynamic"]
        )
        # Same critical path (no merge term), so the time-proportional
        # terms match.
        assert double.energy_breakdown_j["leakage"] == pytest.approx(
            single.energy_breakdown_j["leakage"]
        )

    def test_context_build_pricing(self, base):
        report = base.evaluate_context_build([1000, 3000], [500, 1500])
        timing = base.timing
        expected = (
            3000 * timing.per_edge_overhead_s
            + 1500 * timing.plan_record_latency_s
        )
        assert report.latency_s == pytest.approx(expected)
        assert report.latency_breakdown_s["slice_build"] == pytest.approx(
            4000 * timing.per_edge_overhead_s
        )
        assert report.latency_breakdown_s["imbalance"] > 1.0
        with pytest.raises(ArchitectureError, match="at least one"):
            base.evaluate_context_build([])
        with pytest.raises(ArchitectureError, match="pair counts"):
            base.evaluate_context_build([10], [1, 2])

    def test_pool_plane_pricing(self, base):
        timing = base.timing
        report = base.evaluate_pool_plane(420, 4, sweeps=3)
        attach = 105 * timing.segment_attach_latency_s
        dispatch = 3 * 4 * timing.dispatch_message_latency_s
        assert report.latency_s == pytest.approx(attach + dispatch)
        assert report.latency_breakdown_s["segment_attach"] == pytest.approx(
            attach
        )
        assert report.latency_breakdown_s["sweep_dispatch"] == pytest.approx(
            dispatch
        )
        # Workers attach disjoint chunks concurrently: the attach term
        # shrinks with the fleet while dispatch grows, and no term
        # depends on graph size — that is the whole point of the plane.
        wide = base.evaluate_pool_plane(420, 8, sweeps=3)
        assert (
            wide.latency_breakdown_s["segment_attach"]
            < report.latency_breakdown_s["segment_attach"]
        )
        assert report.energy_breakdown_j["dynamic"] == 0.0
        with pytest.raises(ArchitectureError, match="num_segments"):
            base.evaluate_pool_plane(-1, 2)
        with pytest.raises(ArchitectureError, match="num_workers"):
            base.evaluate_pool_plane(10, 0)
        with pytest.raises(ArchitectureError, match="sweeps"):
            base.evaluate_pool_plane(10, 2, sweeps=-1)

    def test_validation(self, base):
        with pytest.raises(ArchitectureError, match="at least one"):
            base.evaluate_shards([])
        with pytest.raises(ArchitectureError, match="row counts"):
            base.evaluate_shards([_events()], [1, 2])

    def test_measured_report_from_sharded_run(self, base):
        from repro.arch.pipeline import measured_shard_report
        from repro.core.accelerator import AcceleratorConfig

        graph = generators.powerlaw_cluster(300, 5, 0.5, seed=6)
        run = TCIMAccelerator(
            AcceleratorConfig(num_arrays=4, shard_by="degree")
        ).run(graph)
        report = measured_shard_report(run, base)
        per_shard = [
            report.latency_breakdown_s[f"shard{i}"] for i in range(4)
        ]
        # Position-partitioned shards pay the per-shard merge read-back.
        assert report.latency_s == pytest.approx(
            max(per_shard) + 4 * base.timing.shard_merge_latency_s
        )
        # Sharding a run across 4 arrays beats pricing it on one.
        serial = base.evaluate(run.events).latency_s
        assert report.latency_s < serial

    def test_measured_report_coloring_is_communication_free(self, base):
        from repro.arch.pipeline import measured_shard_report
        from repro.core.accelerator import AcceleratorConfig

        graph = generators.powerlaw_cluster(300, 5, 0.5, seed=6)
        run = TCIMAccelerator(
            AcceleratorConfig(num_arrays=4, shard_by="coloring")
        ).run(graph)
        assert run.notes["communication_free"] is True
        report = measured_shard_report(run, base)
        assert "merge" not in report.latency_breakdown_s
        per_shard = [
            report.latency_breakdown_s[f"shard{i}"]
            for i in range(len(run.shards))
        ]
        assert report.latency_s == pytest.approx(max(per_shard))

    def test_simulate_sharded_one_call(self):
        from repro.arch.pipeline import simulate_sharded
        from repro.core.accelerator import AcceleratorConfig

        graph = generators.powerlaw_cluster(200, 4, 0.6, seed=3)
        result, report = simulate_sharded(
            graph, AcceleratorConfig(num_arrays=4, shard_by="rows")
        )
        assert result.triangles == TCIMAccelerator().run(graph).triangles
        assert len(result.shards) == 4
        assert report.latency_s > 0
        assert "imbalance" in report.latency_breakdown_s
