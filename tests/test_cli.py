"""Tests for the tcim command-line interface."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main, resolve_graph
from repro.core.oracle import run_legacy
from repro.errors import ReproError
from repro.graph.io import write_edge_list


class TestResolveGraph:
    def test_dataset_spec(self):
        graph = resolve_graph("dataset:roadnet-pa@0.005")
        assert graph.num_vertices > 0

    def test_dataset_default_scale_is_full(self):
        graph = resolve_graph("dataset:ego-facebook@0.1")
        assert graph.num_vertices < 4039

    def test_bad_scale(self):
        with pytest.raises(ReproError, match="invalid scale"):
            resolve_graph("dataset:roadnet-pa@fast")

    def test_unknown_dataset(self):
        with pytest.raises(ReproError):
            resolve_graph("dataset:com-orkut")

    def test_file_path(self, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert resolve_graph(str(path)) == paper_graph


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "com-LiveJournal" in output
        assert "88,234" in output

    def test_count(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["count", str(path)]) == 0
        output = capsys.readouterr().out
        assert "triangles (tcim): 2" in output

    def test_count_methods(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        for method in ("sliced", "dense", "forward", "edge-iterator", "matmul"):
            assert main(["count", str(path), "--method", method]) == 0
            assert "triangles" in capsys.readouterr().out

    def test_slice_stats(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["slice-stats", str(path), "--slice-bits", "8"]) == 0
        output = capsys.readouterr().out
        assert "valid slice percentage" in output

    def test_simulate(self, capsys):
        assert main(["simulate", "dataset:roadnet-pa@0.005"]) == 0
        output = capsys.readouterr().out
        assert "modelled TCIM latency" in output
        assert "cache hit %" in output

    def test_simulate_engine_flag(self, capsys):
        # There is one executor: --engine is gone, and the simulation
        # reproduces the per-edge oracle loop.
        spec = "dataset:roadnet-pa@0.005"
        with pytest.raises(SystemExit):
            main(["simulate", spec, "--engine", "legacy"])
        capsys.readouterr()
        assert main(["simulate", spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "engine" not in payload
        oracle = run_legacy(resolve_graph(spec))
        assert payload["triangles"] == oracle.triangles
        assert payload["events"] == dataclasses.asdict(oracle.events)
        assert payload["cache"] == dataclasses.asdict(oracle.cache_stats)

    def test_device(self, capsys):
        assert main(["device"]) == 0
        output = capsys.readouterr().out
        assert "R_P" in output
        assert "625.0 ohm" in output

    def test_validate(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["validate", str(path)]) == 0
        assert "all implementations agree" in capsys.readouterr().out

    def test_truss(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["truss", str(path)]) == 0
        output = capsys.readouterr().out
        assert "maximum trussness: 3" in output

    def test_truss_k_flag(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["truss", str(path), "--k", "3"]) == 0
        output = capsys.readouterr().out
        assert "maximum trussness: 3" in output
        assert "3-truss edges: 5" in output

    def test_truss_json(self, capsys, tmp_path, paper_graph):
        import json as json_module

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["truss", str(path), "--k", "3", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload == {
            "num_edges": 5,
            "max_trussness": 3,
            "histogram": {"3": 5},
            "k": 3,
            "k_truss_edges": 5,
        }

    def test_cluster(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["cluster", str(path)]) == 0
        output = capsys.readouterr().out
        assert "Clustering metrics" in output
        assert "transitivity" in output
        assert "triangle hubs" in output

    def test_cluster_json(self, capsys, tmp_path, paper_graph):
        import json as json_module

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["cluster", str(path), "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["triangles"] == 2
        assert payload["wedges"] == 8
        assert payload["transitivity"] == pytest.approx(0.75)

    def test_cluster_top_zero_skips_hubs(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["cluster", str(path), "--top", "0"]) == 0
        assert "triangle hubs" not in capsys.readouterr().out

    def test_common_neighbors_pair(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["common-neighbors", str(path), "0", "3"]) == 0
        assert "common neighbors of 0 and 3: 2" in capsys.readouterr().out

    def test_common_neighbors_top_k(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["common-neighbors", str(path), "0"]) == 0
        output = capsys.readouterr().out
        assert "link-prediction candidates for vertex 0" in output

    def test_common_neighbors_json(self, capsys, tmp_path, paper_graph):
        import json as json_module

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(
            ["common-neighbors", str(path), "0", "--k", "5", "--json"]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload == {"u": 0, "k": 5, "candidates": [[3, 2]]}

    def test_workloads_share_accelerator_flags(
        self, capsys, tmp_path, paper_graph
    ):
        import json as json_module

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        baseline = None
        for flags in ([], ["--num-arrays", "4"], ["--no-plan"]):
            assert main(["truss", str(path), "--json", *flags]) == 0
            payload = json_module.loads(capsys.readouterr().out)
            if baseline is None:
                baseline = payload
            assert payload == baseline

    def test_approx(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["approx", str(path), "--samples", "500"]) == 0
        assert "estimate:" in capsys.readouterr().out

    def test_slice_stats_with_ordering(self, capsys):
        assert main(
            ["slice-stats", "dataset:roadnet-pa@0.005", "--ordering", "bfs"]
        ) == 0
        assert "ordering=bfs" in capsys.readouterr().out

    def test_error_path_returns_nonzero(self, capsys):
        assert main(["count", "dataset:unknown-graph"]) == 1
        assert "error:" in capsys.readouterr().err


class TestShardedFlags:
    """--num-arrays/--shard-by/--workers are shared by count and
    simulate."""

    def test_count_engine_flag(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        with pytest.raises(SystemExit):
            main(["count", str(path), "--engine", "vectorized"])
        assert "--engine" in capsys.readouterr().err
        assert main(["count", str(path)]) == 0
        assert "triangles (tcim): 2" in capsys.readouterr().out

    def test_count_sharded_matches_single_array(self, capsys):
        spec = "dataset:roadnet-pa@0.005"
        assert main(["count", spec]) == 0
        single = capsys.readouterr().out
        assert main(
            ["count", spec, "--num-arrays", "4", "--shard-by", "degree"]
        ) == 0
        sharded = capsys.readouterr().out

        def triangles(text):
            for line in text.splitlines():
                if "triangles" in line:
                    return line
            return None

        assert triangles(single) == triangles(sharded)

    def test_simulate_sharded_breakdown(self, capsys):
        assert main(
            [
                "simulate",
                "dataset:roadnet-pa@0.005",
                "--num-arrays",
                "4",
                "--shard-by",
                "rows",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "critical path" in output
        assert "Per-shard breakdown" in output
        assert "shard imbalance" in output

    def test_simulate_single_array_output_unchanged(self, capsys):
        assert main(["simulate", "dataset:roadnet-pa@0.005"]) == 0
        output = capsys.readouterr().out
        assert "modelled TCIM latency" in output
        assert "Per-shard breakdown" not in output

    def test_no_plan_flag_matches_planned_results(self, capsys):
        spec = "dataset:roadnet-pa@0.005"
        assert main(["count", spec]) == 0
        planned = capsys.readouterr().out
        assert main(["count", spec, "--no-plan"]) == 0
        planless = capsys.readouterr().out

        def triangles(text):
            for line in text.splitlines():
                if "triangles" in line:
                    return line
            return None

        assert triangles(planned) == triangles(planless)

    def test_simulate_reports_plan_residency(self, capsys):
        spec = "dataset:roadnet-pa@0.005"
        assert main(["simulate", spec]) == 0
        assert "join plan" in capsys.readouterr().out
        assert main(["simulate", spec, "--no-plan"]) == 0
        output = capsys.readouterr().out
        assert "disabled" in output

    def test_set_use_plan_override(self, capsys):
        spec = "dataset:roadnet-pa@0.005"
        assert main(["simulate", spec, "--set", "use_plan=false"]) == 0
        assert "disabled" in capsys.readouterr().out
        # --set wins over --no-plan (highest precedence layer).
        assert main(["simulate", spec, "--no-plan", "--set", "use_plan=true"]) == 0
        assert "disabled" not in capsys.readouterr().out

    def test_bad_num_arrays_is_an_error(self, capsys):
        assert main(
            ["count", "dataset:roadnet-pa@0.005", "--num-arrays", "0"]
        ) == 1
        assert "num_arrays" in capsys.readouterr().err


class TestStreamCommand:
    def _graph_file(self, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        return str(path)

    def test_stream_ops_file(self, capsys, tmp_path, paper_graph):
        graph = self._graph_file(tmp_path, paper_graph)
        ops = tmp_path / "ops.txt"
        ops.write_text("# churn {0,3}\n+ 0 3\n- 0 3\ninsert 0 3\n", encoding="utf-8")
        assert main(["stream", graph, "--ops", str(ops), "--check"]) == 0
        output = capsys.readouterr().out
        assert "triangles after" in output
        assert "oracle agreement" in output

    def test_stream_random(self, capsys):
        assert main(
            ["stream", "dataset:roadnet-pa@0.005", "--random", "40", "--check"]
        ) == 0
        output = capsys.readouterr().out
        assert "ops requested" in output
        assert "oracle agreement  yes" in output
        assert "throughput" in output

    def test_stream_sharded_json(self, capsys):
        import json as json_module

        assert main(
            [
                "stream", "dataset:roadnet-pa@0.005",
                "--random", "30", "--num-arrays", "2", "--json", "--check",
            ]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["requested"] == 30
        assert payload["oracle_agrees"] is True
        assert payload["triangles"] == payload["triangles_before"] + payload["delta_triangles"]

    def test_stream_record_json(self, capsys, tmp_path, paper_graph):
        import json as json_module

        graph = self._graph_file(tmp_path, paper_graph)
        ops = tmp_path / "ops.txt"
        ops.write_text("+ 0 3\n- 0 3\n", encoding="utf-8")
        assert main(
            ["stream", graph, "--ops", str(ops), "--record", "--json"]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["per_op_deltas"] == [2, -2]

    def test_stream_bad_ops_file(self, capsys, tmp_path, paper_graph):
        graph = self._graph_file(tmp_path, paper_graph)
        ops = tmp_path / "ops.txt"
        ops.write_text("+ 0\n", encoding="utf-8")
        assert main(["stream", graph, "--ops", str(ops)]) == 1
        assert "expected 'OP U V'" in capsys.readouterr().err


class TestJsonOutput:
    def test_count_json(self, capsys, tmp_path, paper_graph):
        import json as json_module

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["count", str(path), "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["triangles"] == 2
        assert payload["method"] == "tcim"

    def test_simulate_json_sharded(self, capsys):
        import json as json_module

        assert main(
            [
                "simulate", "dataset:roadnet-pa@0.005",
                "--num-arrays", "2", "--json",
            ]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["num_arrays"] == 2
        assert len(payload["shards"]) == 2
        assert payload["latency_s"] > 0


class TestConfigFileAndSet:
    def test_config_file_toml(self, capsys, tmp_path, paper_graph):
        import json as json_module

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        config = tmp_path / "tcim.toml"
        config.write_text(
            'num_arrays = 2\nshard_by = "rows"\nseed = 3\n', encoding="utf-8"
        )
        assert main(
            ["simulate", str(path), "--config", str(config), "--json"]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["num_arrays"] == 2
        assert payload["shard_by"] == "rows"

    def test_flag_overrides_config_file(self, capsys, tmp_path, paper_graph):
        import json as json_module

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        config = tmp_path / "tcim.json"
        config.write_text(
            '{"num_arrays": 2, "shard_by": "rows"}', encoding="utf-8"
        )
        assert main(
            [
                "simulate", str(path),
                "--config", str(config), "--shard-by", "degree", "--json",
            ]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["num_arrays"] == 2
        assert payload["shard_by"] == "degree"

    def test_set_overrides_everything(self, capsys, tmp_path, paper_graph):
        import json as json_module

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        config = tmp_path / "tcim.json"
        config.write_text('{"num_arrays": 1}', encoding="utf-8")
        assert main(
            [
                "count", str(path),
                "--config", str(config),
                "--num-arrays", "1",
                "--set", "num_arrays=2",
                "--json",
            ]
        ) == 0
        assert json_module.loads(capsys.readouterr().out)["triangles"] == 2

    def test_bad_set_syntax(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["count", str(path), "--set", "numarrays"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_config_key(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["count", str(path), "--set", "warp=9"]) == 1
        assert "unknown AcceleratorConfig" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["count", str(path), "--config", "/nonexistent.toml"]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_validate_includes_session(self, capsys, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert main(["validate", str(path)]) == 0
        output = capsys.readouterr().out
        assert "tcim-session" in output
        assert "all implementations agree" in output


class TestServeCommand:
    def _request_lines(self, path, extra=()):
        import json

        lines = [
            json.dumps({"id": 1, "op": "count", "graph": path}),
            json.dumps(
                {"id": 2, "op": "apply", "graph": path, "ops": [["+", 0, 3]]}
            ),
            json.dumps({"id": 3, "op": "count", "graph": path}),
            *extra,
        ]
        return "\n".join(lines) + "\n"

    def _responses(self, output):
        import json

        responses = {}
        summary = []
        for line in output.splitlines():
            if line.startswith("{"):
                response = json.loads(line)
                responses[response["id"]] = response
            else:
                summary.append(line)
        return responses, "\n".join(summary)

    def test_serve_stdin_round_trip(self, capsys, monkeypatch, tmp_path, paper_graph):
        import io

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(self._request_lines(str(path)))
        )
        assert main(["serve", "--max-sessions", "4"]) == 0
        responses, summary = self._responses(capsys.readouterr().out)
        assert responses[1]["result"]["triangles"] == 2
        assert responses[2]["ok"]
        assert responses[3]["result"]["triangles"] == 4
        assert "Serving summary" in summary
        assert "queries" in summary

    def test_serve_json_report(self, capsys, monkeypatch, tmp_path, paper_graph):
        import io
        import json

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(self._request_lines(str(path)))
        )
        assert main(["serve", "--json"]) == 0
        output = capsys.readouterr().out
        # Responses are one-line JSON objects; the final ServiceReport is
        # pretty-printed, so it starts at the first multi-line brace.
        head, _, report_text = output.partition("{\n")
        report = json.loads("{" + report_text)
        assert report["queries"] == 3
        assert report["pool"]["misses"] == 1
        assert report["sessions"][0]["ops_applied"] == 1

    def test_serve_default_config_applies(self, capsys, monkeypatch, tmp_path, paper_graph):
        import io
        import json

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        lines = self._request_lines(
            str(path),
            extra=[json.dumps({"id": 4, "op": "simulate", "graph": str(path)})],
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--num-arrays", "2", "--json"]) == 0
        output = capsys.readouterr().out
        responses, _ = {}, None
        for line in output.splitlines():
            if line.startswith('{"'):
                response = json.loads(line)
                responses[response["id"]] = response
        assert responses[4]["result"]["num_arrays"] == 2
