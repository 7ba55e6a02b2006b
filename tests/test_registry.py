"""Tests for the backend registry (repro.registry)."""

from __future__ import annotations

import pytest

from repro import registry
from repro.errors import ArchitectureError
from repro.graph.graph import Graph


@pytest.fixture
def fig2_graph() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


class TestBaselineRegistry:
    def test_builtins(self, fig2_graph):
        names = registry.baseline_names()
        for expected in ("forward", "edge-iterator", "matmul", "sliced", "dense"):
            assert expected in names
            assert registry.baseline(expected)(fig2_graph) == 2

    def test_unknown_baseline(self):
        with pytest.raises(ArchitectureError, match="unknown baseline"):
            registry.baseline("nonexistent")

    def test_register_custom(self, fig2_graph):
        registry.register_baseline("always-7", lambda g: 7, replace=True)
        try:
            assert registry.baseline("always-7")(fig2_graph) == 7
            from repro.api import open_session

            assert open_session(fig2_graph).baseline("always-7") == 7
        finally:
            registry._BASELINES.pop("always-7", None)

    def test_duplicate_rejected(self, fig2_graph):
        registry.register_baseline("dup-test", lambda g: 0, replace=True)
        try:
            with pytest.raises(ArchitectureError, match="already registered"):
                registry.register_baseline("dup-test", lambda g: 1)
        finally:
            registry._BASELINES.pop("dup-test", None)

    def test_bad_names(self):
        with pytest.raises(ArchitectureError):
            registry.register_baseline("", lambda g: 0)
        with pytest.raises(ArchitectureError):
            registry.register_baseline(None, lambda g: 0)


class TestSourceRegistry:
    def test_builtin_dataset_scheme(self):
        assert "dataset" in registry.source_schemes()
        graph = registry.source_resolver("dataset")(
            "ego-facebook@0.05", "dataset:ego-facebook@0.05"
        )
        assert graph.num_vertices > 0

    def test_unknown_scheme(self):
        with pytest.raises(ArchitectureError, match="unknown graph-source"):
            registry.source_resolver("nonexistent")

    def test_register_custom_scheme_resolves_through_api(self, fig2_graph):
        from repro.api import open_session, resolve_graph

        registry.register_source(
            "fig2test", lambda remainder, spec: fig2_graph, replace=True
        )
        try:
            assert resolve_graph("fig2test:anything") is fig2_graph
            assert open_session("fig2test:anything").count() == 2
        finally:
            registry._SOURCES.pop("fig2test", None)

    def test_unregistered_prefix_still_treated_as_path(self, tmp_path):
        from repro.api import resolve_graph

        # A spec whose prefix is not a registered scheme falls through to
        # file loading (here: a missing file, not an "unknown scheme").
        with pytest.raises(FileNotFoundError):
            resolve_graph(str(tmp_path / "missing.txt"))

    def test_duplicate_and_bad_schemes_rejected(self):
        registry.register_source("duptest", lambda r, s: None, replace=True)
        try:
            with pytest.raises(ArchitectureError, match="already registered"):
                registry.register_source("duptest", lambda r, s: None)
        finally:
            registry._SOURCES.pop("duptest", None)
        with pytest.raises(ArchitectureError, match="alphanumeric"):
            registry.register_source("bad scheme", lambda r, s: None)
        with pytest.raises(ArchitectureError, match="alphanumeric"):
            registry.register_source("", lambda r, s: None)
