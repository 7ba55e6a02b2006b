"""Import-surface tests: the public API resolves, importing is cheap.

The session facade made ``repro`` the single front door, so its import
surface is a contract: every name in ``__all__`` must resolve, and
``import repro`` must not do heavy work (no graph synthesis, no
accelerator runs, no file IO beyond module loading).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

import repro
from repro import registry
from repro.core import engine
from repro.core.accelerator import AcceleratorConfig
from repro.errors import ArchitectureError


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_expected_surface_present():
    for name in (
        "TCIMSession",
        "open_session",
        "RunReport",
        "UpdateReport",
        "resolve_graph",
        "TCIMAccelerator",
        "AcceleratorConfig",
        "DynamicTriangleCounter",
        "Graph",
        "registry",
    ):
        assert name in repro.__all__, name


def test_import_does_no_heavy_work():
    """Importing repro must stay cheap: no optional heavy dependencies
    (scipy/networkx/matplotlib), no device/arch/memory subsystems, and no
    perf-model construction — those all load lazily on first use.

    Run in a subprocess so the assertion is immune to prior imports.
    """
    probe = r"""
import sys
import repro

assert "repro.api" in sys.modules
leaked = [
    name
    for name in ("scipy", "networkx", "matplotlib", "pandas")
    if name in sys.modules
]
assert not leaked, f"import repro pulled heavy deps: {leaked}"
lazy = [
    name
    for name in sys.modules
    if name.startswith(("repro.arch", "repro.memory", "repro.device"))
]
assert not lazy, f"import repro eagerly loaded lazy subsystems: {lazy}"
assert repro.open_session is not None
print("OK")
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "OK" in result.stdout


def test_registry_lookup_does_not_require_manual_imports():
    """repro.registry must self-register built-ins on first use."""
    probe = r"""
import sys
sys.modules.pop("repro", None)
from repro import registry
assert "forward" in registry.baseline_names()
print("OK")
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "OK" in result.stdout


def test_no_engine_selection_surface():
    """One executor: no engine registry, config field or module tuple."""
    for name in ("register_engine", "engine_kernel", "engine_names", "_ENGINES"):
        assert not hasattr(registry, name), name
    assert not hasattr(engine, "ENGINES")
    assert not hasattr(engine, "execute_batched")
    with pytest.raises(ArchitectureError):
        AcceleratorConfig.from_mapping({"engine": "vectorized"})
