"""Backend registry: baseline and graph-source dispatch by name.

Small mapping registries so new backends plug in without touching the
facade (:class:`repro.api.TCIMSession`), the serving tier
(:class:`repro.serve.Service`) or the CLI:

* **baselines** map a method name (``"forward"``, ``"matmul"``, ...) to
  a ``callable(graph) -> int`` triangle counter.  The built-ins are
  registered lazily on first lookup so importing :mod:`repro` stays
  cheap.
* **sources** map a graph-spec scheme (the prefix before ``:``) to a
  ``resolver(remainder, spec) -> Graph``.  The built-in ``dataset``
  scheme (``dataset:<key>[@<scale>]``) registers lazily;
  :func:`repro.api.resolve_graph` — and therefore every session the
  serving tier opens — consults this table, so a custom scheme (remote
  fetch, generator, cache) serves unchanged.

Registration is explicit and eager-failing: registering a duplicate name
raises unless ``replace=True``, and looking up an unknown name raises
:class:`~repro.errors.ArchitectureError` with the known names in the
message.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.errors import ArchitectureError, ReproError

__all__ = [
    "register_baseline",
    "baseline",
    "baseline_names",
    "register_source",
    "source_resolver",
    "source_schemes",
]

#: name -> ``callable(graph) -> int`` baseline triangle counter.
_BASELINES: dict[str, Callable] = {}

_BASELINES_LOADED = False

#: scheme -> ``resolver(remainder, spec) -> Graph`` graph-source loader.
_SOURCES: dict[str, Callable] = {}

_SOURCES_LOADED = False


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def register_baseline(name: str, counter: Callable, replace: bool = False) -> None:
    """Register a ``callable(graph) -> int`` triangle counter under ``name``."""
    if not name or not isinstance(name, str):
        raise ArchitectureError(
            f"baseline name must be a non-empty string, got {name!r}"
        )
    if name in _BASELINES and not replace:
        raise ArchitectureError(
            f"baseline {name!r} is already registered; pass replace=True to override"
        )
    _BASELINES[name] = counter


def baseline(name: str) -> Callable:
    """Look up the baseline counter registered under ``name``."""
    _ensure_baselines()
    try:
        return _BASELINES[name]
    except KeyError:
        raise ArchitectureError(
            f"unknown baseline {name!r}; registered baselines: {baseline_names()}"
        ) from None


def baseline_names() -> tuple[str, ...]:
    """Registered baseline names, sorted."""
    _ensure_baselines()
    return tuple(sorted(_BASELINES))


# ----------------------------------------------------------------------
# Graph sources
# ----------------------------------------------------------------------
def register_source(scheme: str, resolver: Callable, replace: bool = False) -> None:
    """Register a graph-source resolver for ``<scheme>:<rest>`` specs.

    ``resolver(remainder, spec)`` receives the text after the colon and
    the full spec (for error messages) and returns a
    :class:`~repro.graph.graph.Graph`.  Schemes must look like URL
    schemes (alphanumeric, no separators) so they can never shadow a
    file path.
    """
    if not scheme or not isinstance(scheme, str) or not scheme.isalnum():
        raise ArchitectureError(
            f"source scheme must be a non-empty alphanumeric string, got {scheme!r}"
        )
    # Load the built-ins first so registering e.g. "dataset" early in a
    # fresh process hits the duplicate check instead of silently
    # shadowing the built-in resolver.
    _ensure_sources()
    if scheme in _SOURCES and not replace:
        raise ArchitectureError(
            f"source scheme {scheme!r} is already registered; "
            "pass replace=True to override"
        )
    _SOURCES[scheme] = resolver


def source_resolver(scheme: str) -> Callable:
    """Look up the resolver registered for ``scheme``."""
    _ensure_sources()
    try:
        return _SOURCES[scheme]
    except KeyError:
        raise ArchitectureError(
            f"unknown graph-source scheme {scheme!r}; "
            f"registered schemes: {source_schemes()}"
        ) from None


def source_schemes() -> tuple[str, ...]:
    """Registered source schemes, sorted."""
    _ensure_sources()
    return tuple(sorted(_SOURCES))


def _resolve_dataset(remainder: str, spec: str):
    """The built-in ``dataset:<key>[@<scale>]`` resolver.

    The scale is validated here, at parse time, so a nonsensical spec
    fails with a clear error naming the spec instead of deep inside the
    generator: it must parse as a float and be positive and finite.
    """
    from repro.graph import datasets

    if "@" in remainder:
        key, _, scale_text = remainder.partition("@")
        try:
            scale = float(scale_text)
        except ValueError:
            raise ReproError(f"invalid scale {scale_text!r} in {spec!r}") from None
        if not math.isfinite(scale) or scale <= 0:
            raise ReproError(
                f"invalid scale {scale_text!r} in {spec!r}: dataset scale "
                "must be a positive finite number"
            )
    else:
        key, scale = remainder, 1.0
    return datasets.synthesize(key, scale=scale)


def _ensure_sources() -> None:
    """Register the built-in graph-source schemes on first use."""
    global _SOURCES_LOADED
    if _SOURCES_LOADED:
        return
    _SOURCES_LOADED = True
    _SOURCES.setdefault("dataset", _resolve_dataset)


def _ensure_baselines() -> None:
    """Register the built-in software baselines on first use (lazy import)."""
    global _BASELINES_LOADED
    if _BASELINES_LOADED:
        return
    _BASELINES_LOADED = True
    from repro.baselines.intersection import (
        triangle_count_edge_iterator,
        triangle_count_forward,
    )
    from repro.baselines.matmul import triangle_count_matmul
    from repro.core.bitwise import (
        triangle_count_bitwise,
        triangle_count_dense,
        triangle_count_sliced,
    )

    for name, counter in {
        "bitwise": triangle_count_bitwise,
        "sliced": triangle_count_sliced,
        "dense": triangle_count_dense,
        "forward": triangle_count_forward,
        "edge-iterator": triangle_count_edge_iterator,
        "matmul": triangle_count_matmul,
    }.items():
        _BASELINES.setdefault(name, counter)
