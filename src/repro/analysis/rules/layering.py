"""LAY — the declarative import-layer map.

``docs/architecture.md`` describes the dependency layering in prose;
``LAYER_MAP`` below is the same statement as data, and the rule enforces
it on every import in ``src/``.  The map is *allow-list* shaped: each
``repro.X`` package names the repro packages it may import.  Adding a
package without classifying it here is itself a violation, so the map
can never silently drift from reality.

``LAY001``
    An import edge the layer map does not allow (including imports from
    a package the map has never heard of).

``LAY002``
    A dependency the package may not import.  numpy is the one runtime
    dependency (``pyproject.toml``): every package may import the stdlib
    and numpy, nothing else.  ``repro.ioutil``, ``repro.analysis``, and
    ``repro.telemetry`` must stay importable in a bare lint environment —
    the stdlib alone.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Tuple

from ..diagnostics import Diagnostic
from ..imports import import_targets
from ..project import Project, SourceFile
from ..registry import Rule, register

LAYER_MAP: Dict[str, Tuple[str, ...]] = {
    # Leaves: these import no other repro package.  repro.telemetry is a
    # near-leaf observation plane: stdlib-only, importable from anywhere
    # below the presentation layer without creating cycles.
    "repro.ioutil": (),
    "repro.analysis": (),
    "repro.telemetry": (),
    "repro.arrays": ("repro.ioutil",),
    "repro.nn": ("repro.telemetry",),
    "repro.viz": (),
    "repro.manifold": (),
    "repro.cluster": (),
    "repro.data": ("repro.arrays", "repro.telemetry"),
    # Mid-stack.
    "repro.ssl": ("repro.nn",),
    "repro.fl": ("repro.arrays", "repro.data", "repro.ioutil", "repro.nn",
                 "repro.telemetry"),
    "repro.baselines": ("repro.data", "repro.fl", "repro.nn", "repro.ssl",
                        "repro.telemetry"),
    "repro.core": ("repro.baselines", "repro.cluster", "repro.fl",
                   "repro.nn", "repro.ssl"),
    # Orchestration and presentation.
    "repro.eval": ("repro.baselines", "repro.core", "repro.data", "repro.fl",
                   "repro.ioutil", "repro.nn", "repro.viz"),
    "repro.runs": ("repro.arrays", "repro.eval", "repro.fl", "repro.ioutil",
                   "repro.telemetry"),
    "repro.experiments": ("repro.eval", "repro.fl", "repro.manifold",
                          "repro.runs", "repro.viz"),
    "repro.cli": ("repro.analysis", "repro.eval", "repro.experiments",
                  "repro.fl", "repro.ioutil", "repro.runs",
                  "repro.telemetry"),
}
"""Allowed repro-internal import edges, per package.  The order mirrors
docs/architecture.md's layer map bottom-up."""

STDLIB_ONLY = ("repro.ioutil", "repro.analysis", "repro.telemetry")
"""Packages that must not import anything outside the standard library."""

RUNTIME_DEPENDENCIES = ("numpy",)
"""The only non-stdlib imports any other package may make: the
``dependencies`` of ``pyproject.toml``."""

_STDLIB = set(sys.stdlib_module_names) | {"__future__"}


def _package_of(module: str) -> str:
    """The layer-map key owning ``module`` (``repro.fl.session.state`` →
    ``repro.fl``; single-module packages map to themselves)."""
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module


@register
class LayerMapRule(Rule):
    id = "LAY001"
    summary = "imports must follow the declarative layer map (LAYER_MAP)"
    scope = ("repro",)

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        if source.module == "repro":  # the top package defines no layer
            return
        own = _package_of(source.module)
        if own not in LAYER_MAP:
            yield self.diagnostic(
                source.rel, 1,
                f"package {own} is not classified in the layer map",
                hint="add it to LAYER_MAP in repro/analysis/rules/layering.py "
                     "with the packages it may import")
            return
        allowed = set(LAYER_MAP[own])
        for node, target in import_targets(source):
            if not (target == "repro" or target.startswith("repro.")):
                continue
            pkg = _package_of(target)
            if pkg in ("repro", own) or pkg in allowed:
                continue
            yield self.diagnostic(
                source.rel, node.lineno,
                f"{own} may not import {pkg} "
                f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})",
                hint="either the code belongs in a higher layer or the "
                     "layer map needs a deliberate, reviewed edit")


@register
class DependencyRule(Rule):
    id = "LAY002"
    summary = ("packages import only the stdlib and numpy; ioutil, analysis "
               "and telemetry only the stdlib")
    scope = ("repro",)

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        own = _package_of(source.module)
        stdlib_only = source.in_scope(STDLIB_ONLY)
        for node, target in import_targets(source):
            top = target.split(".")[0]
            if top == "repro" or top in _STDLIB:
                continue
            if stdlib_only:
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"{own} is stdlib-only but imports {target}",
                    hint="keep heavy deps out so 'repro check' runs in a bare "
                         "lint environment")
            elif top not in RUNTIME_DEPENDENCIES:
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"{own} may import only the stdlib and numpy, not {target}",
                    hint="numpy is the one runtime dependency; every extra "
                         "import costs each process its start-up time")
