"""PKL — picklable execution payloads.

The process backend ships algorithm instances, client data (a client
table or a virtual population's recipe, installed once per pool), client
stores, and encoder specs to workers by pickle; an unpicklable member
silently degrades execution to serial (the documented fallback), which
is a performance cliff nobody notices in a test run.  The checker bans
the known-unpicklable member kinds at their source:

``PKL001``
    In a payload-surface class (no ``__getstate__``/``__reduce__`` of its
    own), an instance attribute assigned a lambda, a locally defined
    function, a generator expression, an ``open()`` handle, or a
    threading/multiprocessing/concurrent.futures primitive.

Classes that implement ``__getstate__`` (or ``__reduce__``) opt out —
they have declared how they cross the process boundary.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from ..diagnostics import Diagnostic
from ..imports import import_origins, resolve_call
from ..project import Project, SourceFile
from ..registry import Rule, register

PKL_SCOPE = (
    "repro.fl.client", "repro.fl.algorithm", "repro.fl.models",
    "repro.fl.population", "repro.baselines", "repro.ssl",
    "repro.eval.harness",
)
"""The payload surfaces: clients and their stores, algorithms, models,
virtual populations, SSL methods, and encoder specs (all documented as
picklable in repro/fl/client.py)."""

_EXEMPTING_METHODS = {"__getstate__", "__reduce__", "__reduce_ex__"}
_UNPICKLABLE_FACTORY_PREFIXES = (
    "threading.", "multiprocessing.", "concurrent.futures.",
)


def _unpicklable_value(value: ast.expr, local_defs: Set[str],
                       origins: dict) -> Optional[str]:
    """Why ``value`` is a known-unpicklable member, or None."""
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(value, ast.Name) and value.id in local_defs:
        return f"the local function {value.id!r}"
    if isinstance(value, ast.Call):
        target = resolve_call(value.func, origins)
        if target in ("open", "io.open"):
            return "an open file handle"
        if target and any(target.startswith(p)
                          for p in _UNPICKLABLE_FACTORY_PREFIXES):
            return f"a {target} object"
    return None


@register
class UnpicklablePayloadRule(Rule):
    id = "PKL001"
    summary = ("payload classes shipped through ExecutionBackend must not "
               "hold known-unpicklable members")
    scope = PKL_SCOPE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        origins = import_origins(source)
        for klass in ast.walk(source.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            method_names = {stmt.name for stmt in klass.body
                            if isinstance(stmt, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))}
            if method_names & _EXEMPTING_METHODS:
                continue  # the class declares its own pickling protocol
            for method in klass.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                local_defs = {stmt.name for stmt in ast.walk(method)
                              if isinstance(stmt, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef))
                              and stmt is not method}
                for node in ast.walk(method):
                    if not isinstance(node, ast.Assign):
                        continue
                    self_targets = [
                        t for t in node.targets
                        if isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"]
                    if not self_targets:
                        continue
                    why = _unpicklable_value(node.value, local_defs, origins)
                    if why is not None:
                        attr = self_targets[0].attr
                        yield self.diagnostic(
                            source.rel, node.lineno,
                            f"{klass.name}.{attr} holds {why}; the process "
                            f"backend would silently fall back to serial",
                            hint="use a module-level callable / dataclass, "
                                 "or implement __getstate__")
