"""ATM — atomic write-then-rename persistence.

The run store and session checkpoints promise readers "a missing file or
a complete file, never a torn one" (see :mod:`repro.ioutil`).  That
promise dies the moment any code in the persistence layer writes through
a raw handle, so in those modules every file write must route through
``ioutil.atomic_write_text``:

``ATM001``
    A non-atomic write primitive in a persistence-scoped module:
    ``open(..., "w"/"a"/"x"/...)``, ``.write_text()``/``.write_bytes()``,
    or stream-writing ``json.dump``/``pickle.dump``.  Reads are fine.

Deliberate exceptions exist — the session's append-only event stream,
the benchmarks' append-only perf journal, and ``atomic_write_text``'s own
temp-file write — and each carries an inline allow with its reason.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..diagnostics import Diagnostic
from ..imports import import_origins, resolve_call
from ..project import Project, SourceFile
from ..registry import Rule, register

ATM_SCOPE = ("repro.runs", "repro.fl.session", "repro.ioutil",
             "repro.arrays", "benchmarks")
"""Modules that persist store/checkpoint state, plus the benchmark and
smoke scripts whose JSON artifacts CI parses (a torn artifact fails the
gate with a JSON error instead of the real signal)."""

_WRITE_MODE_CHARS = set("wax+")


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The constant write mode of an ``open``-family call, if any."""
    mode_node: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        if _WRITE_MODE_CHARS & set(mode_node.value):
            return mode_node.value
    return None


@register
class NonAtomicWriteRule(Rule):
    id = "ATM001"
    summary = ("persistence-layer file writes must go through "
               "ioutil.atomic_write_text (write-then-rename)")
    scope = ATM_SCOPE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        origins = import_origins(source)
        hint = "use repro.ioutil.atomic_write_text, or suppress with a reason"
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node.func, origins)
            if target in ("open", "io.open", "os.fdopen"):
                mode = _open_write_mode(node)
                if mode is not None:
                    yield self.diagnostic(
                        source.rel, node.lineno,
                        f"raw open(..., {mode!r}) in a persistence module",
                        hint=hint)
            elif target in ("json.dump", "pickle.dump"):
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"{target} writes through a raw stream",
                    hint=f"serialize with {target}s(...) and "
                         f"atomic_write_text the result")
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("write_text", "write_bytes"):
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"Path.{node.func.attr}() is not atomic",
                    hint=hint)
