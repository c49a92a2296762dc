"""TEL — telemetry stays out of the hashed-record surface.

The determinism contract says store cell records, fingerprints, round
histories, and checkpoints are pure functions of their inputs — byte
identical across schedulers, backends, and hosts.  Telemetry measures
wall-clock, which is none of those things, so it must only ever flow
*beside* the hashed artifacts (the ``telemetry/`` sidecar, ``--trace-out``
files), never through the modules that produce them:

``TEL001``
    A hashed-record surface module imports ``repro.telemetry``.  The
    banned set is everything whose output bytes are fingerprinted or
    compared bitwise: record encoding (``repro.runs.serialize``), cell
    fingerprints (``repro.runs.spec``), the store itself
    (``repro.runs.store`` — it *persists* sidecar text handed to it, but
    must not produce telemetry), round history (``repro.fl.history``),
    and session state serialization (``repro.fl.session.codec``,
    ``repro.fl.session.state``).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..diagnostics import Diagnostic
from ..imports import import_targets
from ..project import Project, SourceFile
from ..registry import Rule, register

RECORD_SURFACE: Tuple[str, ...] = (
    "repro.runs.serialize",
    "repro.runs.spec",
    "repro.runs.store",
    "repro.fl.history",
    "repro.fl.session.codec",
    "repro.fl.session.state",
)
"""Modules whose output bytes are hashed or compared bitwise."""


@register
class RecordSurfaceRule(Rule):
    id = "TEL001"
    summary = ("hashed-record surface modules must not import "
               "repro.telemetry")
    scope = RECORD_SURFACE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        for node, target in import_targets(source):
            if target == "repro.telemetry" \
                    or target.startswith("repro.telemetry."):
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"{source.module} is a hashed-record surface module and "
                    f"may not import {target}",
                    hint="telemetry is sidecar-only: record/export spans in "
                         "the scheduler or session and hand rendered text "
                         "to RunStore.write_telemetry instead")
