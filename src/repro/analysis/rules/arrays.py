"""ARR — binary array persistence goes through ``repro.arrays``.

Checkpoint sidecars, store array sidecars, and IPC payloads all share
one container (``.npcol``, :mod:`repro.arrays`): a self-validating format
whose truncated or torn files fail loudly on open.  That guarantee only
holds while the persistence layer has no second, ad-hoc serialization of
array data — a stray ``tobytes()`` has no checksum, and a JSON float
list silently decodes to whatever dtype the reader guesses.

``ARR001``
    An ad-hoc array (de)serialization primitive in an array-persistence
    module: ``ndarray.tobytes``/``tofile``/``tolist`` or the
    ``numpy.save``/``load``/``frombuffer``/``fromfile`` family.  Route
    the arrays through ``repro.arrays.pack_columns``/``write_columns``
    (or the codec's column split) instead.

The one deliberate exception — the legacy schema-1 inline-JSON encoding
in the session codec, kept byte-stable as the compatibility read/write
path — carries an inline allow with its reason.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..diagnostics import Diagnostic
from ..imports import import_origins, resolve_call
from ..project import Project, SourceFile
from ..registry import Rule, register

ARR_SCOPE = ("repro.fl.session", "repro.runs.store", "repro.runs.scheduler",
             "repro.experiments.embeddings")
"""The modules that persist or ship array payloads: session checkpoints
and IPC packing, the run store's sidecars and the scheduler routing them,
and the embedding executor producing the store's bulkiest columns."""

_ADHOC_METHODS = ("tobytes", "tofile", "tolist")

_ADHOC_CALLS = (
    "numpy.save", "numpy.savez", "numpy.savez_compressed", "numpy.load",
    "numpy.frombuffer", "numpy.fromfile", "numpy.memmap",
    "numpy.ndarray.tofile",
)


@register
class AdHocArrayPersistenceRule(Rule):
    id = "ARR001"
    summary = ("array persistence must go through repro.arrays (.npcol "
               "columns), not ad-hoc tobytes/tolist/np.save")
    scope = ARR_SCOPE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        origins = import_origins(source)
        hint = ("route arrays through repro.arrays (pack_columns/"
                "write_columns) so every byte is checksummed, or suppress "
                "with a reason")
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node.func, origins)
            if target in _ADHOC_CALLS:
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"{target} bypasses the validated .npcol container",
                    hint=hint)
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _ADHOC_METHODS:
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f".{node.func.attr}() is ad-hoc array serialization "
                    "in an array-persistence module",
                    hint=hint)
