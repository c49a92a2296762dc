"""FPR — fingerprint classification of config and sweep fields.

A :class:`RunKey` fingerprint must hash *everything that determines a
cell's result and nothing that doesn't*.  The dangerous failure is
silent: a new ``FederatedConfig`` knob that changes results but is
accidentally excluded (stale cells get reused), or an execution knob
accidentally included (every stored cell orphaned).  So every field must
be classified, in code:

``FPR001``
    Every ``FederatedConfig`` field appears in exactly one of
    ``FINGERPRINTED_FIELDS`` (hashes into fingerprints) or
    ``EXECUTION_FIELDS`` (wall-clock-only, excluded), in
    ``repro/fl/config.py``; no stale names.

``FPR002``
    Every ``SweepSpec`` field appears in exactly one of
    ``SWEEP_FINGERPRINTED_FIELDS`` (flows into each cell's hashed
    payload) or ``SWEEP_COSMETIC_FIELDS`` (labels only), in
    ``repro/runs/serialize.py``; no stale names.

Both rules read the dataclass definitions and the classification tuples
straight from source ASTs — no imports — so a new field fails the check
the moment it is written, before any test runs it.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..diagnostics import Diagnostic
from ..project import Project, SourceFile
from ..registry import Rule, register

CONFIG_MODULE = "repro.fl.config"
SPEC_MODULE = "repro.runs.spec"
SERIALIZE_MODULE = "repro.runs.serialize"


def _class_fields(source: SourceFile, class_name: str) -> Tuple[int, List[str]]:
    """(line, field names) of a dataclass body; (0, []) when absent."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = [stmt.target.id for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            return node.lineno, fields
    return 0, []


def _tuple_constant(source: SourceFile, name: str) -> Optional[Tuple[int, List[str]]]:
    """(line, values) of a module-level ``NAME = ("a", "b", ...)``."""
    for stmt in source.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id == name \
                and isinstance(stmt.value, (ast.Tuple, ast.List)):
            values = [el.value for el in stmt.value.elts
                      if isinstance(el, ast.Constant) and isinstance(el.value, str)]
            return stmt.lineno, values
    return None


class _ClassificationRule(Rule):
    """Shared machinery: dataclass fields == union of two disjoint tuples."""

    dataclass_module = ""
    dataclass_name = ""
    classification_module = ""
    fingerprinted_name = ""
    exempt_name = ""

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        config = project.by_module(self.dataclass_module)
        home = project.by_module(self.classification_module)
        if config is None or home is None:
            return  # partial tree (e.g. a rule fixture for another family)
        class_line, fields = _class_fields(config, self.dataclass_name)
        if not fields:
            return
        fingerprinted = _tuple_constant(home, self.fingerprinted_name)
        exempt = _tuple_constant(home, self.exempt_name)
        if fingerprinted is None or exempt is None:
            missing = self.fingerprinted_name if fingerprinted is None \
                else self.exempt_name
            yield self.diagnostic(
                home.rel, 1,
                f"contract surface {missing} is missing from "
                f"{self.classification_module}",
                hint=f"declare {missing} = (...) so every "
                     f"{self.dataclass_name} field is classified")
            return
        fp_line, fp_fields = fingerprinted
        ex_line, ex_fields = exempt
        classified = set(fp_fields) | set(ex_fields)
        for name in fields:
            if name not in classified:
                yield self.diagnostic(
                    config.rel, class_line,
                    f"{self.dataclass_name}.{name} is unclassified: not in "
                    f"{self.fingerprinted_name} or {self.exempt_name}",
                    hint="decide whether the field determines results "
                         "(fingerprinted) or only wall-clock (exempt)")
        for name in sorted(set(fp_fields) & set(ex_fields)):
            yield self.diagnostic(
                home.rel, fp_line,
                f"{name!r} is listed as both fingerprinted and exempt",
                hint="a field belongs to exactly one classification")
        for name, line, label in (
                [(n, fp_line, self.fingerprinted_name) for n in fp_fields]
                + [(n, ex_line, self.exempt_name) for n in ex_fields]):
            if name not in fields:
                yield self.diagnostic(
                    home.rel, line,
                    f"{label} lists {name!r}, which is not a "
                    f"{self.dataclass_name} field",
                    hint="remove the stale entry")


@register
class ConfigClassificationRule(_ClassificationRule):
    id = "FPR001"
    summary = ("every FederatedConfig field must be classified as "
               "fingerprinted or execution-only in fl/config.py")
    dataclass_module = CONFIG_MODULE
    dataclass_name = "FederatedConfig"
    classification_module = CONFIG_MODULE
    fingerprinted_name = "FINGERPRINTED_FIELDS"
    exempt_name = "EXECUTION_FIELDS"


@register
class SweepClassificationRule(_ClassificationRule):
    id = "FPR002"
    summary = ("every SweepSpec field must be classified as fingerprinted "
               "or cosmetic in runs/serialize.py")
    dataclass_module = SPEC_MODULE
    dataclass_name = "SweepSpec"
    classification_module = SERIALIZE_MODULE
    fingerprinted_name = "SWEEP_FINGERPRINTED_FIELDS"
    exempt_name = "SWEEP_COSMETIC_FIELDS"
