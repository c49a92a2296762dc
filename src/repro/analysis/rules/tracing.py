"""TRC — trace/replay taping restrictions.

``repro.nn.trace`` records one client's forward/loss as a tape and
replays it K-wide; anything non-vectorizable raises ``UntraceableError``
*at record time* — but only if it reaches the tape at all.  Python-side
escapes (``.item()`` pulling a scalar out, boolean-mask indexing whose
output shape depends on data, an eager ``.backward()``) would silently
specialize the tape to the donor client, so the checker bans them where
traces are recorded:

``TRC001``
    Inside a ``with ... patched_parameters(...)`` block — the taped
    region — no ``.item()``, no ``.backward()``, no boolean-mask
    subscripts (``x[y == k]``, ``x[~mask]``).

``TRC002``
    Inside any ``cohort_update`` override — the cohort-level entry point
    whose contract is bitwise equality with the per-client path — and any
    ``planned_loss`` — the traced half of a loss, recorded once and
    replayed for every client — no ``.item()``, no boolean-mask
    subscripts, and no ``float()``/``int()`` over ``.data``: each pulls
    one client's value out as a Python constant.  (``.backward()`` is
    legal there: replay drives real tensors.)
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..diagnostics import Diagnostic
from ..project import Project, SourceFile
from ..registry import Rule, register

TRC_SCOPE = ("repro",)
"""Any repro module may record traces or override cohort_update."""


def _is_bool_mask_subscript(node: ast.Subscript) -> bool:
    """``x[<mask>]`` where the mask is visibly boolean-valued."""
    def boolish(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Compare):
            return True
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Invert):
            return boolish(expr.operand)
        if isinstance(expr, ast.BoolOp):
            return True
        return False

    index = node.slice
    if isinstance(index, ast.Tuple):
        return any(boolish(el) for el in index.elts)
    return boolish(index)


def _is_scalar_of_data(node: ast.Call) -> bool:
    """``float(...)``/``int(...)`` over an expression reading ``.data``."""
    return (isinstance(node.func, ast.Name) and node.func.id in ("float", "int")
            and any(isinstance(inner, ast.Attribute) and inner.attr == "data"
                    for arg in node.args for inner in ast.walk(arg)))


def _untraceable_ops(body: Iterable[ast.stmt], ban_backward: bool,
                     ban_scalar_data: bool = False) -> Iterator[ast.AST]:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "item":
                    yield node
                elif ban_backward and node.func.attr == "backward":
                    yield node
            elif isinstance(node, ast.Call) and ban_scalar_data \
                    and _is_scalar_of_data(node):
                yield node
            elif isinstance(node, ast.Subscript) and _is_bool_mask_subscript(node):
                yield node


def _describe(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return f"{node.func.id}() over .data"
        return f".{node.func.attr}()"
    return "boolean-mask indexing"


@register
class TapedRegionRule(Rule):
    id = "TRC001"
    summary = ("no .item()/.backward()/bool-mask indexing inside a "
               "patched_parameters taped region")
    scope = TRC_SCOPE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            taped = any(
                isinstance(item.context_expr, ast.Call)
                and isinstance(item.context_expr.func,
                               (ast.Name, ast.Attribute))
                and (item.context_expr.func.id
                     if isinstance(item.context_expr.func, ast.Name)
                     else item.context_expr.func.attr) == "patched_parameters"
                for item in node.items)
            if not taped:
                continue
            for bad in _untraceable_ops(node.body, ban_backward=True):
                yield self.diagnostic(
                    source.rel, bad.lineno,
                    f"{_describe(bad)} inside a taped region",
                    hint="repro.nn.trace declares this op untraceable; the "
                         "tape would specialize to the donor client")


COHORT_METHODS = ("cohort_update", "planned_loss")
"""Methods whose bodies must stay vectorizable: the cohort entry point and
the traced half of a planned loss."""


@register
class CohortUpdateRule(Rule):
    id = "TRC002"
    summary = ("cohort_update overrides and planned_loss must avoid .item(), "
               "bool-mask indexing and float()/int() over .data "
               "(untraceable, breaks batched==per-client)")
    scope = TRC_SCOPE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in COHORT_METHODS:
                for bad in _untraceable_ops(node.body, ban_backward=False,
                                            ban_scalar_data=True):
                    yield self.diagnostic(
                        source.rel, bad.lineno,
                        f"{_describe(bad)} in a {node.name} override",
                        hint="keep cohort bodies vectorizable; compute "
                             "client-specific values on raw arrays in the "
                             "per-client plan (loss_plan) or the per-client "
                             "fallback path")
