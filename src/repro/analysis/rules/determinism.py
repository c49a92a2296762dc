"""DET — bitwise-determinism hazards.

The execution backends' contract (serial == process, bitwise)
holds only if every random draw is a pure function of (seed, streams) and
nothing observable depends on ambient state.  Three rules:

``DET001``
    RNG construction outside the blessed idiom.  ``derive_rng(seed,
    *streams)`` is the single entry point for randomness; direct
    ``np.random.default_rng`` / ``np.random.RandomState`` / module-level
    ``np.random.*`` draws and the stdlib ``random`` module re-introduce
    ambient or collision-prone streams.  The body of ``derive_rng``
    itself is exempt (something has to construct the generator).

``DET002``
    Wall-clock and OS entropy: ``time.time``/``perf_counter``,
    ``datetime.now``, ``os.urandom``, ``uuid.uuid1/4``, ``secrets``.
    Anything these feed diverges between runs and between workers.

``DET003``
    Iterating a set (or passing one to ``list``/``tuple``/``enumerate``/
    ``str.join``).  Set iteration order depends on insertion history and
    hash seeding; feeding it into aggregation or serialization makes
    output order a run artifact.  ``sorted(...)`` over a set is the fix
    and is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from ..diagnostics import Diagnostic
from ..imports import import_origins, resolve_call
from ..project import Project, SourceFile
from ..registry import Rule, register

DET_SCOPE = ("repro.fl", "repro.runs", "repro.nn",
             "repro.baselines", "repro.ssl", "repro.core")
"""Where determinism is load-bearing: the round loop, the store, the
autograd substrate, and every algorithm that runs on them.  Leaf packages
whose generators are always built from an explicit seed argument
(``repro.data``, ``repro.manifold``) sit below ``repro.fl`` in the layer
map and cannot import ``derive_rng`` without breaking LAY001, so they
stay out of scope by design."""

_WALL_CLOCK_ORIGINS = (
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.monotonic", "time.monotonic_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
)
_WALL_CLOCK_PREFIXES = ("secrets.",)


def _blessed_rng_calls(tree: ast.Module) -> Set[int]:
    """ids of Call nodes inside any ``derive_rng`` definition (exempt)."""
    blessed: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "derive_rng":
            for child in ast.walk(node):
                if isinstance(child, ast.Call):
                    blessed.add(id(child))
    return blessed


@register
class UnblessedRngRule(Rule):
    id = "DET001"
    summary = ("randomness must flow through derive_rng(seed, *streams); "
               "no direct np.random/random construction")
    scope = DET_SCOPE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        origins = import_origins(source)
        blessed = _blessed_rng_calls(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or id(node) in blessed:
                continue
            target = resolve_call(node.func, origins)
            if target is None:
                continue
            if target.startswith("numpy.random."):
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"direct {target.replace('numpy', 'np')} call",
                    hint="derive the generator with derive_rng(seed, *streams)")
            elif target == "random" or target.startswith("random."):
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"stdlib '{target}' draws from a process-global stream",
                    hint="derive a numpy generator with derive_rng instead")


@register
class WallClockRule(Rule):
    id = "DET002"
    summary = ("no wall-clock or OS entropy where results are computed or "
               "serialized")
    scope = DET_SCOPE

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        origins = import_origins(source)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node.func, origins)
            if target is None:
                continue
            if target in _WALL_CLOCK_ORIGINS or \
                    any(target.startswith(p) for p in _WALL_CLOCK_PREFIXES):
                yield self.diagnostic(
                    source.rel, node.lineno,
                    f"{target}() is run-dependent ambient state",
                    hint="keep it out of anything recorded or hashed; "
                         "suppress with a reason if it is diagnostics-only")


def _is_set_expr(node: ast.expr) -> bool:
    """Whether ``node`` is statically known to evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class SetIterationRule(Rule):
    id = "DET003"
    summary = ("set iteration order is nondeterministic; sort before "
               "iterating, aggregating, or serializing")
    scope = DET_SCOPE

    def _flag(self, source: SourceFile, node: ast.expr) -> Diagnostic:
        return self.diagnostic(
            source.rel, node.lineno,
            "iteration over a set expression",
            hint="wrap it in sorted(...) to pin the order")

    def check_file(self, source: SourceFile,
                   project: Project) -> Iterable[Diagnostic]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and _is_set_expr(node.iter):
                yield self._flag(source, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield self._flag(source, comp.iter)
            elif isinstance(node, ast.Call):
                # Order-preserving consumers of an unordered source.
                consumer = None
                if isinstance(node.func, ast.Name) \
                        and node.func.id in ("list", "tuple", "enumerate", "iter"):
                    consumer = node.func.id
                elif isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "join":
                    consumer = "join"
                if consumer and node.args and _is_set_expr(node.args[0]):
                    yield self._flag(source, node.args[0])
