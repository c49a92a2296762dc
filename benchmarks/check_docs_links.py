"""Docs link check (CI guard for README.md, the docs/ tree and the
Markdown files the code cites).

Scans every Markdown file in the repo root and ``docs/`` for relative
links — ``[text](path)`` and bare ``docs/...`` references — and fails if
any target file does not exist.  External links (``http(s)://``) and
pure anchors (``#...``) are skipped; a ``path#anchor`` link checks only
the file part.

Also scans every ``.py`` file under ``src/``, ``benchmarks/`` and
``examples/`` for the Markdown files its docstrings and comments name —
a root-level name like ``README.md`` or a path under ``docs/``, both
relative to the repo root — and fails on any that does not exist.

Also cross-checks ``docs/invariants.md`` against the invariant checker's
rule sources (regex over ``src/repro/analysis/``, no imports — the lint
environment has no numpy): every registered rule id must be documented,
and every documented id must exist.

Usage::

    python benchmarks/check_docs_links.py
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Prose references like `docs/artifacts.md` outside Markdown links; these
# are repo-root-relative by convention (a bare `docs/` with no file is fine).
BARE_DOCS_PATTERN = re.compile(r"\bdocs/[A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)*")
# Markdown files named in Python sources, e.g. `README.md` or
# `docs/invariants.md`; never the tail of a longer path, nor a glob.
PY_DOC_PATTERN = re.compile(r"(?<![\w/.*-])((?:docs/)?[\w.-]+\.md)\b")
PY_SOURCE_DIRS = ("src", "benchmarks", "examples")

RULE_ID_PATTERN = re.compile(
    r"\b(?:DET|ATM|ARR|FPR|LAY|TRC|PKL|TEL|POP|SUP)\d{3}\b")
# Rule declarations: `id = "DET001"` in rule classes, and the SUP keys of
# SUPPRESSION_RULES (`"SUP001": ...`).
RULE_DECL_PATTERN = re.compile(
    r'(?:id\s*=\s*|^\s*)"((?:DET|ATM|ARR|FPR|LAY|TRC|PKL|TEL|POP|SUP)\d{3})"',
    re.MULTILINE)


def markdown_files():
    yield from sorted(REPO_ROOT.glob("*.md"))
    yield from sorted((REPO_ROOT / "docs").glob("**/*.md"))


def check_file(path: Path) -> list:
    broken = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        targets = [(target, path.parent)
                   for target in LINK_PATTERN.findall(line)]
        # rstrip: a sentence-ending period after a bare reference
        # ("see docs/artifacts.md.") is punctuation, not path.
        targets += [(target.rstrip("."), REPO_ROOT)
                    for target in BARE_DOCS_PATTERN.findall(line)]
        for target, base in targets:
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (base / file_part).resolve()
            if not resolved.exists():
                broken.append(f"{path.relative_to(REPO_ROOT)}:{number}: "
                              f"dead link -> {target}")
    return broken


def python_files():
    for directory in PY_SOURCE_DIRS:
        yield from sorted((REPO_ROOT / directory).rglob("*.py"))


def check_python_file(path: Path) -> list:
    broken = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        for target in PY_DOC_PATTERN.findall(line):
            if not (REPO_ROOT / target).exists():
                broken.append(f"{path.relative_to(REPO_ROOT)}:{number}: "
                              f"names a missing doc -> {target}")
    return broken


def check_rule_catalogue() -> list:
    """Rule ids in docs/invariants.md <-> rule sources, both directions."""
    invariants = REPO_ROOT / "docs/invariants.md"
    analysis = REPO_ROOT / "src" / "repro" / "analysis"
    if not invariants.is_file():
        return ["docs/invariants.md is missing (the rule catalogue)"]
    documented = set(RULE_ID_PATTERN.findall(invariants.read_text()))
    declared = set()
    for source in sorted(analysis.rglob("*.py")):
        declared.update(RULE_DECL_PATTERN.findall(source.read_text()))
    problems = []
    for rule_id in sorted(declared - documented):
        problems.append(f"docs/invariants.md: rule {rule_id} is registered "
                        f"but undocumented")
    for rule_id in sorted(documented - declared):
        problems.append(f"docs/invariants.md: documents rule {rule_id}, "
                        f"which no checker source declares")
    return problems


def main() -> int:
    files = list(markdown_files())
    if not files:
        print("FAIL: no Markdown files found", file=sys.stderr)
        return 1
    sources = list(python_files())
    broken = [entry for path in files for entry in check_file(path)]
    broken += [entry for path in sources for entry in check_python_file(path)]
    broken += check_rule_catalogue()
    if broken:
        print("\n".join(broken), file=sys.stderr)
        print(f"FAIL: {len(broken)} dead relative link(s) across "
              f"{len(files)} Markdown and {len(sources)} Python files",
              file=sys.stderr)
        return 1
    print(f"docs link check: OK ({len(files)} Markdown files, "
          f"{len(sources)} Python files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
