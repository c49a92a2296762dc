"""Shared helpers for the benchmark suite.

Every bench regenerates one table or figure of the paper at the scaled
configuration (docs/reproduction.md, "Scale"), prints the same rows/series
the paper reports, persists them under ``benchmarks/results/``, and
asserts the reproduction's *shape targets* (docs/reproduction.md, "Shape
targets") — directional claims, not absolute numbers.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.ioutil import atomic_write_text

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def persist(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a result block and save it to benchmarks/results/<name>.txt."""
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")
    atomic_write_text(results_dir / f"{name}.txt", text + "\n")


def persist_svg(results_dir: pathlib.Path, name: str, svg: str) -> None:
    """Save a rendered figure to benchmarks/results/<name>.svg."""
    atomic_write_text(results_dir / f"{name}.svg", svg)
    print(f"[figure saved: results/{name}.svg]")
