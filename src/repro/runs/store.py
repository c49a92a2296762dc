"""Persistent, resumable run store: one JSON record per experiment cell.

Directory layout (everything human-readable except ``arrays/``)::

    <runs-dir>/
        cells/<fingerprint>.json       # authoritative: one record per finished cell
        sweeps/<name>.json             # provenance: the sweep grids that ran here
        telemetry/<fingerprint>.jsonl  # diagnostic sidecar: spans + counters
        arrays/<fingerprint>.npcol     # binary sidecar: the cell's array columns

The ``cells/`` files are the source of truth — a cell is complete iff its
file exists.  Records are written with write-then-``os.replace`` so a
killed sweep never leaves a torn file, and the filename *is* the content
hash of the cell's parameters, so resume is a directory scan, identical
cells across sweeps share storage, and two schedulers racing on the same
cell converge on identical bytes.  A cell's wall clock is a diagnostic,
not a result: it lives only in the telemetry sidecar (the ``cell`` span),
never in the record.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

import numpy as np

from ..arrays import read_columns, write_columns
from ..ioutil import safe_filename
from .serialize import atomic_write_text, encode_record
from .spec import RunKey, SweepSpec

__all__ = ["RunStore", "ARRAYS_KEY", "CorruptCellRecord"]

ARRAYS_KEY = "__arrays__"
"""Reserved record key carrying in-memory array columns.

An executor that produces bulky numeric payloads (e.g. embedding point
clouds) attaches them under this key as a ``{name: ndarray}`` dict.  The
scheduler pops the key before the record is hashed or persisted and
routes the columns to the store's binary ``arrays/`` sidecar — so cell
records stay small, human-readable JSON and fingerprints never cover
container bytes.  In ephemeral runs (no store) the columns simply stay
attached in memory."""


def _fingerprint_of(key: Union[str, RunKey]) -> str:
    return key.fingerprint if isinstance(key, RunKey) else str(key)


class CorruptCellRecord(ValueError):
    """A stored cell record is unreadable — torn, not a JSON object, or
    filed under another cell's fingerprint.  Raised on read, naming the
    file: a damaged record never reaches a report as a finished cell."""


class RunStore:
    """Filesystem-backed store of completed experiment cells."""

    def __init__(self, root: Union[str, Path], create: bool = True):
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.sweeps_dir = self.root / "sweeps"
        if create:
            self.cells_dir.mkdir(parents=True, exist_ok=True)
            self.sweeps_dir.mkdir(parents=True, exist_ok=True)
        elif not self.cells_dir.is_dir():
            raise FileNotFoundError(f"no run store at {self.root}")

    # ------------------------------------------------------------------
    def path_for(self, key: Union[str, RunKey]) -> Path:
        return self.cells_dir / f"{_fingerprint_of(key)}.json"

    def has(self, key: Union[str, RunKey]) -> bool:
        return self.path_for(key).is_file()

    def completed_fingerprints(self) -> Set[str]:
        """Scan ``cells/`` — the authoritative completion set.

        In-flight temp files are dot-prefixed with a ``.tmp`` suffix, so
        the ``*.json`` glob can never pick up a partial write.
        """
        return {path.stem for path in self.cells_dir.glob("*.json")}

    def __len__(self) -> int:
        return len(self.completed_fingerprints())

    def __repr__(self) -> str:
        return f"RunStore({str(self.root)!r}, cells={len(self)})"

    # ------------------------------------------------------------------
    def write_record(self, record: Dict) -> Path:
        """Atomically persist one cell record under its fingerprint."""
        fingerprint = record.get("fingerprint")
        if not fingerprint:
            raise ValueError("record is missing its 'fingerprint' field")
        return atomic_write_text(self.path_for(fingerprint), encode_record(record))

    def read_record(self, key: Union[str, RunKey]) -> Dict:
        """The stored record of cell ``key``.

        Raises ``KeyError`` if the cell has no record, and
        :class:`CorruptCellRecord` if its file does not parse to a record
        whose ``fingerprint`` is the file's name.
        """
        path = self.path_for(key)
        if not path.is_file():
            raise KeyError(f"no record for cell {_fingerprint_of(key)} in {self.root}")
        try:
            with open(path) as stream:
                record = json.load(stream)
        except ValueError as error:
            raise CorruptCellRecord(
                f"corrupt cell record {path}: {error}") from error
        if not isinstance(record, dict):
            raise CorruptCellRecord(
                f"corrupt cell record {path}: not a JSON object")
        if record.get("fingerprint") != path.stem:
            raise CorruptCellRecord(
                f"misplaced cell record {path}: it holds cell "
                f"{record.get('fingerprint')!r}")
        return record

    # ------------------------------------------------------------------
    def missing(self, cells: Sequence[RunKey]) -> List[RunKey]:
        """The subset of ``cells`` with no stored record, in input order."""
        done = self.completed_fingerprints()
        return [key for key in cells if key.fingerprint not in done]

    def load_records(self, cells: Sequence[Union[str, RunKey]],
                     strict: bool = True) -> List[Optional[Dict]]:
        """Records for ``cells`` in input order (canonical grid order).

        ``strict=True`` raises on any missing cell, naming them all;
        ``strict=False`` returns ``None`` placeholders instead.
        """
        records: List[Optional[Dict]] = []
        absent: List[str] = []
        for key in cells:
            if self.has(key):
                records.append(self.read_record(key))
            else:
                records.append(None)
                label = key.label() if isinstance(key, RunKey) else str(key)
                absent.append(label)
        if strict and absent:
            raise KeyError(
                f"{len(absent)} of {len(list(cells))} cells missing from {self.root}: "
                + "; ".join(absent[:5]) + ("; ..." if len(absent) > 5 else ""))
        return records

    # ------------------------------------------------------------------
    @property
    def telemetry_dir(self) -> Path:
        return self.root / "telemetry"

    def telemetry_path_for(self, key: Union[str, RunKey]) -> Path:
        return self.telemetry_dir / f"{_fingerprint_of(key)}.jsonl"

    def write_telemetry(self, key: Union[str, RunKey], text: str) -> Path:
        """Atomically persist one cell's ``telemetry.jsonl`` sidecar.

        Sidecars are pure diagnostics: they live beside — never inside —
        the hashed cell records (the TEL001 invariant), so writing one
        cannot perturb fingerprints, resume decisions, or report output.
        """
        self.telemetry_dir.mkdir(parents=True, exist_ok=True)
        return atomic_write_text(self.telemetry_path_for(key), text)

    # ------------------------------------------------------------------
    @property
    def arrays_dir(self) -> Path:
        return self.root / "arrays"

    def arrays_path_for(self, key: Union[str, RunKey]) -> Path:
        return self.arrays_dir / f"{_fingerprint_of(key)}.npcol"

    def has_arrays(self, key: Union[str, RunKey]) -> bool:
        return self.arrays_path_for(key).is_file()

    def write_arrays(self, key: Union[str, RunKey],
                     columns: Dict[str, np.ndarray]) -> Path:
        """Atomically persist one cell's binary ``.npcol`` array sidecar.

        Like telemetry, array sidecars live beside — never inside — the
        hashed cell records: the record stores only the column *names*,
        so fingerprints are computed over logical values and survive any
        change to the container format.
        """
        self.arrays_dir.mkdir(parents=True, exist_ok=True)
        return write_columns(self.arrays_path_for(key), columns)

    def read_arrays(self, key: Union[str, RunKey],
                    mmap: bool = False) -> Dict[str, np.ndarray]:
        """Read a cell's array sidecar; raises ``KeyError`` if absent."""
        path = self.arrays_path_for(key)
        if not path.is_file():
            raise KeyError(
                f"no array sidecar for cell {_fingerprint_of(key)} in {self.root}")
        return read_columns(path, mmap=mmap)

    # ------------------------------------------------------------------
    def write_sweep(self, sweep: SweepSpec) -> Path:
        """Persist the sweep grid itself (provenance for ``repro report``)."""
        path = self.sweeps_dir / f"{safe_filename(sweep.name)}.json"
        return atomic_write_text(path, encode_record(sweep.to_jsonable()))
