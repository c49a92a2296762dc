"""``.npcol`` — a binary columnar container for named numpy arrays.

One file holds an ordered set of named columns, each a raw, dtype- and
shape-tagged array, laid out so readers can map it without parsing or
copying (see docs/checkpoint-format.md for the byte-level diagram)::

    [ magic (8) | header_len u64 LE (8) | header JSON | pad to 64 ]
    [ column payloads, each 64-byte aligned, in directory order    ]
    [ footer: magic (8) | body_len u64 LE (8) | crc32 u32 LE | pad ]

The header JSON carries the schema version and the column directory —
``(name, dtype.str, shape, offset, nbytes)`` per column, offsets relative
to the start of the file.  ``dtype.str`` preserves byte order, so columns
round-trip *bitwise*: what :func:`read_columns` returns compares exactly
(dtype, shape, NaN payloads and all) with what :func:`write_columns` was
given.  The footer records the body length and its CRC-32, so a
truncated, torn, or bit-flipped file fails loudly on open with a typed
:class:`CorruptArrayFile` — never a silent misread.

Files are written via :func:`repro.ioutil.atomic_write_bytes` (the same
write-then-``os.replace`` discipline as every persisted artifact in this
repo), so on-disk containers are all-or-nothing.  The in-memory pair
:func:`pack_columns` / :func:`unpack_columns` is the same format without
the filesystem — the process execution backend ships per-client
algorithm state as one packed buffer instead of a pickled tree of
ndarrays (see ``repro.fl.session.codec.PackedState``).

This module is the sanctioned array-persistence primitive (invariant
ARR001 in docs/invariants.md): persistence-layer code stores arrays
through it, not through ad-hoc ``tobytes``/``np.save``/JSON float lists.
"""

from __future__ import annotations

import json
import mmap as _mmap
import zlib
from pathlib import Path
from typing import Dict, Mapping, Union

import numpy as np

from .ioutil import atomic_write_bytes

__all__ = [
    "ARRAY_SCHEMA",
    "CorruptArrayFile",
    "pack_columns",
    "unpack_columns",
    "write_columns",
    "read_columns",
]

ARRAY_SCHEMA = 1
"""Version stamp written into every container header."""

MAGIC = b"\x93NPCOL1\n"
FOOTER_MAGIC = b"NPCOLEND"
SUFFIX = ".npcol"

_ALIGNMENT = 64
_HEADER_FIXED = len(MAGIC) + 8  # magic + header_len
_FOOTER_SIZE = 24  # magic (8) + body_len u64 (8) + crc32 u32 (4) + pad (4)


class CorruptArrayFile(ValueError):
    """A container failed validation: truncated, torn, bit-flipped, or
    structurally inconsistent.  Raised eagerly on open — a corrupt file
    never yields arrays."""


def _align(offset: int) -> int:
    return -(-offset // _ALIGNMENT) * _ALIGNMENT


def _normalized(name: str, array) -> np.ndarray:
    value = np.asarray(array)
    if value.dtype.hasobject:
        raise TypeError(f"column {name!r}: cannot store object-dtype arrays")
    # C-contiguous raw bytes; dtype.str keeps the byte order, so even
    # non-native-endian inputs round-trip with their dtype intact.  The
    # reshape undoes ascontiguousarray's promotion of 0-d inputs to 1-d.
    return np.ascontiguousarray(value).reshape(value.shape)


def pack_columns(columns: Mapping[str, "np.ndarray"]) -> bytes:
    """Serialize named arrays into one ``.npcol`` container (as bytes).

    Column order is the mapping's insertion order and is preserved by
    :func:`unpack_columns`; packing is deterministic, so equal inputs
    produce equal bytes.  Non-contiguous and F-ordered inputs are
    normalized to C-contiguous; 0-d and empty arrays are fine.
    """
    arrays = {str(name): _normalized(name, value)
              for name, value in columns.items()}
    if len(arrays) != len(columns):
        raise ValueError("column names collide after str() normalization")

    # Lay out payloads first so the directory can carry real offsets; the
    # header length depends on the directory text, so iterate: offsets are
    # relative to the aligned end of the header, which only moves in
    # 64-byte steps, so one repair pass always converges.
    def directory(payload_start: int):
        entries, offset = [], payload_start
        for name, value in arrays.items():
            offset = _align(offset)
            entries.append([name, value.dtype.str, list(value.shape),
                            offset, int(value.nbytes)])
            offset += value.nbytes
        return entries, offset

    payload_start = _align(_HEADER_FIXED)
    for _ in range(4):
        entries, body_len = directory(payload_start)
        header = json.dumps({"schema": ARRAY_SCHEMA, "columns": entries},
                            separators=(",", ":")).encode()
        new_start = _align(_HEADER_FIXED + len(header))
        if new_start == payload_start:
            break
        payload_start = new_start
    else:  # pragma: no cover - the loop converges in <= 2 passes
        raise RuntimeError("npcol header layout failed to converge")

    # One zero-filled buffer of the container's full length; each
    # column's payload is copied once, straight into place.
    buffer = bytearray(body_len + _FOOTER_SIZE)
    with memoryview(buffer) as view:
        view[:len(MAGIC)] = MAGIC
        view[len(MAGIC):_HEADER_FIXED] = len(header).to_bytes(8, "little")
        view[_HEADER_FIXED:_HEADER_FIXED + len(header)] = header
        for (_name, _dtype, _shape, offset, nbytes), value in zip(
                entries, arrays.values()):
            view[offset:offset + nbytes] = value.reshape(-1).view(np.uint8)
        crc = zlib.crc32(view[:body_len])
        view[body_len:] = (FOOTER_MAGIC + body_len.to_bytes(8, "little")
                           + crc.to_bytes(4, "little") + b"\x00" * 4)
    return bytes(buffer)


def _fail(reason: str) -> None:
    raise CorruptArrayFile(f"corrupt npcol container: {reason}")


def _validate(buffer) -> list:
    """Check magic, footer, checksum and directory; return the directory."""
    view = memoryview(buffer)
    total = len(view)
    if total < _align(_HEADER_FIXED) + _FOOTER_SIZE:
        _fail(f"file too short ({total} bytes)")
    if bytes(view[:len(MAGIC)]) != MAGIC:
        _fail("bad magic (not an npcol file, or its head was overwritten)")
    footer = bytes(view[total - _FOOTER_SIZE:])
    if footer[:len(FOOTER_MAGIC)] != FOOTER_MAGIC:
        _fail("bad footer magic (truncated or torn write)")
    body_len = int.from_bytes(footer[8:16], "little")
    if body_len != total - _FOOTER_SIZE:
        _fail(f"footer records a {body_len}-byte body but the file holds "
              f"{total - _FOOTER_SIZE}")
    recorded_crc = int.from_bytes(footer[16:20], "little")
    actual_crc = zlib.crc32(view[:body_len])
    if recorded_crc != actual_crc:
        _fail(f"checksum mismatch (recorded {recorded_crc:#010x}, "
              f"computed {actual_crc:#010x})")
    header_len = int.from_bytes(view[len(MAGIC):_HEADER_FIXED], "little")
    if _HEADER_FIXED + header_len > body_len:
        _fail(f"header length {header_len} overruns the body")
    try:
        header = json.loads(bytes(view[_HEADER_FIXED:
                                       _HEADER_FIXED + header_len]))
    except ValueError:
        _fail("header is not valid JSON")
    if not isinstance(header, dict) or header.get("schema") != ARRAY_SCHEMA:
        _fail(f"unsupported container schema "
              f"{header.get('schema') if isinstance(header, dict) else header!r} "
              f"(this build reads schema {ARRAY_SCHEMA})")
    entries = header.get("columns")
    if not isinstance(entries, list):
        _fail("header carries no column directory")
    seen = set()
    for entry in entries:
        try:
            name, dtype_str, shape, offset, nbytes = entry
            dtype = np.dtype(dtype_str)
            shape = tuple(int(dim) for dim in shape)
            offset, nbytes = int(offset), int(nbytes)
        except (TypeError, ValueError):
            _fail(f"malformed directory entry {entry!r}")
        if name in seen:
            _fail(f"duplicate column name {name!r}")
        seen.add(name)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if dtype.itemsize * count != nbytes:
            _fail(f"column {name!r}: dtype {dtype_str} x shape {shape} is "
                  f"{dtype.itemsize * count} bytes, directory says {nbytes}")
        if offset < _HEADER_FIXED + header_len or offset + nbytes > body_len:
            _fail(f"column {name!r} payload [{offset}, {offset + nbytes}) "
                  f"falls outside the body")
    return entries


def unpack_columns(buffer: Union[bytes, bytearray, memoryview],
                   writable: bool = False) -> Dict[str, "np.ndarray"]:
    """Deserialize a container into ``{name: array}``, validating first.

    Arrays are zero-copy views into ``buffer`` (read-only for immutable
    buffers).  ``writable=True`` copies the payload once into a fresh
    ``bytearray`` so callers that mutate state in place (restored client
    stores) get ordinary writable arrays.
    """
    entries = _validate(buffer)
    if writable and not isinstance(buffer, bytearray):
        buffer = bytearray(buffer)
    view = memoryview(buffer)
    columns: Dict[str, np.ndarray] = {}
    for name, dtype_str, shape, offset, nbytes in entries:
        dtype = np.dtype(dtype_str)
        shape = tuple(int(dim) for dim in shape)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        array = np.frombuffer(view[offset:offset + nbytes], dtype=dtype,
                              count=count).reshape(shape)
        columns[name] = array
    return columns


def write_columns(path: Union[str, Path],
                  columns: Mapping[str, "np.ndarray"]) -> Path:
    """Atomically persist ``columns`` as a ``.npcol`` file."""
    return atomic_write_bytes(path, pack_columns(columns))


def read_columns(path: Union[str, Path], mmap: bool = False
                 ) -> Dict[str, "np.ndarray"]:
    """Load a ``.npcol`` file, verifying magic, layout and checksum.

    ``mmap=False`` (default) reads eagerly and returns ordinary writable
    arrays.  ``mmap=True`` maps the file copy-on-write and returns
    *read-only* views — cheap for render paths that only look at the
    columns; the mapping lives as long as the returned arrays do, and
    ``os.replace`` of the underlying file never disturbs an open mapping.
    """
    path = Path(path)
    try:
        if mmap:
            with open(path, "rb") as stream:
                mapped = _mmap.mmap(stream.fileno(), 0,
                                    access=_mmap.ACCESS_READ)
            columns = unpack_columns(mapped)
            for array in columns.values():
                array.flags.writeable = False
            return columns
        return unpack_columns(path.read_bytes(), writable=True)
    except OSError as error:
        raise CorruptArrayFile(
            f"cannot read npcol container {path}: {error}") from error
