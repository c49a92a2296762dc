"""The serializable server state a :class:`TrainingSession` advances.

``ServerState`` is an explicit snapshot of everything the round loop
mutates: the global model, the round cursor, per-round history, the
algorithm's server-side state (SCAFFOLD control variates, …), every
client's persistent store (SSL client-local state dicts, APFL/Ditto
personal models, …), and the availability model's RNG cursor.  It
round-trips through JSON *exactly* (see :mod:`repro.fl.session.codec`),
which is what makes round-level checkpoints safe: a run restored at round
k and continued is bitwise identical to the uninterrupted run.

Checkpoint files are written with the same write-then-``os.replace``
discipline as the run store, so a killed run never leaves a torn
checkpoint behind.

Three on-disk schemas exist (docs/checkpoint-format.md has the full
layout).  Schema 1 is the legacy single-file indented JSON with arrays
inline; it remains fully readable (and writable via
``write_checkpoint(..., arrays="json")``) forever.  Schemas 2 and 3 split
a checkpoint into a compact JSON *manifest* (same field structure, arrays
replaced by ``__col__`` references) plus content-addressed binary
``.npcol`` *segments* (:mod:`repro.arrays`) named
``<sha256[:12]>.npcol``.  A schema-2 manifest references one segment
holding every array leaf; that is what :func:`write_checkpoint` writes.
An incremental write (:func:`write_incremental_checkpoint`, which
:class:`~repro.fl.session.callbacks.RoundCheckpointer` makes every
round) packs one new segment with the global, algorithm, sampler and
availability state plus only the client stores that may have changed,
and its schema-3 manifest points every other store at the older segment
that holds its latest version.  The write order (segment first, then the
atomic manifest replace, then a sweep of unreferenced segments) means a
SIGKILL at any instant leaves the *previous* checkpoint — manifest and
segments — completely readable; content addressing means identical
states share one segment and checkpoint bytes stay deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ...arrays import CorruptArrayFile, pack_columns, unpack_columns
from ...ioutil import atomic_write_bytes, atomic_write_text
from ...nn.serialize import StateDict
from ..history import RoundRecord
from .codec import ColumnSink, decode_value, decode_with_columns, encode_value, \
    encode_with_columns

__all__ = [
    "CHECKPOINT_SCHEMA",
    "COLUMNAR_SCHEMA",
    "SEGMENTED_SCHEMA",
    "ServerState",
    "StoreRef",
    "write_checkpoint",
    "write_incremental_checkpoint",
    "read_checkpoint",
    "checkpoint_total_bytes",
    "checkpoint_segments",
    "sweep_checkpoint_segments",
]

CHECKPOINT_SCHEMA = 1
"""The legacy single-file JSON format (arrays inline; read + legacy write)."""

COLUMNAR_SCHEMA = 2
"""A manifest plus one ``.npcol`` segment holding every array (a full write)."""

SEGMENTED_SCHEMA = 3
"""A manifest whose client stores span several segments (an incremental
write).  A schema-2 reader would decode a carried store's ``__col__``
names against the wrong segment without error, hence its own number."""

_COMPACT_BELOW = 0.5
"""An incremental write compacts — folds every carried store into its new
segment — when the array bytes its manifest references fall under this
share of the bytes of the segments holding them, so a checkpoint's
segments stay under twice its live arrays."""

_SEGMENT_SUFFIX = ".npcol"
_SEGMENT_PATTERN = "????????????" + _SEGMENT_SUFFIX  # sha256[:12] hex names


def _segment_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(frozen=True)
class StoreRef:
    """Where one client store of a written checkpoint lives.

    ``segment`` is the manifest entry (``file``, ``sha256``, ``nbytes``,
    ``columns``) of the segment holding the store's arrays; ``skeleton``
    is the store encoded with ``__col__`` names of that segment's columns;
    ``nbytes`` is the size of its arrays, the live bytes it keeps there.
    """

    segment: Dict
    skeleton: Any
    nbytes: int


@dataclass
class ServerState:
    """One complete snapshot of a federated run in flight.

    ``round_index`` is the *next* round to execute: a state captured after
    round k-1 finished carries ``round_index == k`` and ``k`` round
    records.  ``client_stores`` maps client id to that client's persistent
    algorithm store; clients with empty stores are omitted.
    ``sampler_state`` is always empty — every sampler's draws are pure
    functions of ``(seed, round_index)`` — and stays in the format so
    checkpoint bytes do not move.
    ``availability_state`` persists the availability model's RNG cursor
    (:meth:`~repro.fl.population.AvailabilityModel.state_dict`) so a run
    resumed under churn replays the membership chain to the exact round —
    empty when the run has no availability model.

    ``context`` is a fingerprint of the run the checkpoint belongs to
    (config minus execution knobs, federation shape — or the cell's
    :class:`~repro.runs.RunKey` fingerprint for a sweep cell): a session
    refuses to restore a state whose context differs from its own, so
    resuming against a checkpoint taken under different settings fails
    loudly instead of silently reporting the old run's model on the new
    workload.
    """

    algorithm: str
    context: str = ""
    round_index: int = 0
    global_state: Optional[StateDict] = None
    algorithm_state: Dict = field(default_factory=dict)
    client_stores: Dict[int, Dict] = field(default_factory=dict)
    round_records: List[RoundRecord] = field(default_factory=list)
    sampler_state: Dict = field(default_factory=dict)
    availability_state: Dict = field(default_factory=dict)
    warned_non_finite: bool = False

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        """A JSON-ready dict that :meth:`from_json` inverts exactly."""
        return {
            "schema": CHECKPOINT_SCHEMA,
            "algorithm": self.algorithm,
            "context": self.context,
            "round_index": int(self.round_index),
            "global_state": (None if self.global_state is None
                             else encode_value(dict(self.global_state))),
            "algorithm_state": encode_value(self.algorithm_state),
            "client_stores": {str(client_id): encode_value(store)
                              for client_id, store in self.client_stores.items()},
            "round_records": [record.to_json() for record in self.round_records],
            "sampler_state": encode_value(self.sampler_state),
            "availability_state": encode_value(self.availability_state),
            "warned_non_finite": bool(self.warned_non_finite),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "ServerState":
        schema = payload.get("schema", CHECKPOINT_SCHEMA)
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"unsupported checkpoint schema {schema!r} "
                f"(this build reads schema {CHECKPOINT_SCHEMA})")
        global_state = payload.get("global_state")
        return cls(
            algorithm=payload["algorithm"],
            context=str(payload.get("context", "")),
            round_index=int(payload["round_index"]),
            global_state=(None if global_state is None
                          else decode_value(global_state)),
            algorithm_state=decode_value(payload.get("algorithm_state", {})),
            client_stores={int(client_id): decode_value(store)
                           for client_id, store in
                           payload.get("client_stores", {}).items()},
            round_records=[RoundRecord.from_json(record)
                           for record in payload.get("round_records", [])],
            sampler_state=decode_value(payload.get("sampler_state", {})),
            availability_state=decode_value(payload.get("availability_state", {})),
            warned_non_finite=bool(payload.get("warned_non_finite", False)),
        )

    # ------------------------------------------------------------------
    def to_manifest(self, carried: Optional[Mapping[int, StoreRef]] = None
                    ) -> Tuple[Dict, Dict, Dict[int, int]]:
        """The columnar split: ``(manifest, columns, store_nbytes)``.

        The manifest mirrors :meth:`to_json` field for field (so
        ``round_index`` stays a plain top-level int that pollers can read
        with ``json.loads``), but every ndarray leaf is extracted into
        ``columns`` and replaced by a ``__col__`` reference;
        ``store_nbytes`` gives the array bytes of each of this state's
        client stores.  The ``arrays`` slot is filled in by the writer once
        the new segment's content digest is known.

        ``carried`` maps client ids this state holds no store for to
        stores already written to older segments.  Their skeletons join
        ``client_stores`` ahead of this state's own, and the manifest
        becomes schema 3: ``segments`` lists the older segments and
        ``store_segments`` names, per carried id, the one holding it.
        """
        sink = ColumnSink()
        global_state = (None if self.global_state is None
                        else encode_with_columns(dict(self.global_state), sink))
        algorithm_state = encode_with_columns(self.algorithm_state, sink)
        stores, spans = {}, {}
        for client_id, store in self.client_stores.items():
            start = len(sink.columns)
            stores[str(client_id)] = encode_with_columns(store, sink)
            spans[client_id] = (start, len(sink.columns))
        sampler_state = encode_with_columns(self.sampler_state, sink)
        availability_state = encode_with_columns(self.availability_state, sink)
        sizes = [column.nbytes for column in sink.columns.values()]
        store_nbytes = {client_id: sum(sizes[start:end])
                        for client_id, (start, end) in spans.items()}

        carried = carried or {}
        manifest: Dict[str, Any] = {
            "schema": SEGMENTED_SCHEMA if carried else COLUMNAR_SCHEMA,
            "arrays": None,
        }
        if carried:
            older = {ref.segment["file"]: ref.segment
                     for ref in carried.values()}
            manifest["segments"] = list(older.values())
        manifest.update({
            "algorithm": self.algorithm,
            "context": self.context,
            "round_index": int(self.round_index),
            "global_state": global_state,
            "algorithm_state": algorithm_state,
            "client_stores": {**{str(client_id): ref.skeleton
                                 for client_id, ref in carried.items()},
                              **stores},
        })
        if carried:
            manifest["store_segments"] = {str(client_id): ref.segment["file"]
                                          for client_id, ref in carried.items()}
        manifest.update({
            "round_records": [record.to_json()
                              for record in self.round_records],
            "sampler_state": sampler_state,
            "availability_state": availability_state,
            "warned_non_finite": bool(self.warned_non_finite),
        })
        return manifest, sink.columns, store_nbytes

    @classmethod
    def from_manifest(cls, payload: Dict, columns: Dict,
                      segments: Optional[Mapping[str, Dict]] = None
                      ) -> "ServerState":
        """Invert :meth:`to_manifest`.  ``columns`` are the arrays of the
        manifest's own segment (``arrays``); ``segments`` maps each older
        segment's file name to its arrays (schema 3)."""
        schema = payload.get("schema")
        if schema not in (COLUMNAR_SCHEMA, SEGMENTED_SCHEMA):
            raise ValueError(
                f"unsupported checkpoint manifest schema {schema!r} (this "
                f"build reads schemas {COLUMNAR_SCHEMA} and {SEGMENTED_SCHEMA})")
        store_segments = payload.get("store_segments", {})
        segments = segments or {}

        def decode_store(client_id: str, value):
            segment = store_segments.get(client_id)
            return decode_with_columns(
                value, columns if segment is None else segments[segment])

        global_state = payload.get("global_state")
        return cls(
            algorithm=payload["algorithm"],
            context=str(payload.get("context", "")),
            round_index=int(payload["round_index"]),
            global_state=(None if global_state is None
                          else decode_with_columns(global_state, columns)),
            algorithm_state=decode_with_columns(
                payload.get("algorithm_state", {}), columns),
            client_stores={int(client_id): decode_store(client_id, store)
                           for client_id, store in
                           payload.get("client_stores", {}).items()},
            round_records=[RoundRecord.from_json(record)
                           for record in payload.get("round_records", [])],
            sampler_state=decode_with_columns(
                payload.get("sampler_state", {}), columns),
            availability_state=decode_with_columns(
                payload.get("availability_state", {}), columns),
            warned_non_finite=bool(payload.get("warned_non_finite", False)),
        )


def write_checkpoint(state: ServerState, path: Union[str, Path],
                     arrays: str = "columnar") -> Path:
    """Atomically persist all of ``state`` at ``path``; returns the
    manifest path.

    ``arrays="columnar"`` (default) writes a schema-2 checkpoint: a JSON
    manifest plus one content-addressed ``<sha256[:12]>.npcol`` segment
    beside it holding every array leaf — :func:`write_incremental_checkpoint`
    with nothing carried.  ``arrays="json"`` writes the legacy schema-1
    single file byte-for-byte as before.

    Keys are deliberately *not* sorted in either format: insertion order
    inside state dicts is semantic (state-dict arithmetic iterates keys
    in model order, and ``_check_same_keys`` compares ordered key lists),
    and the encoder emits it deterministically — so checkpoint bytes are
    stable without sorting, and sorting would corrupt the order on
    restore.
    """
    path = Path(path)
    if arrays == "json":
        text = json.dumps(state.to_json(), indent=2) + "\n"
        written = atomic_write_text(path, text)
        sweep_checkpoint_segments(path.parent)
        return written
    if arrays != "columnar":
        raise ValueError(f"arrays must be 'columnar' or 'json', got {arrays!r}")
    write_incremental_checkpoint(state, path)
    return path


def write_incremental_checkpoint(
        state: ServerState, path: Union[str, Path],
        carried: Optional[Mapping[int, StoreRef]] = None,
) -> Tuple[Dict[int, StoreRef], int]:
    """Write ``state`` as one new segment plus its manifest at ``path``.

    ``state.client_stores`` holds the stores that may have changed since
    the write ``carried`` came from (the first value it returned);
    ``carried`` says where that write left every store, and entries for
    ids ``state`` holds are ignored.  The new segment holds the global,
    algorithm, sampler and availability state plus ``state``'s stores,
    and the schema-3 manifest points every carried store at its older
    segment.  With nothing carried the
    checkpoint is a one-segment schema-2 one.

    When the arrays the manifest would reference fill less than
    ``_COMPACT_BELOW`` of the bytes of the segments holding them, the
    write compacts: the carried stores are read back (digest and CRC
    checked) and packed into the new segment, and nothing is carried.

    Order: the segment (skipped when a file with its digest exists), then
    the manifest by atomic replace, then a sweep of the segments no
    manifest in the directory references.  A crash between any two steps
    leaves the previous checkpoint readable.

    Returns where every store of the written checkpoint lives, and the
    bytes the write produced: one manifest plus the new segment.
    """
    path = Path(path)
    directory = path.parent
    carried = {client_id: ref for client_id, ref in (carried or {}).items()
               if client_id not in state.client_stores}
    manifest, columns, store_nbytes = state.to_manifest(carried)
    payload = pack_columns(columns)
    if carried:
        live = (sum(column.nbytes for column in columns.values())
                + sum(ref.nbytes for ref in carried.values()))
        held = {ref.segment["file"]: ref.segment["nbytes"]
                for ref in carried.values()}
        if live < _COMPACT_BELOW * (len(payload) + sum(held.values())):
            stores = _read_carried(path, carried)
            stores.update(state.client_stores)
            state, carried = replace(state, client_stores=stores), {}
            manifest, columns, store_nbytes = state.to_manifest()
            payload = pack_columns(columns)

    digest = _segment_digest(payload)
    segment = {"file": f"{digest}{_SEGMENT_SUFFIX}", "sha256": digest,
               "nbytes": len(payload), "columns": len(columns)}
    if not (directory / segment["file"]).is_file():
        atomic_write_bytes(directory / segment["file"], payload)
    manifest["arrays"] = segment
    # Compact separators: with thousands of stores the manifest encode is
    # the largest per-store cost a write has left.
    text = json.dumps(manifest, separators=(",", ":")) + "\n"
    atomic_write_text(path, text)
    sweep_checkpoint_segments(directory)
    skeletons = manifest["client_stores"]
    refs = dict(carried)
    refs.update({client_id: StoreRef(segment, skeletons[str(client_id)], nbytes)
                 for client_id, nbytes in store_nbytes.items()})
    return refs, len(text) + segment["nbytes"]


def _read_carried(manifest: Path, carried: Mapping[int, StoreRef]
                  ) -> Dict[int, Any]:
    """Decode carried stores from their segments (compaction)."""
    segments: Dict[str, Dict] = {}
    stores = {}
    for client_id, ref in carried.items():
        name = ref.segment["file"]
        if name not in segments:
            segments[name] = _read_segment(manifest, ref.segment, [client_id])
        stores[client_id] = decode_with_columns(ref.skeleton, segments[name])
    return stores


def _read_segment(manifest: Path, entry: Dict,
                  client_ids: Sequence[int] = ()) -> Dict:
    """One segment's columns, after checking its digest and (while
    unpacking) its CRC.  ``client_ids`` name the stores that need it."""
    segment = manifest.parent / str(entry["file"])
    needed = (f" (it holds the stores of client ids {sorted(client_ids)})"
              if client_ids else "")
    if not segment.is_file():
        raise CorruptArrayFile(
            f"checkpoint {manifest} references array segment "
            f"{entry['file']}{needed}, which does not exist (deleted, or "
            "the files were separated)")
    raw = segment.read_bytes()
    if _segment_digest(raw) != entry.get("sha256"):
        raise CorruptArrayFile(
            f"array segment {segment}{needed} does not match the digest "
            f"recorded in {manifest.name} (stale or swapped segment)")
    return unpack_columns(raw, writable=True)


def read_checkpoint(path: Union[str, Path]) -> ServerState:
    """Load a checkpoint of any schema (1–3).

    Schema-1 files decode through the legacy inline codec.  Columnar
    manifests load every segment they reference — their own and, for
    schema 3, each older one holding carried stores — verifying the
    container's checksum and the manifest's recorded content digest of
    each: a missing, torn, or mismatched segment raises
    :class:`~repro.arrays.CorruptArrayFile` naming the segment file (and
    the client ids whose stores need it) instead of yielding wrong arrays.
    """
    path = Path(path)
    with open(path) as stream:
        payload = json.load(stream)
    if payload.get("schema", CHECKPOINT_SCHEMA) not in (COLUMNAR_SCHEMA,
                                                        SEGMENTED_SCHEMA):
        return ServerState.from_json(payload)
    needed: Dict[str, List[int]] = {}
    for client_id, name in payload.get("store_segments", {}).items():
        needed.setdefault(name, []).append(int(client_id))
    info = payload.get("arrays")
    columns = _read_segment(path, info) if info else {}
    older = {entry["file"]: _read_segment(path, entry,
                                          needed.get(entry["file"], ()))
             for entry in payload.get("segments", [])}
    unlisted = [name for name in needed if name not in older]
    if unlisted:
        raise CorruptArrayFile(
            f"checkpoint {path} places the stores of client ids "
            f"{sorted(needed[unlisted[0]])} in segment {unlisted[0]}, which "
            "its segment list does not include")
    return ServerState.from_manifest(payload, columns, older)


def checkpoint_segments(path: Union[str, Path]) -> List[Path]:
    """The ``.npcol`` segments a manifest references: its own first, then
    the older ones a schema-3 manifest carries stores in.  Empty for
    legacy schema-1 files and unreadable manifests."""
    path = Path(path)
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except (OSError, ValueError):
        return []
    if not isinstance(payload, dict):
        return []
    entries = [payload.get("arrays"), *(payload.get("segments") or [])]
    names = [str(entry["file"]) for entry in entries
             if isinstance(entry, dict) and "file" in entry]
    return [path.parent / name for name in dict.fromkeys(names)]


def checkpoint_total_bytes(path: Union[str, Path]) -> int:
    """On-disk footprint of one checkpoint: manifest + every segment it
    references."""
    path = Path(path)
    total = path.stat().st_size
    for segment in checkpoint_segments(path):
        if segment.is_file():
            total += segment.stat().st_size
    return total


def sweep_checkpoint_segments(directory: Union[str, Path]) -> List[Path]:
    """Delete ``.npcol`` segments no manifest in ``directory`` references.

    Segments are content-addressed, a schema-3 manifest references the
    older segments its carried stores live in, and several checkpoints
    may share one directory, so cleanup is reference-driven: scan every
    ``*.json`` manifest for the segments it references and remove the
    rest.
    Returns the removed paths.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    referenced = set()
    for manifest in directory.glob("*.json"):
        referenced.update(segment.name
                          for segment in checkpoint_segments(manifest))
    removed = []
    for orphan in directory.glob(_SEGMENT_PATTERN):
        if orphan.name not in referenced:
            try:
                orphan.unlink()
            except OSError:
                continue  # a concurrent sweep got there first
            removed.append(orphan)
    return removed
