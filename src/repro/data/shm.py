"""Zero-copy shared-memory data plane for the process execution backend.

The process backend ships every sampled client across the process boundary
by pickle each round.  Client images dominate that payload: at the paper's
scale (100 clients x 200 rounds, §V-A) the round loop is bound by IPC,
not compute.  This module removes the dataset from the wire:

* :class:`SharedArrayStore` owns one ``multiprocessing.shared_memory``
  segment holding one ``.npcol`` container (:mod:`repro.arrays`): each
  client's ``train``/``test``/``unlabeled`` arrays are written into it
  exactly once, on the coordinator, straight into the segment;
* :class:`ArrayHandle` / :class:`DataSplitHandle` are lightweight references
  that pickle as ``(segment name, container length, column)`` and lazily
  attach the segment inside workers, exposing read-only numpy views.

With the plane active, a pickled client costs O(model + store) instead of
O(dataset); the arrays themselves cross the boundary zero-copy through the
kernel's shared mappings.  Determinism is untouched — workers read the very
bytes the coordinator wrote, at the container's 64-byte column alignment.
A worker validates each container once, when it first attaches the
segment, with the same checks as any ``.npcol`` file (magic, directory,
CRC-32): a torn or overwritten segment raises
:class:`~repro.arrays.CorruptArrayFile` naming the segment, never yields
wrong arrays.

Ownership rules
---------------
The coordinator creates the segment and is the only process that unlinks
it (:meth:`SharedArrayStore.close`, also hooked on ``atexit``).  Worker
processes only ever attach.  A worker keeps a live segment attached across
tasks and lets go of it once the coordinator has unlinked it — an unlinked
segment stays allocated for as long as any process maps it.  On the
coordinator, handles keep the original arrays, so clients stay fully usable
even after the store is closed — and no numpy view into the segment is ever
created on the owner side (a live view would make ``SharedMemory.close``
raise ``BufferError``).
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..arrays import ColumnLayout, CorruptArrayFile, unpack_columns

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # stripped-down builds without _multiprocessing
    _shared_memory = None

from .synthetic import DataSplit

__all__ = [
    "ArrayHandle",
    "DataSplitHandle",
    "SharedArrayStore",
    "share_client_splits",
    "shared_memory_available",
    "unshare_client_splits",
]


def shared_memory_available() -> bool:
    """True when a shared-memory segment can actually be created here.

    Creating a 1-byte probe segment catches every failure mode at once:
    missing ``_multiprocessing``, an unmounted ``/dev/shm``, and sandboxes
    that forbid ``shm_open``.
    """
    if _shared_memory is None:
        return False
    try:
        probe = _shared_memory.SharedMemory(create=True, size=1)
    except (OSError, PermissionError, ValueError):
        return False
    try:
        probe.close()
        probe.unlink()
    except OSError:
        pass
    return True


# ----------------------------------------------------------------------
# Worker-side attachment cache
# ----------------------------------------------------------------------
_ATTACHED: Dict[str, Tuple["_shared_memory.SharedMemory",
                           Dict[str, np.ndarray]]] = {}
"""Attached segments and their validated columns, by segment name."""

_RETIRED: List["_shared_memory.SharedMemory"] = []
"""Segments dropped from the cache that a live view still maps."""

_ATTACH_LOCK = threading.Lock()


def _unlinked(segment) -> bool:
    """Whether the owner has unlinked ``segment``: a POSIX shm file reads
    zero links after ``shm_unlink``.  Without a descriptor (Windows) an
    attachment lives until process exit."""
    fd = getattr(segment, "_fd", -1)
    return fd >= 0 and os.fstat(fd).st_nlink == 0


def _detach(names: Sequence[str]) -> None:
    """Drop ``names`` from the cache, then close every dropped segment that
    no view maps any more; the others are retried at the next call."""
    for name in names:
        _RETIRED.append(_ATTACHED.pop(name)[0])
    for segment in list(_RETIRED):
        try:
            segment.close()
        except BufferError:
            continue  # a view still maps it
        _RETIRED.remove(segment)


def _attached_columns(name: str, length: int) -> Dict[str, np.ndarray]:
    """The columns of segment ``name``, attached and validated once per
    process.  Each new attach first releases the segments the owner has
    unlinked, so a long-lived pool worker maps only the live ones.

    CPython < 3.13 registers attached segments with the resource tracker.
    Pool workers are children of the coordinator and share its tracker, so
    the extra registration is an idempotent set-add — it must NOT be
    undone here: the tracker keeps one entry per name, and unregistering
    from a worker would strip the coordinator's own registration, breaking
    the balanced unregister its ``unlink`` performs.  The shared tracker
    also gives crash safety for free: if the coordinator dies without
    closing, the tracker unlinks the segment at shutdown.
    """
    if _shared_memory is None:
        raise OSError("multiprocessing.shared_memory is unavailable")
    with _ATTACH_LOCK:
        entry = _ATTACHED.get(name)
        if entry is None:
            _detach([cached for cached, (segment, _) in _ATTACHED.items()
                     if _unlinked(segment)])
            segment = _shared_memory.SharedMemory(name=name)
            try:
                columns = unpack_columns(segment.buf[:length])
            except CorruptArrayFile as error:
                _RETIRED.append(segment)
                raise CorruptArrayFile(
                    f"shared segment {name!r}: {error}") from error
            for array in columns.values():
                array.flags.writeable = False
            entry = _ATTACHED[name] = (segment, columns)
        return entry[1]


@atexit.register
def _close_attachments() -> None:
    with _ATTACH_LOCK:
        _detach(list(_ATTACHED))  # views alive at exit: the OS reclaims maps


# ----------------------------------------------------------------------
# Handles
# ----------------------------------------------------------------------
class ArrayHandle:
    """A picklable reference to one column of a :class:`SharedArrayStore`.

    Pickles as ``(segment name, container length, column)``.  On the owner
    side the handle keeps the original array (``resolve`` never touches the
    segment); an unpickled replica lazily attaches the segment and exposes
    a read-only view of its column.
    """

    __slots__ = ("name", "length", "column", "_array")

    def __init__(self, name: str, length: int, column: str,
                 array: Optional[np.ndarray] = None):
        self.name = name
        self.length = int(length)
        self.column = column
        self._array = array

    def resolve(self) -> np.ndarray:
        if self._array is None:
            self._array = _attached_columns(self.name, self.length)[self.column]
        return self._array

    def __reduce__(self):
        return (ArrayHandle, (self.name, self.length, self.column))

    def __repr__(self) -> str:
        return (f"ArrayHandle(name={self.name!r}, length={self.length}, "
                f"column={self.column!r})")


class DataSplitHandle:
    """Duck-typed stand-in for :class:`~repro.data.synthetic.DataSplit`.

    Exposes the same read interface (``images``, ``labels``, ``len``,
    ``subset``, ``num_classes``) but pickles as two :class:`ArrayHandle`\\ s,
    so shipping a client to a worker costs bytes, not the dataset.
    """

    __slots__ = ("images_handle", "labels_handle")

    def __init__(self, images_handle: ArrayHandle, labels_handle: ArrayHandle):
        self.images_handle = images_handle
        self.labels_handle = labels_handle

    @property
    def images(self) -> np.ndarray:
        return self.images_handle.resolve()

    @property
    def labels(self) -> np.ndarray:
        return self.labels_handle.resolve()

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> DataSplit:
        indices = np.asarray(indices)
        return DataSplit(self.images[indices], self.labels[indices])

    @property
    def num_classes(self) -> int:
        labels = self.labels
        labeled = labels[labels >= 0]
        return int(labeled.max()) + 1 if labeled.size else 0

    def materialize(self) -> DataSplit:
        """An ordinary in-process :class:`DataSplit` copy of this handle."""
        return DataSplit(self.images.copy(), self.labels.copy())

    def __reduce__(self):
        return (DataSplitHandle, (self.images_handle, self.labels_handle))

    def __repr__(self) -> str:
        return (f"DataSplitHandle(n={len(self)}, "
                f"segment={self.images_handle.name!r})")


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
_LIVE_STORES: "weakref.WeakSet[SharedArrayStore]" = weakref.WeakSet()


class SharedArrayStore:
    """One shared-memory segment holding one ``.npcol`` container.

    Construction lays the named arrays out with
    :class:`~repro.arrays.ColumnLayout` and writes them straight into a
    fresh segment, so registration never holds a second copy of the
    payload; :meth:`handle` hands out per-column references, and
    :meth:`close` ends the segment when the run is over.  The creating
    process owns the segment and is the only one allowed to unlink it; a
    process-exit hook closes any store the caller forgot.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]):
        if _shared_memory is None:
            raise OSError("multiprocessing.shared_memory is unavailable")
        layout = ColumnLayout(columns)
        # repro: allow[PKL001] -- owner-side only: a store never crosses the process boundary; workers get its ArrayHandles
        self._segment = _shared_memory.SharedMemory(create=True,
                                                    size=layout.nbytes)
        self._columns = dict(columns)
        self._closed = False
        self.name = self._segment.name
        self.nbytes = layout.nbytes
        _LIVE_STORES.add(self)
        layout.write_into(self._segment.buf[:layout.nbytes])

    @property
    def closed(self) -> bool:
        return self._closed

    def handle(self, column: str) -> ArrayHandle:
        """An owner-side handle to ``column``; it keeps the original array."""
        return ArrayHandle(self.name, self.nbytes, column,
                           array=self._columns[column])

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        Existing attachments in live workers stay valid — POSIX shared
        memory survives unlink while mapped — but no new process can
        attach afterwards, and workers let go of it at their next attach.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except (BufferError, OSError):
            pass
        try:
            self._segment.unlink()
        except (FileNotFoundError, OSError):
            pass

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SharedArrayStore(name={self.name!r}, "
                f"nbytes={self.nbytes}, closed={self._closed})")


@atexit.register
def _close_live_stores() -> None:
    for store in list(_LIVE_STORES):
        store.close()


# ----------------------------------------------------------------------
# Client registration
# ----------------------------------------------------------------------
def share_client_splits(clients: Sequence) -> Optional[SharedArrayStore]:
    """Move every client's ``DataSplit``\\ s into one shared segment, in place.

    Returns the owning store, or ``None`` — leaving the clients untouched —
    when there is nothing to share or shared memory cannot be created here
    (no ``/dev/shm``, sandboxed ``shm_open``, stripped build).  Splits that
    are already handles are skipped, so registration is idempotent.
    """
    pending: List[Tuple[object, str, DataSplit]] = []
    for client in clients:
        for attr in ("train", "test", "unlabeled"):
            split = getattr(client, attr, None)
            if isinstance(split, DataSplit) and len(split) > 0:
                pending.append((client, attr, split))
    if not pending:
        return None
    columns: Dict[str, np.ndarray] = {}
    for index, (_, _, split) in enumerate(pending):
        columns[f"{index}.images"] = split.images
        columns[f"{index}.labels"] = split.labels
    try:
        store = SharedArrayStore(columns)
    except OSError:
        return None
    for index, (client, attr, _) in enumerate(pending):
        setattr(client, attr, DataSplitHandle(store.handle(f"{index}.images"),
                                              store.handle(f"{index}.labels")))
    telemetry.count("shm.segment_bytes", store.nbytes)
    telemetry.count("shm.splits_registered", len(pending))
    telemetry.count("shm.clients_registered",
                    len({id(client) for client, _, _ in pending}))
    return store


def unshare_client_splits(store: SharedArrayStore, clients: Sequence) -> None:
    """Undo :func:`share_client_splits` for ``store``, in place.

    Rebuilds plain ``DataSplit``\\ s from the owner-side arrays the handles
    retain (no copy — the originals were never dropped).  The owning
    backend calls this before closing the store so the clients can later
    be registered with a fresh backend, instead of carrying handles that
    name an unlinked segment — which would poison any subsequent
    process-backend run over the same clients.
    """
    for client in clients:
        for attr in ("train", "test", "unlabeled"):
            split = getattr(client, attr, None)
            if not isinstance(split, DataSplitHandle):
                continue
            if split.images_handle.name != store.name:
                continue  # owned by some other (possibly still live) store
            images = split.images_handle._array
            labels = split.labels_handle._array
            if images is None or labels is None:
                continue  # a worker-side replica; nothing to restore from
            setattr(client, attr, DataSplit(images, labels))
