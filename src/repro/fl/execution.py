"""Pluggable client-execution backends for the federated round loop.

Every client's local SSL + personalization step is embarrassingly parallel,
so the session dispatches client work through an :class:`ExecutionBackend`
instead of a bare ``for`` loop.  Two backends ship with the repo:

* :class:`SerialBackend` — the reference implementation: run tasks inline,
  one after another, on the calling thread;
* :class:`ProcessBackend` — a process pool for true CPU parallelism.

A backend has one primitive, :meth:`ExecutionBackend.imap`: it applies a
task to every item and streams ``(input_index, result)`` pairs as results
complete.  :meth:`ExecutionBackend.map` collects the stream into input
order.  The session's items are cohorts (lists of clients), so a
per-client round is just a plan of singleton cohorts.

Determinism contract
--------------------
Parallel and serial runs must produce bitwise-identical results.  The
pieces that make this hold:

1. **Per-client seeded RNG.**  All client-side randomness is derived from
   ``derive_rng(seed, round_index, client_id)`` — a pure function of the
   run seed and the task's coordinates, never of execution order.
2. **Pure tasks.**  A task submitted to ``imap`` may execute on a *copy*
   of itself (``ProcessBackend`` pickles it with every chunk).  Anything
   the caller needs back — client stores, updated state — must flow
   through the task's return value, which the session writes back on the
   coordinating process.
3. **Resident algorithms and clients.**  Tasks carry a :class:`Resident`
   handle in place of the session's algorithm and a
   :class:`ResidentClient` in place of each client.  ``ProcessBackend``
   installs everything registered (:meth:`ExecutionBackend.register`) in
   each pool worker once: the algorithm, and the federation its clients
   come from.  An algorithm handle ships only the algorithm's
   ``server_state()``, which the worker loads into its resident copy: by
   the :meth:`~repro.fl.algorithm.FederatedAlgorithm.server_state`
   contract, that copy is the coordinator's algorithm.  A client handle
   ships only the client's id and store; the worker rebuilds the client
   from its installed federation, bitwise the coordinator's.
4. **Index-tagged results.**  ``imap`` tags every result with its input
   index, and ``map`` returns results in input order, regardless of
   completion order.

Fallback contract
-----------------
Backends constructed with ``fallback=True`` (the default) degrade to
serial execution — with a one-time warning — when the parallel machinery
is unavailable (no ``_multiprocessing``, sandboxed ``fork``, unpicklable
task, broken pool).  Because tasks are pure, re-running a failed chunk
serially is always safe; chunks that already completed are never rerun.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from concurrent.futures import as_completed

try:
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # stripped-down builds without _multiprocessing
    class BrokenProcessPool(RuntimeError):
        """Placeholder when concurrent.futures.process cannot import."""
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "ExecutionError",
    "Resident",
    "ResidentClient",
    "BACKENDS",
    "available_backends",
    "resolve_backend",
    "resolve_workers",
    "chunk_items",
]


class ExecutionError(RuntimeError):
    """A backend could not execute a task batch and fallback was disabled."""


def resolve_workers(workers: Optional[int]) -> int:
    """Turn a ``workers`` knob into a concrete positive count.

    ``None`` means "use every available core"; explicit values must be
    positive integers.
    """
    if workers is None:
        return max(os.cpu_count() or 1, 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be a positive integer or None, got {workers!r}")
    return workers


def chunk_items(items: Sequence, workers: int, chunk_size: Optional[int] = None
                ) -> List[List]:
    """Split ``items`` into contiguous chunks for dispatch.

    With the default automatic sizing, items spread evenly over the worker
    count (one chunk per worker) so per-task IPC overhead is paid once per
    worker, not once per client.  An explicit ``chunk_size`` trades load
    balance against dispatch overhead.
    """
    items = list(items)
    if not items:
        return []
    if chunk_size is None:
        chunk_size = math.ceil(len(items) / max(workers, 1))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [items[start:start + chunk_size] for start in range(0, len(items), chunk_size)]


def _run_chunk(task: Callable, chunk: Sequence) -> List:
    """Apply ``task`` to every item of one chunk (module-level: picklable)."""
    return [task(item) for item in chunk]


def _indexed_chunks(items: Sequence, workers: int,
                    chunk_size: Optional[int]) -> Dict[int, List]:
    """Contiguous chunks keyed by the global input index of their first
    item, in input order."""
    chunks: Dict[int, List] = {}
    start = 0
    for chunk in chunk_items(items, workers, chunk_size):
        chunks[start] = chunk
        start += len(chunk)
    return chunks


_INSTALLED: Dict[int, object] = {}
"""What this pool worker's initializer installed, by token; empty in the
coordinating process."""


def _install(payload: bytes) -> None:
    """Pool initializer: unpickle the registered objects once, for the
    life of this worker."""
    _INSTALLED.update(pickle.loads(payload))


class Resident:
    """What a task carries in place of a registered algorithm.

    In the process that bound it, the handle holds the algorithm itself,
    so serial execution (the process backend's fallback included) runs
    the coordinator's instance.
    Pickled, it is only the registration ``token`` and ``state``, which
    :meth:`resolve` applies to the instance a pool worker installed: for
    an algorithm, its ``server_state()`` when the task was bound.
    """

    def __init__(self, token: int, value, state):
        self.token = token
        self.state = state
        self._value = value

    def __reduce__(self):
        return type(self), (self.token, None, self.state)

    def resolve(self):
        """The object this handle names, in the current process."""
        if self._value is None:
            installed = _INSTALLED.get(self.token)
            if installed is None:
                raise LookupError(
                    f"object {self.token} is not installed in this worker; "
                    "register it with the backend that runs its tasks")
            self._value = self._load(installed)
        return self._value

    def _load(self, algorithm):
        if self.state:
            algorithm.load_server_state(self.state)
        return algorithm


class ResidentClient(Resident):
    """What a task carries in place of a client.

    ``state`` is the client's id and store; the token names the
    federation the client belongs to, installed in every pool worker
    once: a :class:`~repro.fl.client.ClientTable` or a
    :class:`~repro.fl.population.VirtualPopulation`.  A worker resolves
    the id to its own copy of the client's data and attaches the store,
    so a pickled handle costs the store, never the client's samples.
    """

    @property
    def client_id(self) -> int:
        return self.state[0]

    def _load(self, federation):
        return federation.attach(*self.state)


class ExecutionBackend:
    """Common interface: stream a pure task's results over items."""

    name = "base"

    pickles_tasks = False
    """Whether tasks reach their workers pickled, across a process
    boundary; the session then ships client stores packed."""

    def __init__(self, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None, fallback: bool = True):
        self.workers = resolve_workers(workers)
        if chunk_size is not None and (not isinstance(chunk_size, int) or chunk_size < 1):
            raise ValueError(f"chunk_size must be a positive integer or None, got {chunk_size!r}")
        self.chunk_size = chunk_size
        self.fallback = fallback
        self._warned_fallback = False

    # ------------------------------------------------------------------
    def register(self, value) -> int:
        """Register an algorithm or a federation for this backend's tasks
        and return the token its :class:`Resident` handles carry (the same
        token every time).  Backends that run tasks in this process
        install nothing: a handle resolves to the instance it holds."""
        return id(value)

    def imap(self, task: Callable, items: Sequence
             ) -> Iterator[Tuple[int, object]]:
        """Apply ``task`` to each item, yielding ``(input_index, result)``
        pairs as results complete.

        The one dispatch primitive: the caller (the session's round loop)
        can begin consuming results — writing client stores back, emitting
        ``ClientUpdateDone`` — before the whole batch finishes.  Completion
        order is *not* input order under parallel backends; callers needing
        determinism must place results by the yielded index before any
        order-sensitive reduction (the session aggregates updates in
        sampled order).

        The base implementation evaluates lazily in input order, which is
        exactly right for :class:`SerialBackend`: item ``i``'s result is
        consumed before item ``i + 1`` even starts.
        """
        for index, item in enumerate(items):
            yield index, task(item)

    def map(self, task: Callable, items: Sequence) -> List:
        """Apply ``task`` to each item, returning results in input order."""
        items = list(items)
        results: List = [None] * len(items)
        for index, result in self.imap(task, items):
            results[index] = result
        return results

    def close(self) -> None:
        """Release pools; the backend may be reused (pools are lazily rebuilt)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"

    # ------------------------------------------------------------------
    def _fallback_guard(self, cause: BaseException) -> None:
        """Raise if fallback is disabled; otherwise warn once per backend."""
        if not self.fallback:
            raise ExecutionError(
                f"{self.name} backend failed and fallback is disabled: {cause}"
            ) from cause
        if not self._warned_fallback:
            self._warned_fallback = True
            warnings.warn(
                f"{self.name} backend unavailable ({type(cause).__name__}: {cause}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )


class SerialBackend(ExecutionBackend):
    """Reference backend: inline execution on the calling thread."""

    name = "serial"


class ProcessBackend(ExecutionBackend):
    """Process-pool backend: true CPU parallelism across client updates.

    Tasks and payloads cross the process boundary by pickle, so everything
    reachable from them (algorithm, encoder factory, client data, stores)
    must be picklable; ``eval.harness.EncoderSpec`` exists for exactly
    this reason.  The pool is created lazily and kept alive across rounds
    to amortize worker start-up.

    :meth:`register` adds an algorithm or a federation to what the pool's
    initializer installs in every worker (a running pool shuts down, so
    the next dispatch starts one that has it); ``close`` drops the
    registrations.  Anything registered that does not pickle fails the
    pool start, which falls back to serial execution like an unpicklable
    task.  So client data crosses the boundary once per pool, and each
    task carries model state and client stores only.
    """

    name = "process"

    pickles_tasks = True

    def __init__(self, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None, fallback: bool = True):
        super().__init__(workers=workers, chunk_size=chunk_size, fallback=fallback)
        self._pool = None
        self._broken_cause: Optional[BaseException] = None
        self._registry: Dict[int, object] = {}

    # ------------------------------------------------------------------
    def register(self, value) -> int:
        token = super().register(value)
        if token not in self._registry:
            self._registry[token] = value
            self._shutdown_pool()  # its workers lack the new registration
        return token

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            # Pickled here, on the coordinator, so an algorithm that
            # cannot reach a worker fails before any worker starts.
            payload = pickle.dumps(self._registry,
                                   protocol=pickle.HIGHEST_PROTOCOL)
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             initializer=_install,
                                             initargs=(payload,))
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        self._shutdown_pool()
        self._registry.clear()

    def _mark_broken(self, cause: BaseException) -> None:
        self._broken_cause = cause
        self.close()

    def imap(self, task: Callable, items: Sequence
             ) -> Iterator[Tuple[int, object]]:
        unfinished = _indexed_chunks(items, self.workers, self.chunk_size)
        if unfinished and self._broken_cause is None:
            try:
                # Probe picklability up front: a cheap dumps() here turns an
                # opaque mid-flight pool crash into a clean serial fallback.
                pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                pool = self._ensure_pool()
                futures = {pool.submit(_run_chunk, task, chunk): start
                           for start, chunk in unfinished.items()}
            except (pickle.PicklingError, AttributeError, TypeError, ImportError,
                    OSError, PermissionError, RuntimeError, EOFError) as error:
                # Unpicklable tasks, sandboxes that forbid fork/spawn, pool
                # creation failures.
                self._mark_broken(error)
            else:
                try:
                    for future in as_completed(futures):
                        results = future.result()  # may raise BrokenProcessPool
                        start = futures[future]
                        del unfinished[start]
                        for offset, result in enumerate(results):
                            yield start + offset, result
                except BrokenProcessPool as error:
                    # A worker died (crash, OOM, sandbox kill) — infra
                    # failure, so fall back.  Any other exception came from
                    # the task itself and propagates, exactly as it would
                    # under SerialBackend.
                    self._mark_broken(error)
        if unfinished:
            # The pool is broken or never started: rerun only the chunks no
            # worker delivered (tasks are pure, so re-execution is safe).
            self._fallback_guard(self._broken_cause)
            for start, chunk in unfinished.items():
                for offset, item in enumerate(chunk):
                    yield start + offset, task(item)


BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def available_backends() -> List[str]:
    return sorted(BACKENDS)


def resolve_backend(spec, workers: Optional[int] = None,
                    chunk_size: Optional[int] = None) -> ExecutionBackend:
    """Build an :class:`ExecutionBackend` from a name or pass one through.

    ``spec`` may be an existing backend instance (returned unchanged), a
    registered name (``"serial"``, ``"process"``), or ``None`` (serial).
    Unknown names raise ``ValueError`` listing the registry.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = SerialBackend.name
    if not isinstance(spec, str):
        raise ValueError(
            f"backend must be a name or ExecutionBackend instance, got {type(spec).__name__}"
        )
    key = spec.lower()
    if key not in BACKENDS:
        raise ValueError(
            f"unknown execution backend '{spec}'; available: {available_backends()}"
        )
    if key == SerialBackend.name:
        # Serial ignores worker counts but still validates them, so a bad
        # ``--workers`` value fails loudly under every backend.
        resolve_workers(workers)
        return SerialBackend(workers=1, chunk_size=chunk_size)
    return BACKENDS[key](workers=workers, chunk_size=chunk_size)
