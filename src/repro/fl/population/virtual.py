"""Virtual client populations: descriptors in, realized clients out.

A :class:`VirtualPopulation` holds the *recipe* for every client — a
:class:`ClientDescriptor` of ``(client id, generator seed, sample count)``
— and realizes an actual :class:`~repro.fl.client.ClientData` only when a
client participates.  Realization is a pure function of ``(population
seed, client_id)`` via :func:`~repro.fl.client.derive_rng`, so a client
evicted from the cache and realized again later gets bitwise-identical
arrays, and resident memory stays O(active clients) instead of
O(population): a million-client population costs a ``range`` and a few
scalars until someone is sampled.

A population is declared by ``num_clients`` + ``samples_per_client``
(optionally label-skewed with ``classes_per_client``): each client's
indices are *drawn* from the dataset at realization time, so descriptors
are O(1) and the population scales to millions of clients.  A federation
over explicit per-client partitions is a materialized client list
(:func:`~repro.fl.client.build_federation`).

Realized clients live in an LRU cache of ``max_resident`` entries,
pinned for the duration of a round (:meth:`realize_round` /
:meth:`end_round`).  Eviction syncs the client's persistent ``store``
back into the population (per-client algorithm state must survive
re-realization).  Counters ``population.realized`` /
``population.evicted`` record cache traffic on the ambient tracer.

A population pickles as its recipe alone — the dataset and the
realization parameters, no realized client and no store — which is what
a process pool installs in each worker.  A worker realizes a task's
client afresh (:meth:`attach`) with the store the task shipped, and
caches nothing.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ... import telemetry
from ...data.partition import stratified_split
from ...data.synthetic import SyntheticImageDataset
from ..client import ClientData, derive_rng, payload_nbytes

__all__ = ["ClientDescriptor", "VirtualPopulation"]

# Domain-separation tag for realization draws (index sampling, local
# splits, unlabeled shards).  Distinct from the sampler's participant
# stream and the availability streams; large enough to never collide
# with a round index in the (seed, round, client) coordinates.
_REALIZE_STREAM = 860_509


@dataclass(frozen=True)
class ClientDescriptor:
    """The O(bytes) stand-in for an unrealized client.

    Picklable and tiny — this is what :meth:`VirtualPopulation.payload_nbytes`
    measures for clients that never participated.  The realization draw
    produces the client's indices.
    """

    client_id: int
    seed: int
    num_samples: int


class VirtualPopulation:
    """Lazily-realized federation over one dataset.

    Parameters
    ----------
    dataset:
        The shared :class:`~repro.data.synthetic.SyntheticImageDataset`.
    num_clients:
        Population size.
    samples_per_client:
        Local sample count drawn per client.
    classes_per_client:
        Optional label skew: each client draws its samples from this many
        classes only.
    test_fraction, seed:
        As in :func:`~repro.fl.client.build_federation`; realization uses
        ``derive_rng(seed, _REALIZE_STREAM, client_id)``.
    unlabeled_per_client:
        Unlabeled samples drawn per client from the dataset's pool.
    max_resident:
        LRU cache capacity — the O(active) bound on resident clients.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        num_clients: int,
        *,
        samples_per_client: int = 32,
        classes_per_client: Optional[int] = None,
        test_fraction: float = 0.25,
        seed: int = 0,
        unlabeled_per_client: int = 0,
        max_resident: int = 64,
    ):
        self._size = int(num_clients)
        if self._size < 1:
            raise ValueError("population must hold at least one client")
        if samples_per_client < 4:
            # A stratified split needs a handful of samples per client to
            # stay non-degenerate; fail at declaration, not realization.
            raise ValueError("samples_per_client must be >= 4")
        if classes_per_client is not None and classes_per_client < 1:
            raise ValueError("classes_per_client must be >= 1")
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self._dataset = dataset
        self._labels = dataset.train.labels
        self._samples_per_client = int(samples_per_client)
        self._classes_per_client = (None if classes_per_client is None
                                    else int(classes_per_client))
        self._test_fraction = float(test_fraction)
        self._seed = int(seed)
        self._unlabeled_per_client = int(unlabeled_per_client)
        self.max_resident = int(max_resident)
        self._class_pools: Optional[List[np.ndarray]] = None
        if self._classes_per_client is not None:
            self._class_pools = [np.flatnonzero(self._labels == class_id)
                                 for class_id in range(dataset.num_classes)]
        self._resident: "OrderedDict[int, ClientData]" = OrderedDict()
        self._stores: Dict[int, Dict] = {}
        self._pinned: Set[int] = set()
        self.realized_total = 0
        self.evicted_total = 0

    def __getstate__(self) -> Dict:
        """The recipe: everything but the realized clients, their stores
        and the cache counters."""
        state = self.__dict__.copy()
        state.update(_resident=OrderedDict(), _stores={}, _pinned=set(),
                     realized_total=0, evicted_total=0)
        return state

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def client_ids(self) -> range:
        """All client ids — a ``range``, never a materialized list."""
        return range(self._size)

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def is_resident(self, client_id: int) -> bool:
        return int(client_id) in self._resident

    # ------------------------------------------------------------------
    # Descriptors and realization
    # ------------------------------------------------------------------
    def descriptor(self, client_id: int) -> ClientDescriptor:
        client_id = self._check_id(client_id)
        return ClientDescriptor(client_id, self._seed,
                                self._samples_per_client)

    def _check_id(self, client_id: int) -> int:
        client_id = int(client_id)
        if not 0 <= client_id < self._size:
            raise KeyError(
                f"client id {client_id} outside population [0, {self._size})")
        return client_id

    def _draw_indices(self, client_id: int,
                      rng: np.random.Generator) -> np.ndarray:
        if self._class_pools is not None:
            num_classes = len(self._class_pools)
            classes = rng.choice(
                num_classes,
                size=min(self._classes_per_client, num_classes),
                replace=False)
            pool = np.concatenate(
                [self._class_pools[class_id] for class_id in np.sort(classes)])
        else:
            pool = None
        pool_size = (len(self._dataset.train) if pool is None else len(pool))
        take = min(self._samples_per_client, pool_size)
        picked = np.sort(rng.choice(pool_size, size=take, replace=False))
        return picked if pool is None else pool[picked]

    def _build_client(self, client_id: int, store: Dict) -> ClientData:
        """Realize one client holding ``store`` — pure in ``(population
        seed, client_id)``."""
        rng = derive_rng(self._seed, _REALIZE_STREAM, client_id)
        indices = self._draw_indices(client_id, rng)
        train_idx, test_idx = stratified_split(
            indices, self._labels, self._test_fraction, rng)
        if train_idx.size == 0 or test_idx.size == 0:
            raise ValueError(
                f"client {client_id} would realize a degenerate split "
                f"(train={train_idx.size}, test={test_idx.size})")
        unlabeled = None
        if self._unlabeled_per_client > 0 and len(self._dataset.unlabeled) > 0:
            take = min(self._unlabeled_per_client, len(self._dataset.unlabeled))
            picked = np.sort(rng.choice(len(self._dataset.unlabeled),
                                        size=take, replace=False))
            unlabeled = self._dataset.unlabeled.subset(picked)
        client = ClientData(
            client_id=client_id,
            train=self._dataset.train.subset(train_idx),
            test=self._dataset.train.subset(test_idx),
            unlabeled=unlabeled,
            store=store,
        )
        return client

    def attach(self, client_id: int, store: Dict) -> ClientData:
        """Client ``client_id`` realized afresh, holding ``store``, and
        never cached: how a pool worker resolves a task's client
        (:class:`~repro.fl.execution.ResidentClient`)."""
        return self._build_client(self._check_id(client_id), store)

    def realize(self, client_id: int) -> ClientData:
        """The resident client, realizing (and possibly evicting) as needed."""
        client_id = self._check_id(client_id)
        client = self._resident.get(client_id)
        if client is not None:
            self._resident.move_to_end(client_id)
            return client
        client = self._build_client(client_id, self._stores.get(client_id, {}))
        self._resident[client_id] = client
        self.realized_total += 1
        telemetry.count("population.realized", 1)
        self._evict_to_budget()
        return client

    def realize_round(self, client_ids: Sequence[int]) -> List[ClientData]:
        """Realize one round's participants, pinned until :meth:`end_round`.

        Pinning keeps every participant resident for the whole round even
        when the round is wider than ``max_resident`` (the cache
        temporarily overshoots and :meth:`end_round` trims it back).
        """
        ids = [self._check_id(cid) for cid in client_ids]
        self._pinned = set(ids)
        return [self.realize(cid) for cid in ids]

    def end_round(self) -> None:
        """Unpin the current round's participants and trim to budget."""
        self._pinned = set()
        self._evict_to_budget()

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _evict_to_budget(self) -> None:
        while len(self._resident) > self.max_resident:
            victim = next((cid for cid in self._resident
                           if cid not in self._pinned), None)
            if victim is None:
                break  # everything resident is pinned by the round in flight
            self._evict(victim)

    def _evict(self, client_id: int) -> None:
        client = self._resident.pop(client_id)
        self._sync_store(client_id, client)
        self.evicted_total += 1
        telemetry.count("population.evicted", 1)

    def _sync_store(self, client_id: int, client: ClientData) -> None:
        # The session replaces client.store with the worker-returned dict
        # each round, so the population re-captures it here; per-client
        # algorithm state is O(ever-participated) by design (it *is* the
        # personalized state) while arrays stay O(resident).
        if client.store:
            self._stores[client_id] = client.store
        else:
            self._stores.pop(client_id, None)

    # ------------------------------------------------------------------
    # Stores, payloads, context
    # ------------------------------------------------------------------
    def stores(self) -> Dict[int, Dict]:
        """Every non-empty persistent client store (checkpoint surface)."""
        for client_id in list(self._resident):
            self._sync_store(client_id, self._resident[client_id])
        return {client_id: store
                for client_id, store in self._stores.items() if store}

    def set_stores(self, mapping: Dict[int, Dict]) -> None:
        """Replace all persistent stores (checkpoint restore surface)."""
        self._stores = {self._check_id(client_id): store
                        for client_id, store in mapping.items() if store}
        for client_id in list(self._resident):
            self._resident[client_id].store = self._stores.get(client_id, {})

    def client_store(self, client_id: int) -> Dict:
        client_id = self._check_id(client_id)
        client = self._resident.get(client_id)
        if client is not None:
            return client.store
        return self._stores.get(client_id, {})

    def payload_nbytes(self, client_id: int) -> int:
        """Pickled size of one client: the resident client whole, or its
        descriptor when it is not resident."""
        client_id = self._check_id(client_id)
        client = self._resident.get(client_id)
        if client is not None:
            return payload_nbytes(client)
        return len(pickle.dumps(self.descriptor(client_id),
                                protocol=pickle.HIGHEST_PROTOCOL))

    def context_payload(self) -> Dict:
        """Shape fingerprint for session contexts — O(1) in the population.

        Stands in for the per-client ``[id, num_samples]`` list a
        materialized federation hashes (enumerating a million clients
        into a checkpoint guard would defeat the point of being virtual).
        """
        return {
            "population": self._size,
            "seed": self._seed,
            "test_fraction": self._test_fraction,
            "samples_per_client": self._samples_per_client,
            "classes_per_client": self._classes_per_client,
            "unlabeled_per_client": self._unlabeled_per_client,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Evict everything (idempotent)."""
        self._pinned = set()
        for client_id in list(self._resident):
            self._evict(client_id)

    def __enter__(self) -> "VirtualPopulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"VirtualPopulation(size={self._size}, "
                f"resident={len(self._resident)}/{self.max_resident}, "
                f"seed={self._seed})")
