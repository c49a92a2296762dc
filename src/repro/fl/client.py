"""Client-side containers: local datasets and persistent per-client state.

The federation is built once from a dataset + partition; each client holds a
stratified local train/test split (the paper evaluates personalized models
on a local test set with the same class distribution as the local training
set), an optional shard of unlabeled data (STL-10), and a ``store`` dict
that stateful algorithms (SCAFFOLD, APFL, Ditto, FedPer, ...) use to keep
per-client variables across rounds.

Clients are also what the process execution backend installs in its
workers (:mod:`repro.fl.execution`): a session registers its client list
as a :class:`ClientTable`, which every pool worker unpickles once, and a
task then ships each client's id and ``store`` only.  So a
:class:`ClientData` — including everything algorithms put in ``store``
(state dicts, numpy arrays, plain containers) — must stay picklable, or
the process backend degrades to serial.  :func:`payload_nbytes` measures
what one client costs pickled whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.partition import stratified_split
from ..data.synthetic import DataSplit, SyntheticImageDataset

__all__ = [
    "ClientData",
    "ClientTable",
    "build_federation",
    "build_novel_clients",
    "derive_rng",
    "payload_nbytes",
]


@dataclass
class ClientData:
    """One client's local data and persistent algorithm state."""

    client_id: int
    train: DataSplit
    test: DataSplit
    unlabeled: Optional[DataSplit] = None
    is_novel: bool = False
    store: Dict = field(default_factory=dict)

    @property
    def num_train_samples(self) -> int:
        return len(self.train)

    def ssl_pool(self) -> DataSplit:
        """Images available for self-supervised training: the labeled local
        training images plus any unlabeled shard (labels are unused)."""
        if self.unlabeled is None or len(self.unlabeled) == 0:
            return self.train
        images = np.concatenate([self.train.images, self.unlabeled.images])
        labels = np.concatenate(
            [self.train.labels, np.full(len(self.unlabeled), -1, dtype=np.int64)]
        )
        return DataSplit(images, labels)


class ClientTable:
    """A client list by id, without the clients' stores: what a process
    pool installs for a materialized federation.

    A worker resolves a task's client id here and attaches the store the
    task shipped (:class:`~repro.fl.execution.ResidentClient`); the
    table's own clients never hold one.
    """

    def __init__(self, clients: Sequence[ClientData]):
        self._clients = {client.client_id: replace(client, store={})
                         for client in clients}

    def attach(self, client_id: int, store: Dict) -> ClientData:
        """Client ``client_id`` holding ``store``."""
        return replace(self._clients[client_id], store=store)


def derive_rng(seed: int, *streams: int) -> np.random.Generator:
    """Deterministic generator derivation — the single RNG entry point.

    Pure in its arguments — never dependent on call order — which is the
    property the parallel execution backends need to reproduce serial runs
    bitwise (see :mod:`repro.fl.execution`).  The DET001 invariant rule
    (``repro check``) enforces that all randomness in the algorithm stack
    flows through here; :mod:`repro.core` re-exports it as the documented
    public spelling.

    With ``streams``, the generator is seeded from the domain-separated
    list ``[seed, s0+1, s1+1, ...]`` so distinct coordinates never collide.
    With *no* streams it is the root stream ``default_rng(seed)`` — the
    historical spelling federation building has always used, kept
    bit-identical so every stored fingerprint and golden record survives.
    """
    if not streams:
        return np.random.default_rng(seed)
    return np.random.default_rng([seed] + [int(s) + 1 for s in streams])


def payload_nbytes(client: "ClientData") -> int:
    """Pickled size of one whole client, samples and store.

    A process pool pays this once per client, when it installs the
    federation; a task then carries the client's id and store only.
    Raises the underlying pickling error for unpicklable ``store``
    entries, which is the same condition that makes the process backend
    fall back to serial — so tests and benchmarks can assert the
    contract directly.
    """
    import pickle

    return len(pickle.dumps(client, protocol=pickle.HIGHEST_PROTOCOL))


def build_federation(
    dataset: SyntheticImageDataset,
    partitions: Sequence[np.ndarray],
    test_fraction: float = 0.25,
    seed: int = 0,
    share_unlabeled: bool = True,
) -> List[ClientData]:
    """Materialize clients from a dataset and a train-index partition.

    Each client's indices are stratified-split into local train/test; the
    dataset's unlabeled pool (STL-10) is sharded uniformly across clients
    when ``share_unlabeled`` is set.
    """
    rng = derive_rng(seed)
    labels = dataset.train.labels
    clients: List[ClientData] = []
    unlabeled_shards: List[Optional[DataSplit]] = [None] * len(partitions)
    if share_unlabeled and len(dataset.unlabeled) > 0:
        order = rng.permutation(len(dataset.unlabeled))
        chunks = np.array_split(order, len(partitions))
        unlabeled_shards = [dataset.unlabeled.subset(chunk) for chunk in chunks]
    for client_id, indices in enumerate(partitions):
        train_idx, test_idx = stratified_split(indices, labels, test_fraction, rng)
        if train_idx.size == 0 or test_idx.size == 0:
            raise ValueError(
                f"client {client_id} received a degenerate split "
                f"(train={train_idx.size}, test={test_idx.size})"
            )
        clients.append(
            ClientData(
                client_id=client_id,
                train=dataset.train.subset(train_idx),
                test=dataset.train.subset(test_idx),
                unlabeled=unlabeled_shards[client_id],
            )
        )
    return clients


def build_novel_clients(
    dataset: SyntheticImageDataset,
    num_clients: int,
    partition_fn,
    test_fraction: float = 0.25,
    seed: int = 1_000_003,
    first_id: int = 10_000,
) -> List[ClientData]:
    """Create clients that never participate in training (paper §V-D).

    Novel clients draw *fresh* samples from the generative process (the
    equivalent of held-out users), partitioned with the same non-i.i.d.
    scheme as the training clients.  ``partition_fn(labels, num_clients,
    rng)`` must return per-client index lists.
    """
    if num_clients == 0:
        return []
    rng = derive_rng(seed)
    per_class = max(
        8, (len(dataset.train) // max(dataset.num_classes, 1)) // max(num_clients // 4, 1)
    )
    labels = np.repeat(np.arange(dataset.num_classes), per_class)
    rng.shuffle(labels)
    fresh = dataset.sample(labels, seed=seed + 1)
    partitions = partition_fn(fresh.labels, num_clients, rng)
    clients: List[ClientData] = []
    for offset, indices in enumerate(partitions):
        train_idx, test_idx = stratified_split(indices, fresh.labels, test_fraction, rng)
        if train_idx.size == 0 or test_idx.size == 0:
            raise ValueError(f"novel client {offset} received a degenerate split")
        clients.append(
            ClientData(
                client_id=first_id + offset,
                train=fresh.subset(train_idx),
                test=fresh.subset(test_idx),
                is_novel=True,
            )
        )
    return clients
