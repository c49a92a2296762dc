"""Shared-memory client-data plane: handles, store lifecycle, determinism."""

import pickle
import warnings

import numpy as np
import pytest

from repro.data import (
    DataSplit,
    DataSplitHandle,
    SharedArrayStore,
    make_cifar10_like,
    partition_iid,
    share_client_splits,
    shared_memory_available,
)
from repro.data import shm as shm_module
from repro.eval import build_method, make_dataset, make_encoder_factory
from repro.eval.harness import NonIIDSetting, make_partitions
from repro.fl import (
    FederatedConfig,
    ProcessBackend,
    SerialBackend,
    TrainingSession,
    build_federation,
    payload_nbytes,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory in this environment"
)


def _attach_raises(name):
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Handles and the store
# ----------------------------------------------------------------------
class TestHandles:
    def test_array_handle_pickles_small_and_resolves_equal(self):
        array = np.arange(48.0).reshape(4, 3, 4)
        with SharedArrayStore.create(SharedArrayStore.required_nbytes([array])) as store:
            handle = store.add(array)
            assert handle.resolve() is array  # owner side: the original
            blob = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(blob) < 200  # (name, shape, dtype, offset) only
            replica = pickle.loads(blob)
            view = replica.resolve()
            np.testing.assert_array_equal(view, array)
            assert not view.flags.writeable  # shared bytes are read-only
            assert replica.resolve() is view  # attach once, then cached

    def test_data_split_handle_round_trip(self):
        split = DataSplit(np.random.default_rng(0).standard_normal((6, 3, 4, 4)),
                          np.array([0, 1, 2, 2, 1, 0]))
        nbytes = SharedArrayStore.required_nbytes([split.images, split.labels])
        with SharedArrayStore.create(nbytes) as store:
            handle = split.to_handle(store)
            replica = pickle.loads(pickle.dumps(handle))
            assert isinstance(replica, DataSplitHandle)
            assert len(replica) == len(split)
            assert replica.num_classes == split.num_classes
            np.testing.assert_array_equal(replica.images, split.images)
            np.testing.assert_array_equal(replica.labels, split.labels)
            sub = replica.subset([1, 3])
            assert isinstance(sub, DataSplit)
            np.testing.assert_array_equal(sub.labels, split.labels[[1, 3]])
            materialized = replica.materialize()
            assert isinstance(materialized, DataSplit)
            assert materialized.images.flags.writeable

    def test_store_rejects_overflow_and_writes_after_close(self):
        array = np.arange(8.0)
        store = SharedArrayStore.create(array.nbytes)
        store.add(array)
        with pytest.raises(ValueError, match="overflow"):
            store.add(array)
        store.close()
        store.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            store.add(array)

    def test_close_unlinks_segment(self):
        store = SharedArrayStore.create(64)
        name = store.name
        store.close()
        _attach_raises(name)


# ----------------------------------------------------------------------
# Client registration
# ----------------------------------------------------------------------
def _make_clients(num_clients=3):
    dataset = make_cifar10_like(image_size=8, train_per_class=10, test_per_class=2,
                                seed=0)
    parts = partition_iid(dataset.train.labels, num_clients, np.random.default_rng(0))
    return build_federation(dataset, parts, seed=2)


class TestShareClientSplits:
    def test_swaps_splits_in_place_and_shrinks_payload(self):
        clients = _make_clients()
        inline = payload_nbytes(clients[0])
        store = share_client_splits(clients)
        try:
            assert store is not None
            for client in clients:
                assert isinstance(client.train, DataSplitHandle)
                assert isinstance(client.test, DataSplitHandle)
            wire = payload_nbytes(clients[0])
            assert inline / wire >= 10
            # inline=True reconstructs the pre-plane payload size.
            assert payload_nbytes(clients[0], inline=True) == pytest.approx(
                inline, rel=0.01
            )
        finally:
            store.close()

    def test_registration_is_idempotent(self):
        clients = _make_clients()
        first = share_client_splits(clients)
        try:
            assert share_client_splits(clients) is None  # nothing left to share
        finally:
            first.close()

    def test_clients_stay_usable_after_close(self):
        # Owner-side handles keep the original arrays, so closing the store
        # must not invalidate coordinator-side reads.
        clients = _make_clients()
        store = share_client_splits(clients)
        store.close()
        client = clients[0]
        assert len(client.ssl_pool()) == len(client.train)
        assert client.train.images.shape[0] == len(client.train)

    def test_unavailable_shared_memory_falls_back(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        clients = _make_clients()
        assert share_client_splits(clients) is None
        assert all(isinstance(c.train, DataSplit) for c in clients)
        assert not shm_module.shared_memory_available()


# ----------------------------------------------------------------------
# Backend + session integration
# ----------------------------------------------------------------------
TINY_CONFIG = FederatedConfig(
    num_clients=3, clients_per_round=3, rounds=2, local_epochs=1,
    batch_size=8, personalization_epochs=2, personalization_batch_size=8,
)


def _run_tiny(backend, workers=None, shared_memory=None, guard_warnings=True):
    dataset = make_dataset("cifar10", seed=0, image_size=8,
                           train_per_class=12, test_per_class=2)
    partitions = make_partitions(
        dataset.train.labels, TINY_CONFIG.num_clients,
        NonIIDSetting("iid", 0, 12), np.random.default_rng(1),
    )
    encoder_factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8), seed=7)
    config = TINY_CONFIG.with_overrides(backend=backend, workers=workers,
                                        shared_memory=shared_memory)
    clients = build_federation(dataset, partitions, seed=2)
    algorithm = build_method("pfl-simclr", config, dataset.num_classes,
                             encoder_factory, projection_dim=8, hidden_dim=16)
    session = TrainingSession(algorithm, clients, config)
    with warnings.catch_warnings():
        if guard_warnings:
            warnings.simplefilter("error", RuntimeWarning)
        result = session.execute()
    return result, session


class TestPlaneIntegration:
    def test_process_backend_with_plane_matches_serial_bitwise(self):
        serial, serial_session = _run_tiny("serial")
        assert not serial_session.shared_memory_active  # serial bypasses the plane
        shared, shared_session = _run_tiny("process", workers=2, shared_memory=True)
        assert shared_session.shared_memory_active
        assert shared.accuracies == serial.accuracies
        assert [r.mean_loss for r in shared.rounds] == \
            [r.mean_loss for r in serial.rounds]
        assert [r.participant_ids for r in shared.rounds] == \
            [r.participant_ids for r in serial.rounds]

    def test_plane_defaults_on_for_process_backend(self):
        _, session = _run_tiny("process", workers=2)
        assert session.shared_memory_active

    def test_plane_can_be_disabled(self):
        result, session = _run_tiny("process", workers=2, shared_memory=False)
        assert not session.shared_memory_active
        baseline, _ = _run_tiny("serial")
        assert result.accuracies == baseline.accuracies

    def test_no_leaked_segments_after_backend_close(self):
        backend = ProcessBackend(workers=2)
        clients = _make_clients()
        assert backend.register_clients(clients)
        names = [store.name for store, _ in backend._stores]
        assert names
        backend.close()
        assert backend._stores == []
        for name in names:
            _attach_raises(name)

    def test_backend_close_restores_plain_splits_for_reregistration(self):
        # close() must leave the clients re-registerable: a second backend
        # over the same clients gets a fresh store, not dead handles that
        # name an unlinked segment.
        clients = _make_clients()
        first = ProcessBackend(workers=2)
        assert first.register_clients(clients)
        first.close()
        for client in clients:
            assert isinstance(client.train, DataSplit)
            assert isinstance(client.test, DataSplit)
        second = ProcessBackend(workers=2)
        assert second.register_clients(clients)
        assert payload_nbytes(clients[0]) < payload_nbytes(clients[0], inline=True)
        second.close()

    def test_forced_plane_warns_when_it_cannot_activate(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        with pytest.warns(RuntimeWarning, match="shared-memory data plane"):
            result, session = _run_tiny("process", shared_memory=True,
                                        guard_warnings=False)
        assert not session.shared_memory_active
        baseline, _ = _run_tiny("serial")
        assert result.accuracies == baseline.accuracies

    def test_serial_backend_register_is_noop(self):
        backend = SerialBackend()
        clients = _make_clients()
        assert not backend.register_clients(clients)
        assert all(isinstance(c.train, DataSplit) for c in clients)
