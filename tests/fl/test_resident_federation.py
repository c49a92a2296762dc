"""Resident federation: client handles, the client table, a population's
recipe, and what a process pool installs for a session."""

import os
import pickle
import threading
import warnings

import numpy as np
import pytest

from repro.data import make_cifar10_like, partition_iid
from repro.eval import build_method, make_encoder_factory
from repro.fl import (
    FederatedConfig,
    ProcessBackend,
    TrainingSession,
    VirtualPopulation,
    build_federation,
    build_novel_clients,
    execution,
    payload_nbytes,
)
from repro.fl.client import ClientTable
from repro.fl.execution import ResidentClient


@pytest.fixture(scope="module")
def dataset():
    return make_cifar10_like(image_size=8, train_per_class=12,
                             test_per_class=2, seed=0)


@pytest.fixture
def worker(monkeypatch):
    """This process as a fresh pool worker: the returned function runs the
    pool initializer on a registry, pickled as the pool pickles it."""
    monkeypatch.setattr(execution, "_INSTALLED", {})

    def install(registry):
        execution._install(pickle.dumps(registry,
                                        protocol=pickle.HIGHEST_PROTOCOL))

    return install


def _clients(dataset, num_clients=3):
    parts = partition_iid(dataset.train.labels, num_clients,
                          np.random.default_rng(0))
    return build_federation(dataset, parts, seed=2)


def _population(dataset, **overrides):
    kwargs = dict(num_clients=20, samples_per_client=12, seed=5,
                  max_resident=4)
    kwargs.update(overrides)
    return VirtualPopulation(dataset, **kwargs)


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _assert_same_data(replica, client):
    assert replica.client_id == client.client_id
    assert replica.is_novel == client.is_novel
    for name in ("train", "test", "unlabeled"):
        ours, theirs = getattr(replica, name), getattr(client, name)
        if theirs is None:
            assert ours is None
            continue
        for column in ("images", "labels"):
            expected = getattr(theirs, column)
            assert getattr(ours, column).dtype == expected.dtype
            np.testing.assert_array_equal(getattr(ours, column), expected)


def _assert_same_store(ours, theirs):
    if isinstance(theirs, dict):
        assert isinstance(ours, dict) and sorted(ours) == sorted(theirs)
        for key in theirs:
            _assert_same_store(ours[key], theirs[key])
    elif isinstance(theirs, (tuple, list)):
        assert type(ours) is type(theirs) and len(ours) == len(theirs)
        for mine, other in zip(ours, theirs):
            _assert_same_store(mine, other)
    elif isinstance(theirs, np.ndarray):
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)
    else:
        assert ours == theirs


# Pool tasks (module-level: picklable).
def _double(x):
    return 2 * x


def _worker_pid(_):
    return os.getpid()


def _installed_tokens(_):
    from repro.fl.execution import _INSTALLED

    return sorted(_INSTALLED)


def _resolved_in_worker(handle):
    """What a pool worker resolves ``handle`` to: the client's id, its
    novelty, its labels and its store."""
    client = handle.resolve()
    return (client.client_id, client.is_novel, client.train.labels.tolist(),
            client.test.labels.tolist(), client.store)


# ----------------------------------------------------------------------
# ResidentClient: what a cohort task carries in place of a client
# ----------------------------------------------------------------------
class TestResidentClient:
    def test_holds_the_client_in_the_process_that_bound_it(self, dataset):
        client = _clients(dataset)[1]
        client.store = {"w": np.arange(3.0)}
        handle = ResidentClient(7, client, (client.client_id, client.store))
        assert handle.resolve() is client
        assert handle.client_id == client.client_id

    def test_pickles_as_token_id_and_store_without_samples(self, dataset):
        client = _clients(dataset)[0]
        handle = ResidentClient(7, client, (client.client_id, {}))
        assert handle.__reduce__()[1] == (7, None, (client.client_id, {}))
        blob = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < 200
        assert payload_nbytes(client) / len(blob) >= 10

    def test_resolves_in_a_worker_to_the_installed_client_and_store(
            self, dataset, worker):
        clients = _clients(dataset)
        worker({11: ClientTable(clients)})
        store = {"w": np.arange(4.0)}
        replica = _roundtrip(ResidentClient(
            11, clients[1], (clients[1].client_id, store)))
        resolved = replica.resolve()
        _assert_same_data(resolved, clients[1])
        _assert_same_store(resolved.store, store)
        assert replica.resolve() is resolved  # resolved once, then held

    def test_unregistered_token_raises_lookup_error(self, dataset, worker):
        client = _clients(dataset)[0]
        worker({})
        replica = _roundtrip(ResidentClient(12345, client,
                                            (client.client_id, {})))
        with pytest.raises(LookupError, match="12345 is not installed"):
            replica.resolve()


# ----------------------------------------------------------------------
# ClientTable: what a pool installs for a list of clients
# ----------------------------------------------------------------------
class TestClientTable:
    def test_installs_clients_without_stores_and_leaves_them_as_they_are(
            self, dataset):
        clients = _clients(dataset)
        stores = [{"w": np.full(2000, float(client.client_id))}
                  for client in clients]
        for client, store in zip(clients, stores):
            client.store = store
        splits = [client.train for client in clients]
        table = _roundtrip(ClientTable(clients))
        for client, store, split in zip(clients, stores, splits):
            installed = table.attach(client.client_id, {})
            _assert_same_data(installed, client)
            assert installed.store == {}
            assert client.store is store and client.train is split
        stripped = sum(payload_nbytes(table.attach(client.client_id, {}))
                       for client in clients)
        assert len(pickle.dumps(ClientTable(clients))) < stripped

    def test_a_store_attached_to_one_task_stays_with_it(self, dataset):
        clients = _clients(dataset)
        table = ClientTable(clients)
        first = table.attach(clients[0].client_id, {"k": 1})
        first.store["leak"] = True
        first.store = {"reassigned": True}
        second = table.attach(clients[0].client_id, {})
        assert second is not first
        assert second.store == {}
        assert second.train is first.train  # the samples are shared


# ----------------------------------------------------------------------
# VirtualPopulation: what a pool installs for a population
# ----------------------------------------------------------------------
class TestPopulationRecipe:
    def test_replica_attaches_every_client_bitwise(self, dataset):
        population = _population(dataset)
        for client_id in range(6):  # realizes and evicts before pickling
            population.realize(client_id)
        replica = _roundtrip(population)
        for client_id in population.client_ids:
            _assert_same_data(replica.attach(client_id, {}),
                              population.realize(client_id))
        assert replica.resident_count == 0
        assert replica.realized_total == 0
        population.close()

    def test_pickled_size_does_not_grow_with_realized_clients_or_stores(
            self, dataset):
        population = _population(dataset)
        empty = len(pickle.dumps(population, protocol=pickle.HIGHEST_PROTOCOL))
        population.set_stores({client_id: {"w": np.zeros(5000)}
                               for client_id in range(10)})
        population.realize_round([0, 1, 2, 3])
        assert population.resident_count == 4
        assert len(pickle.dumps(population,
                                protocol=pickle.HIGHEST_PROTOCOL)) == empty
        population.end_round()
        population.close()

    def test_attach_rejects_ids_outside_the_population(self, dataset):
        population = _population(dataset)
        with pytest.raises(KeyError, match="outside population"):
            population.attach(len(population), {})
        with pytest.raises(KeyError, match="outside population"):
            population.attach(-1, {})


# ----------------------------------------------------------------------
# ProcessBackend: registrations and the pool that installs them
# ----------------------------------------------------------------------
class _Unpicklable:
    def __init__(self):
        self.lock = threading.Lock()


class TestProcessBackendRegistry:
    def test_registering_again_returns_the_token_and_keeps_the_pool(
            self, dataset):
        table = ClientTable(_clients(dataset))
        with ProcessBackend(workers=1) as backend:
            token = backend.register(table)
            before = backend.map(_worker_pid, [0])
            assert backend.register(table) == token
            assert backend.map(_worker_pid, [0]) == before
            assert backend.map(_installed_tokens, [0]) == [[token]]

    def test_a_new_registration_reaches_the_next_pool(self, dataset):
        clients = _clients(dataset)
        first, second = ClientTable(clients[:2]), ClientTable(clients[2:])
        with ProcessBackend(workers=1) as backend:
            first_token = backend.register(first)
            before = backend.map(_worker_pid, [0])
            assert backend.map(_installed_tokens, [0]) == [[first_token]]
            second_token = backend.register(second)
            assert backend.map(_worker_pid, [0]) != before
            assert backend.map(_installed_tokens, [0]) == \
                [sorted([first_token, second_token])]

    def test_close_drops_the_registrations(self, dataset):
        backend = ProcessBackend(workers=1)
        token = backend.register(ClientTable(_clients(dataset)))
        assert backend.map(_installed_tokens, [0]) == [[token]]
        backend.close()
        try:
            assert backend.map(_installed_tokens, [0]) == [[]]
        finally:
            backend.close()

    def test_unpicklable_registration_falls_back_to_serial(self):
        with ProcessBackend(workers=1) as backend:
            backend.register(_Unpicklable())
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                assert backend.map(_double, [1, 2, 3]) == [2, 4, 6]


# ----------------------------------------------------------------------
# Sessions: every client a task names resolves in the pool
# ----------------------------------------------------------------------
SESSION_CONFIG = FederatedConfig(
    num_clients=3, clients_per_round=3, rounds=2, local_epochs=1,
    batch_size=8, personalization_epochs=1, personalization_batch_size=8,
    workers=1,
)
SSL_SIZES = {"projection_dim": 8, "hidden_dim": 16}


def _algorithm(dataset, method="fedavg", config=SESSION_CONFIG, **overrides):
    factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8),
                                   seed=7)
    return build_method(method, config, dataset.num_classes, factory,
                        **overrides)


def _novel(dataset):
    return build_novel_clients(dataset, 2, partition_iid)


class TestSessionFederation:
    def test_workers_resolve_listed_and_novel_clients(self, dataset):
        clients, novel = _clients(dataset), _novel(dataset)
        clients[2].store = {"w": np.arange(3.0)}
        with ProcessBackend(workers=1) as backend:
            session = TrainingSession(_algorithm(dataset), clients,
                                      SESSION_CONFIG, novel_clients=novel,
                                      backend=backend)
            handles = [session.client_handle(client)
                       for client in clients + novel]
            assert len({handle.token for handle in handles}) == 1
            resolved = backend.map(_resolved_in_worker, handles)
        for client, (client_id, is_novel, train, test, store) in zip(
                clients + novel, resolved):
            assert (client_id, is_novel) == (client.client_id, client.is_novel)
            assert train == client.train.labels.tolist()
            assert test == client.test.labels.tolist()
            _assert_same_store(store, client.store)

    def test_workers_realize_population_clients_from_the_recipe(self, dataset):
        population, novel = _population(dataset), _novel(dataset)
        population.set_stores({4: {"w": np.arange(2.0)}})
        with ProcessBackend(workers=1) as backend:
            session = TrainingSession(_algorithm(dataset), population,
                                      SESSION_CONFIG, novel_clients=novel,
                                      backend=backend)
            clients = population.realize_round([4, 17]) + novel
            handles = [session.client_handle(client) for client in clients]
            assert handles[0].token == handles[1].token != handles[2].token
            resolved = backend.map(_resolved_in_worker, handles)
            population.end_round()
        for client, (client_id, is_novel, train, test, store) in zip(
                clients, resolved):
            assert (client_id, is_novel) == (client.client_id, client.is_novel)
            assert train == client.train.labels.tolist()
            assert test == client.test.labels.tolist()
            _assert_same_store(store, client.store)
        population.close()

    def test_process_run_writes_serial_stores_back_to_untouched_clients(
            self, dataset):
        runs = {}
        for backend in ("serial", "process"):
            clients = _clients(dataset)
            splits = [(client.train, client.test) for client in clients]
            config = SESSION_CONFIG.with_overrides(backend=backend)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # no fallback
                TrainingSession(_algorithm(dataset, "pfl-simsiam", config,
                                           **SSL_SIZES),
                                clients, config).execute()
            # The same objects: dispatch never swaps a client's splits.
            for client, (train, test) in zip(clients, splits):
                assert client.train is train and client.test is test
            runs[backend] = clients
        for serial, process in zip(runs["serial"], runs["process"]):
            assert serial.store
            _assert_same_store(process.store, serial.store)

    def test_clients_run_again_on_a_new_backend_after_close(self, dataset):
        # A closed backend leaves nothing behind in the clients: a second
        # session over the same clients, on a new pool, continues from the
        # personal heads FedPer's first session wrote back, as serially.
        results = {}
        for backend in ("serial", "process"):
            clients = _clients(dataset)
            config = SESSION_CONFIG.with_overrides(backend=backend, rounds=1)
            runs = []
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # no fallback
                for _ in range(2):
                    runs.append(TrainingSession(
                        _algorithm(dataset, "fedper", config), clients,
                        config).execute().to_json())
            results[backend] = runs
        assert results["process"] == results["serial"]
        assert results["serial"][0] != results["serial"][1]
