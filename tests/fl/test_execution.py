"""Execution backends: determinism across backends, fallback, validation."""

import functools
import json
import os
import pickle
import time
import warnings

import numpy as np
import pytest

from repro.baselines import Scaffold
from repro.eval import build_method, make_dataset, make_encoder_factory
from repro.eval.harness import NonIIDSetting, make_partitions
from repro.fl import (
    ClientUpdate,
    FederatedAlgorithm,
    FederatedConfig,
    ProcessBackend,
    SerialBackend,
    TrainingSession,
    available_backends,
    build_federation,
    payload_nbytes,
    resolve_backend,
)
from repro.fl.execution import ExecutionError, chunk_items, resolve_workers
from repro.telemetry import Tracer


def _double(x):
    return 2 * x


def _explode(x):
    raise ValueError(f"task failure on item {x}")


# ----------------------------------------------------------------------
# Backend mechanics
# ----------------------------------------------------------------------
def test_serial_backend_maps_in_order():
    assert SerialBackend().map(_double, range(7)) == [0, 2, 4, 6, 8, 10, 12]


def test_process_backend_preserves_input_order():
    # Chunks complete in any order across workers; map reassembles them.
    with ProcessBackend(workers=3, chunk_size=2) as backend:
        assert backend.map(_double, range(11)) == [2 * i for i in range(11)]


def test_process_backend_maps_and_reuses_pool():
    with ProcessBackend(workers=2) as backend:
        assert backend.map(_double, range(5)) == [0, 2, 4, 6, 8]
        # Second dispatch reuses the live pool.
        assert backend.map(_double, range(3)) == [0, 2, 4]


@pytest.mark.parametrize("backend_cls", [SerialBackend, ProcessBackend])
def test_imap_yields_every_index_exactly_once(backend_cls):
    with backend_cls(workers=3, chunk_size=2) as backend:
        pairs = list(backend.imap(_double, range(11)))
    # Completion order is backend-specific; the (index, result) pairing
    # must reassemble into exactly the serial result.
    assert sorted(index for index, _ in pairs) == list(range(11))
    results = [None] * 11
    for index, result in pairs:
        results[index] = result
    assert results == [2 * i for i in range(11)]


def test_serial_imap_is_lazy():
    """The serial generator interleaves consumption with execution — the
    property that lets aggregation start before the round barrier."""
    executed = []

    def task(x):
        executed.append(x)
        return x

    iterator = SerialBackend().imap(task, range(4))
    assert executed == []
    assert next(iterator) == (0, 0)
    assert executed == [0]
    assert next(iterator) == (1, 1)
    assert executed == [0, 1]


def test_process_imap_falls_back_on_unpicklable_task():
    unpicklable = lambda x: 2 * x  # noqa: E731 — closures cannot pickle
    with ProcessBackend(workers=2) as backend, \
            pytest.warns(RuntimeWarning, match="falling back"):
        pairs = list(backend.imap(unpicklable, range(5)))
    assert pairs == [(i, 2 * i) for i in range(5)]


def test_imap_task_exceptions_propagate():
    for backend_cls in (SerialBackend, ProcessBackend):
        with backend_cls(workers=2, chunk_size=1) as backend, \
                pytest.raises(ValueError, match="task failure"):
            list(backend.imap(_explode, range(4)))


def test_chunk_items_covers_everything_in_order():
    chunks = chunk_items(list(range(10)), workers=3)
    assert [x for chunk in chunks for x in chunk] == list(range(10))
    assert all(chunks)
    assert chunk_items([], workers=4) == []
    assert chunk_items(list(range(5)), workers=2, chunk_size=1) == [[i] for i in range(5)]
    with pytest.raises(ValueError):
        chunk_items([1, 2], workers=2, chunk_size=0)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown execution backend"):
        resolve_backend("gpu-farm")
    with pytest.raises(ValueError,
                       match=r"'thread'; available: \['process', 'serial'\]"):
        resolve_backend("thread")
    with pytest.raises(ValueError, match="ExecutionBackend"):
        resolve_backend(42)


def test_resolve_backend_accepts_names_and_instances():
    assert isinstance(resolve_backend(None), SerialBackend)
    assert isinstance(resolve_backend("PROCESS", workers=2), ProcessBackend)
    backend = ProcessBackend(workers=1)
    assert resolve_backend(backend) is backend
    assert available_backends() == ["process", "serial"]


@pytest.mark.parametrize("workers", [0, -1, 1.5, True])
def test_invalid_workers_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        resolve_workers(workers)


def test_config_validates_backend_and_workers():
    with pytest.raises(ValueError, match="unknown execution backend"):
        FederatedConfig(backend="bogus")
    with pytest.raises(ValueError,
                       match=r"'thread'; available: \['process', 'serial'\]"):
        FederatedConfig(backend="thread")
    with pytest.raises(ValueError, match="workers"):
        FederatedConfig(workers=0)
    config = FederatedConfig(backend="process", workers=2)
    assert config.backend == "process" and config.workers == 2


# ----------------------------------------------------------------------
# Fallback
# ----------------------------------------------------------------------
def test_process_backend_falls_back_to_serial_on_unpicklable_task():
    captured = []
    unpicklable = lambda x: x + 1  # noqa: E731 — lambdas cannot cross process boundaries
    backend = ProcessBackend(workers=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert backend.map(unpicklable, [1, 2, 3]) == [2, 3, 4]
        captured = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert captured and "falling back to serial" in str(captured[0].message)
    # Subsequent calls stay serial without warning again.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert backend.map(unpicklable, [5]) == [6]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("backend_cls", [SerialBackend, ProcessBackend])
def test_task_exceptions_propagate_not_fallback(backend_cls):
    # A bug inside a client task is not backend unavailability: it must
    # surface identically under every backend, with no fallback warning.
    with backend_cls(workers=2) as backend, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="task failure"):
            backend.map(_explode, [1, 2, 3])


def test_process_backend_raises_without_fallback():
    backend = ProcessBackend(workers=2, fallback=False)
    with pytest.raises(ExecutionError):
        backend.map(lambda x: x, [1])


# ----------------------------------------------------------------------
# Worker death: a pool worker killed mid-batch
# ----------------------------------------------------------------------
_COORDINATOR_RUNS = []
"""Items the worker-death tasks ran in this (the coordinating) process."""


def _die_in_worker(coordinator_pid, doomed, delay, x):
    """Double ``x``; a pool worker handed ``doomed`` dies after ``delay``
    seconds.

    The coordinator never dies, so the serial rerun of a failed chunk
    completes, and every item it runs is logged."""
    if os.getpid() == coordinator_pid:
        _COORDINATOR_RUNS.append(x)
    elif x == doomed:
        time.sleep(delay)
        os._exit(1)
    return 2 * x


def _die_in_worker_cohort(coordinator_pid, doomed, delay, cohort):
    return [_die_in_worker(coordinator_pid, doomed, delay, x) for x in cohort]


def _killer(cohorts=False, doomed=3, delay=0.0):
    function = _die_in_worker_cohort if cohorts else _die_in_worker
    return functools.partial(function, os.getpid(), doomed, delay)


def _runtime_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestWorkerDeath:
    ITEMS = list(range(8))
    COHORTS = [[0, 1], [2, 3], [4, 5], [6, 7]]

    def setup_method(self):
        _COORDINATOR_RUNS.clear()

    def test_map_falls_back_to_the_serial_result(self):
        expected = SerialBackend().map(_killer(), self.ITEMS)
        backend = ProcessBackend(workers=2, chunk_size=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert backend.map(_killer(), self.ITEMS) == expected
        assert len(_runtime_warnings(caught)) == 1
        assert "BrokenProcessPool" in str(_runtime_warnings(caught)[0].message)

    def test_map_over_cohorts_falls_back_to_the_serial_result(self):
        expected = SerialBackend().map(_killer(cohorts=True), self.COHORTS)
        backend = ProcessBackend(workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert backend.map(_killer(cohorts=True), self.COHORTS) == expected
        assert len(_runtime_warnings(caught)) == 1

    def test_map_reruns_only_unfinished_chunks(self):
        """The worker handed item 7 dies last, after live workers returned
        every other chunk: the coordinator reruns that one chunk only,
        never work that already finished (a sweep's cell records)."""
        backend = ProcessBackend(workers=2, chunk_size=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = backend.map(_killer(doomed=7, delay=0.5), self.ITEMS)
        assert results == [2 * x for x in self.ITEMS]
        assert len(_runtime_warnings(caught)) == 1
        assert sorted(_COORDINATOR_RUNS) == [6, 7]

    def test_imap_reruns_only_unfinished_chunks(self):
        expected = SerialBackend().map(_killer(), self.ITEMS)
        _COORDINATOR_RUNS.clear()
        backend = ProcessBackend(workers=2, chunk_size=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pairs = list(backend.imap(_killer(), self.ITEMS))
        assert len(_runtime_warnings(caught)) == 1
        indices = [index for index, _ in pairs]
        assert sorted(indices) == list(range(len(self.ITEMS)))
        results = [None] * len(self.ITEMS)
        for index, result in pairs:
            results[index] = result
        assert results == expected
        # Whatever streamed out of a live worker is never rerun; the
        # coordinator ran exactly the rest, whole chunks at a time, after
        # everything the workers delivered.
        rerun = sorted(_COORDINATOR_RUNS)
        streamed = [index for index in indices if index not in rerun]
        assert 3 in rerun
        assert sorted(streamed + rerun) == list(range(len(self.ITEMS)))
        assert indices[:len(streamed)] == streamed
        chunks = chunk_items(self.ITEMS, workers=2, chunk_size=2)
        for chunk in chunks:
            assert set(chunk) <= set(rerun) or not set(chunk) & set(rerun)

    def test_without_fallback_worker_death_raises(self):
        with pytest.raises(ExecutionError, match="BrokenProcessPool|terminated"):
            ProcessBackend(workers=2, chunk_size=2, fallback=False) \
                .map(_killer(), self.ITEMS)
        with pytest.raises(ExecutionError):
            list(ProcessBackend(workers=2, chunk_size=2, fallback=False)
                 .imap(_killer(), self.ITEMS))
        assert _COORDINATOR_RUNS == []


# ----------------------------------------------------------------------
# End-to-end determinism on a small CIFAR-like synthetic config
# ----------------------------------------------------------------------
TINY_CONFIG = FederatedConfig(
    num_clients=4, clients_per_round=4, rounds=2, local_epochs=1,
    batch_size=8, personalization_epochs=2, personalization_batch_size=8,
)


def _tiny_workload(samples=12):
    dataset = make_dataset("cifar10", seed=0, image_size=8,
                           train_per_class=samples, test_per_class=2)
    partitions = make_partitions(
        dataset.train.labels, TINY_CONFIG.num_clients,
        NonIIDSetting("iid", 0, samples), np.random.default_rng(1),
    )
    encoder_factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8), seed=7)
    return dataset, partitions, encoder_factory


def _run_tiny(backend, workers=None, method="pfl-simsiam"):
    dataset, partitions, encoder_factory = _tiny_workload()
    config = TINY_CONFIG.with_overrides(backend=backend, workers=workers)
    clients = build_federation(dataset, partitions, seed=2)
    algorithm = build_method(method, config, dataset.num_classes, encoder_factory,
                             projection_dim=8, hidden_dim=16)
    session = TrainingSession(algorithm, clients, config)
    with warnings.catch_warnings():
        # A silent fallback would make the "parallel" runs vacuous.
        warnings.simplefilter("error", RuntimeWarning)
        result = session.execute()
    return result, clients


def test_process_backend_reproduces_serial_run():
    serial, _ = _run_tiny("serial")
    parallel, _ = _run_tiny("process", workers=2)
    assert parallel.accuracies == serial.accuracies
    assert parallel.novel_accuracies == serial.novel_accuracies
    assert [r.mean_loss for r in parallel.rounds] == [r.mean_loss for r in serial.rounds]
    assert [r.participant_ids for r in parallel.rounds] == \
        [r.participant_ids for r in serial.rounds]


def test_process_backend_ships_store_mutations_back():
    # pfl-simsiam persists each client's predictor, which the global model
    # does not carry; with every client sampled each round, round 2 depends
    # on stores written in round 1, so identical losses (asserted above)
    # require the write-back path.  Here we additionally check the stores
    # materialize on the coordinator side.
    _, clients = _run_tiny("process", workers=2)
    for client in clients:
        assert any(key.endswith("/local") for key in client.store), client.client_id
        assert payload_nbytes(client) > 0  # round-trips through pickle


def test_client_payloads_are_picklable():
    dataset, partitions, encoder_factory = _tiny_workload()
    clients = build_federation(dataset, partitions, seed=2)
    for client in clients:
        assert payload_nbytes(client) > 0
    pickle.loads(pickle.dumps(encoder_factory))()  # factories cross processes too


# ----------------------------------------------------------------------
# Resident algorithms and clients: a process pool installs them once
# ----------------------------------------------------------------------
RESIDENT_CONFIG = TINY_CONFIG.with_overrides(rounds=3)
SSL_SIZES = {"projection_dim": 8, "hidden_dim": 16}


class _PickleCounted(FederatedAlgorithm):
    """A minimal algorithm that counts the pickles of itself made in the
    process that pickles it."""

    name = "pickle-counted"
    pickles = 0

    def build_global_state(self):
        return {"w": np.zeros(3)}

    def local_update(self, client, global_state, round_index):
        return ClientUpdate(client_id=client.client_id,
                            state={"w": global_state["w"] + 1.0},
                            weight=float(client.num_train_samples),
                            metrics={"loss": 1.0})

    def extract_features(self, clients, global_state, images):
        return [array.reshape(array.shape[0], -1) for array in images]

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


class _DiesInWorker(Scaffold):
    """SCAFFOLD whose pool worker dies at its first update of
    ``die_round``; the coordinator never dies."""

    def __init__(self, *args, die_round, **kwargs):
        super().__init__(*args, **kwargs)
        self.die_round = die_round
        self.coordinator_pid = os.getpid()

    def local_update(self, client, global_state, round_index):
        if round_index == self.die_round and os.getpid() != self.coordinator_pid:
            os._exit(1)
        return super().local_update(client, global_state, round_index)


def _resident_session(algorithm_of, backend, workers=2):
    """A RESIDENT_CONFIG session over the tiny workload; ``algorithm_of``
    builds the algorithm from (config, num_classes, encoder_factory), and
    ``backend`` is a name or a shared backend instance."""
    dataset, partitions, encoder_factory = _tiny_workload()
    config = RESIDENT_CONFIG.with_overrides(workers=workers)
    clients = build_federation(dataset, partitions, seed=2)
    algorithm = algorithm_of(config, dataset.num_classes, encoder_factory)
    return TrainingSession(algorithm, clients, config, backend=backend)


def _method(name):
    overrides = {} if name == "scaffold" else SSL_SIZES
    return functools.partial(build_method, name, **overrides)


@pytest.mark.parametrize("method", ["scaffold", "calibre-simclr"])
def test_resident_workers_reproduce_serial_without_resume(method):
    """Three rounds plus personalization: SCAFFOLD's server control
    reaches the resident copies every round, and Calibre's warm traces
    change nothing."""
    results = {}
    for backend in ("serial", "process"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = _resident_session(_method(method), backend).execute()
        results[backend] = json.dumps(result.to_json())
    assert results["process"] == results["serial"]


def test_sessions_sharing_a_pool_each_reproduce_serial():
    """The second session's registration restarts the pool the first one
    started; the new pool installs both algorithms."""
    methods = ("scaffold", "calibre-simclr")
    expected = [json.dumps(_resident_session(_method(method), "serial")
                           .execute().to_json()) for method in methods]
    with ProcessBackend(workers=1) as backend, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no serial fallback
        first = _resident_session(_method(methods[0]), backend)
        first.step()
        second = _resident_session(_method(methods[1]), backend)
        second.step()
        results = [json.dumps(session.execute().to_json())
                   for session in (first, second)]
    assert results == expected


def test_running_pool_never_repickles_the_algorithm():
    session = _resident_session(lambda config, classes, _: _PickleCounted(
        config, classes), "process")
    with session:
        session.step()  # starts the pool, which installs the algorithm
        _PickleCounted.pickles = 0
        session.run()
        session.personalize()
    assert _PickleCounted.pickles == 0


class _ItemSizingBackend(ProcessBackend):
    """A process backend that records the pickled size of each task item
    together with its task, as one pool submission ships them."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.item_bytes = []

    def imap(self, task, items):
        self.item_bytes += [len(pickle.dumps((task, item),
                                             protocol=pickle.HIGHEST_PROTOCOL))
                            for item in items]
        return super().imap(task, items)


def test_task_bytes_do_not_grow_with_client_samples():
    """A task carries each client as its id and store; the client's
    samples reach the pool once, when it installs the client table."""
    sizes, client_bytes = {}, {}
    for samples in (12, 48):
        dataset, partitions, encoder_factory = _tiny_workload(samples)
        clients = build_federation(dataset, partitions, seed=2)
        config = TINY_CONFIG.with_overrides(workers=1, client_batch=1)
        algorithm = build_method("pfl-simclr", config, dataset.num_classes,
                                 encoder_factory, **SSL_SIZES)
        with _ItemSizingBackend(workers=1) as backend, \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no fallback
            TrainingSession(algorithm, clients, config,
                            backend=backend).execute()
        sizes[samples] = backend.item_bytes
        client_bytes[samples] = payload_nbytes(clients[0])
    assert client_bytes[48] > client_bytes[12] + 40_000
    # Two rounds and personalization, one client per item; the tokens are
    # id()s, whose pickles may differ by a byte between runs.
    assert len(sizes[48]) == len(sizes[12]) == 12
    for small, large in zip(sizes[12], sizes[48]):
        assert abs(large - small) <= 8


def test_resident_traces_miss_no_more_than_serial():
    """One worker, as in the benchmark's process workload: its resident
    copy keeps the traces it recorded across rounds, as serial does."""
    misses = {}
    for backend in ("serial", "process"):
        tracer = Tracer()
        with tracer.activate():
            _resident_session(_method("calibre-simclr"), backend,
                              workers=1).execute()
        misses[backend] = tracer.counters.get("trace.cache_misses", 0)
    assert misses["serial"] > 0
    assert misses["process"] <= misses["serial"]


def test_worker_killed_after_install_ends_in_the_serial_result():
    def dies_in_round_1(config, classes, encoder_factory):
        return _DiesInWorker(config, classes, encoder_factory, die_round=1)

    expected = _resident_session(dies_in_round_1, "serial").execute()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _resident_session(dies_in_round_1, "process").execute()
    assert any("BrokenProcessPool" in str(warning.message)
               for warning in _runtime_warnings(caught))
    assert json.dumps(result.to_json()) == json.dumps(expected.to_json())
