"""Cohort-level client batching: the vectorized engine must be invisible.

``client_batch`` is a wall-clock knob, never a results knob: every method,
every backend, and every cohort cap must produce bitwise-identical run
results with batching on or off.  These tests pin that contract, plus the
grouping/caching machinery around it (cohort planning, trace-cache keying,
config validation, fingerprint exclusion).
"""

import json

import numpy as np
import pytest

from repro.data import make_cifar10_like
from repro.eval import available_methods, build_method
from repro.fl import FederatedConfig, TrainingSession, build_federation
from repro.fl.session import SessionCallback
from repro.nn import MLPEncoder
from repro.telemetry import Tracer

NUM_CLASSES = 10
IMAGE_SIZE = 6
INPUT_DIM = 3 * IMAGE_SIZE * IMAGE_SIZE

ALL_METHODS = available_methods()


def encoder_factory():
    return MLPEncoder(INPUT_DIM, hidden_dims=(16, 8), rng=np.random.default_rng(7))


def cohort_config(**overrides):
    defaults = dict(num_clients=4, clients_per_round=4, rounds=1, local_epochs=1,
                    batch_size=4, personalization_epochs=2, seed=0)
    defaults.update(overrides)
    return FederatedConfig(**defaults)


def homogeneous_federation(config, samples_per_client=12, seed=0):
    """Single-class, equal-size partitions -> identical SSL pool shapes.

    Stratified test-splitting of a one-class partition always holds out the
    same count, so every client's pool is shape-homogeneous and the whole
    round forms one cohort.
    """
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=48,
                                test_per_class=4, seed=seed)
    labels = dataset.train.labels
    parts = [np.where(labels == c)[0][:samples_per_client]
             for c in range(config.num_clients)]
    return dataset, build_federation(dataset, parts, test_fraction=0.25,
                                     seed=seed)


def run_session(name, config, backend=None, seed=0, **method_kwargs):
    dataset, clients = homogeneous_federation(config, seed=seed)
    algorithm = build_method(name, config, NUM_CLASSES, encoder_factory,
                             **method_kwargs)
    session = TrainingSession(algorithm, clients, config, backend=backend)
    try:
        result = session.execute()
    finally:
        session.close()
    return algorithm, session, result


def assert_identical_results(first, second):
    """Bitwise equality of the two runs' observable outputs.

    Serialized comparison: floats survive ``json.dumps`` bit-for-bit via
    ``repr``, and the script-* methods' NaN round losses compare equal as
    text where ``nan != nan`` would fail.
    """
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())


@pytest.mark.parametrize("name", ALL_METHODS)
class TestEveryMethodBitwiseIdentical:
    def test_batched_equals_per_client(self, name):
        _, _, per_client = run_session(name, cohort_config(client_batch=1))
        _, _, batched = run_session(name, cohort_config(client_batch=None))
        assert_identical_results(per_client, batched)


class TestBatchedEngineEngages:
    def test_trace_cache_populated_only_when_batching(self):
        algorithm, _, _ = run_session("pfl-simclr", cohort_config(client_batch=1))
        assert algorithm._trace_cache == {}
        algorithm, _, _ = run_session("pfl-simclr",
                                      cohort_config(client_batch=None))
        assert algorithm._trace_cache
        assert not algorithm._untraceable

    def test_multiple_rounds_reuse_one_trace(self):
        algorithm, _, _ = run_session("pfl-simclr",
                                      cohort_config(rounds=2, client_batch=None))
        # 9-sample pools at batch_size=4 yield one kept batch shape (4), so
        # one trace serves every step of every round.
        assert len(algorithm._trace_cache) == 1

    def test_uneven_batch_shapes_record_separate_traces(self):
        # batch_size=6 over 9-sample pools gives kept batches of 6 and 3:
        # a second view shape must key a second trace, not replay the first.
        algorithm, _, _ = run_session(
            "pfl-simclr", cohort_config(batch_size=6, client_batch=None))
        assert len(algorithm._trace_cache) == 2

    def test_process_backend_matches_serial(self):
        config = cohort_config(client_batch=None, workers=2)
        _, _, serial = run_session("pfl-simclr", config)
        _, _, parallel = run_session("pfl-simclr", config, backend="process")
        assert_identical_results(serial, parallel)


def calibre_encoder_factory():
    return MLPEncoder(INPUT_DIM, hidden_dims=(24, 12), rng=np.random.default_rng(42))


class UpdateLog(SessionCallback):
    """Every ClientUpdate's metrics, keyed by ``round/client``."""

    def __init__(self):
        self.metrics = {}

    def on_client_update_done(self, session, event):
        key = f"{event.round_index}/{event.client_id}"
        self.metrics[key] = dict(event.update.metrics)


def metrics_text(metrics):
    """Updates in (round, client) order, each metric dict in its own key
    order; floats keep every bit through ``json.dumps``."""
    return json.dumps([(key, metrics[key]) for key in sorted(metrics)])


def run_calibre(name, client_batch, backend=None, **method_kwargs):
    """A Calibre run whose steps exercise every branch of the planned loss.

    Two-class clients give 14-sample pools: each epoch is a 12-sample step
    (5 prototypes; clients' k-means populate different cluster sets, so a
    step splits into several signature groups) and a 2-sample step (k
    clamps to 4, every point is its own cluster, and l_p never exists).
    """
    config = cohort_config(rounds=2, local_epochs=2, batch_size=12,
                           client_batch=client_batch, workers=2)
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=48,
                                test_per_class=4, seed=0)
    labels = dataset.train.labels
    parts = [np.concatenate([np.where(labels == c)[0][:9],
                             np.where(labels == c + 1)[0][:9]])
             for c in range(config.num_clients)]
    clients = build_federation(dataset, parts, test_fraction=0.25, seed=0)
    algorithm = build_method(name, config, NUM_CLASSES, calibre_encoder_factory,
                             num_prototypes=5, **method_kwargs)
    session = TrainingSession(algorithm, clients, config, backend=backend)
    log = session.add_callback(UpdateLog())
    tracer = Tracer()
    try:
        with tracer.activate():
            result = session.execute()
    finally:
        session.close()
    return algorithm, result, log.metrics, tracer.counters


CALIBRE_TOGGLES = [{}, {"use_ln": False}, {"use_lp": False}, {"use_lc": False}]


class TestCalibreBatched:
    @pytest.mark.parametrize("toggles", CALIBRE_TOGGLES,
                             ids=["all", "no-ln", "no-lp", "no-lc"])
    @pytest.mark.parametrize("name", ["calibre-simclr", "calibre-simsiam"])
    def test_batched_equals_per_client(self, name, toggles):
        _, per_client, solo_metrics, _ = run_calibre(name, 1, **toggles)
        algorithm, batched, metrics, counters = run_calibre(name, None, **toggles)
        assert_identical_results(per_client, batched)
        # Every per-update metric, including the loss terms and the
        # divergence the server weights by, is bitwise the per-client one.
        assert metrics_text(metrics) == metrics_text(solo_metrics)
        assert list(metrics.values())[0].keys() >= {"loss", "divergence"}
        assert counters.get("cohort.fallback_latches", 0) == 0
        assert not algorithm._untraceable
        # One no-grad encoder replay per step feeds the plans; some steps
        # split into several signature groups.
        steps = counters["plan.replays"]
        assert steps == 2 * 2 * 2  # rounds x epochs x (full + 2-sample step)
        assert counters["trace.replays"] > steps
        assert counters["trace.replay_clients"] == counters["plan.replay_clients"]
        if toggles.get("use_lp", True):
            # l_p is missing on the 2-sample steps, present on some others.
            assert 0 < counters["plan.terms.l_p"] < counters["plan.replay_clients"]

    def test_process_backend_matches_serial(self):
        _, serial, serial_metrics, _ = run_calibre("calibre-simclr", None)
        _, parallel, metrics, _ = run_calibre("calibre-simclr", None,
                                              backend="process")
        assert_identical_results(serial, parallel)
        assert metrics_text(metrics) == metrics_text(serial_metrics)

    def test_trace_cache_stays_bounded(self, monkeypatch):
        from repro.baselines import pfl_ssl

        monkeypatch.setattr(pfl_ssl, "TRACE_CACHE_SIZE", 3)
        algorithm, bounded, _, counters = run_calibre("calibre-simclr", None)
        assert len(algorithm._trace_cache) == 3
        assert counters["trace.cache_misses"] > 3
        _, unbounded, _, _ = run_calibre("calibre-simclr", 1)
        assert_identical_results(bounded, unbounded)


class TestCohortKeying:
    def _client(self, samples=12):
        config = cohort_config()
        _, clients = homogeneous_federation(config, samples_per_client=samples)
        return clients[0]

    def test_key_distinguishes_methods(self):
        config = cohort_config()
        client = self._client()
        simclr = build_method("pfl-simclr", config, NUM_CLASSES, encoder_factory)
        simsiam = build_method("pfl-simsiam", config, NUM_CLASSES, encoder_factory)
        assert simclr.cohort_key(client) is not None
        assert simclr.cohort_key(client) != simsiam.cohort_key(client)

    def test_key_distinguishes_pool_shapes(self):
        config = cohort_config()
        algorithm = build_method("pfl-simclr", config, NUM_CLASSES,
                                 encoder_factory)
        small, large = self._client(samples=12), self._client(samples=16)
        assert algorithm.cohort_key(small) != algorithm.cohort_key(large)

    def test_non_batchable_method_has_no_key(self):
        config = cohort_config()
        client = self._client()
        for name in ("fedavg", "calibre-byol"):
            algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
            assert algorithm.cohort_key(client) is None

    def test_calibre_batchable_templates_get_keys(self):
        config = cohort_config()
        client = self._client()
        for name in ("calibre-simclr", "calibre-simsiam"):
            algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
            assert algorithm.cohort_key(client) is not None
        for name in ("calibre-byol", "calibre-mocov2", "calibre-swav",
                     "calibre-smog"):
            algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
            assert algorithm.cohort_key(client) is None

    def test_local_loss_override_without_traceable_half_has_no_key(self):
        from repro.baselines.pfl_ssl import PFLSSL

        class CustomLoss(PFLSSL):
            def local_loss(self, method, outputs, rng):
                return outputs.loss * 2.0, {}

        algorithm = CustomLoss(cohort_config(), NUM_CLASSES, encoder_factory)
        assert algorithm.cohort_key(self._client()) is None


class TestPlanCohorts:
    def _session(self, name="pfl-simclr", **overrides):
        config = cohort_config(**overrides)
        _, clients = homogeneous_federation(config)
        algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
        return TrainingSession(algorithm, clients, config), clients

    def test_client_batch_one_plans_singletons(self):
        session, clients = self._session(client_batch=1)
        assert session._plan_cohorts(clients) == [[0], [1], [2], [3]]

    def test_auto_groups_whole_homogeneous_round(self):
        session, clients = self._session(client_batch=None)
        assert session._plan_cohorts(clients) == [[0, 1, 2, 3]]

    def test_cap_chunks_cohorts(self):
        session, clients = self._session(client_batch=3)
        assert session._plan_cohorts(clients) == [[0, 1, 2], [3]]

    def test_single_participant_is_a_singleton_cohort(self):
        session, clients = self._session(client_batch=None)
        assert session._plan_cohorts(clients[:1]) == [[0]]

    def test_all_solo_become_singleton_cohorts(self):
        session, clients = self._session(name="fedavg", client_batch=None)
        assert session._plan_cohorts(clients) == [[0], [1], [2], [3]]

    def test_empty_round_plans_nothing(self):
        session, _ = self._session(client_batch=None)
        assert session._plan_cohorts([]) == []


class TestConfigKnob:
    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "auto"])
    def test_invalid_client_batch_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            cohort_config(client_batch=bad)

    @pytest.mark.parametrize("ok", [None, 1, 2, 64])
    def test_valid_client_batch_accepted(self, ok):
        assert cohort_config(client_batch=ok).client_batch == ok

    def test_client_batch_excluded_from_fingerprints(self):
        from repro.runs.serialize import EXECUTION_FIELDS, config_to_jsonable
        assert "client_batch" in EXECUTION_FIELDS
        plain = cohort_config()
        batched = cohort_config(client_batch=8)
        assert config_to_jsonable(plain, include_execution=False) == \
            config_to_jsonable(batched, include_execution=False)
        assert config_to_jsonable(plain, include_execution=True) != \
            config_to_jsonable(batched, include_execution=True)
