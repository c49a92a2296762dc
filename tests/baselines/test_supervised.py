"""Tests for the supervised family's keep rule and constructor checks.

A supervised method declares which part of the model travels
(``shared_part``); a participant keeps exactly the rest, as one state dict
under ``<name>/<kept part>``.
"""

import numpy as np
import pytest

from repro.eval import build_method
from repro.fl import TrainingSession

from .test_methods_integration import (
    NUM_CLASSES,
    encoder_factory,
    tiny_config,
    tiny_federation,
)

KEEPING = {"fedper": "fedper/head", "fedrep": "fedrep/head",
           "lg-fedavg": "lg-fedavg/encoder"}
"""Each body/head method that keeps state, and its store key."""

NOT_KEEPING = ["fedavg", "fedavg-ft", "fedbabu", "perfedavg"]


def trained(name):
    """One participant's local update at round 0: (algorithm, client,
    update)."""
    config = tiny_config()
    _, clients = tiny_federation(config)
    algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
    update = algorithm.local_update(clients[0], algorithm.build_global_state(), 0)
    return algorithm, clients[0], update


class TestKeptState:
    @pytest.mark.parametrize("name", sorted(KEEPING))
    def test_participants_hold_one_entry_under_the_current_key(self, name):
        config = tiny_config(rounds=1)
        _, clients = tiny_federation(config)
        algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
        session = TrainingSession(algorithm, clients, config)
        session.run()
        (record,) = session.round_records
        for client in clients:
            expected = ([KEEPING[name]] if client.client_id in record.participant_ids
                        else [])
            assert list(client.store) == expected, client.client_id

    @pytest.mark.parametrize("name", sorted(KEEPING))
    def test_entry_is_a_copy_of_the_trained_kept_keys(self, name):
        algorithm, client, _ = trained(name)
        kept = client.store[KEEPING[name]]
        local_keys = algorithm._local_keys()
        assert local_keys
        assert list(kept) == list(local_keys)
        assert list(local_keys) == [key for key in algorithm._initial_state
                                    if key not in algorithm._global_keys]
        template = algorithm._template
        live = {name: param.data for name, param in template.named_parameters()}
        live.update(template.named_buffers())
        for key in kept:
            assert kept[key].dtype == live[key].dtype, key
            np.testing.assert_array_equal(kept[key], live[key])
            assert not np.shares_memory(kept[key], live[key])

    @pytest.mark.parametrize("name", NOT_KEEPING)
    def test_whole_model_and_fedbabu_write_no_store(self, name):
        config = tiny_config()
        _, clients = tiny_federation(config)
        algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
        TrainingSession(algorithm, clients, config).run()
        assert algorithm._local_keys() == ()
        assert [client.store for client in clients] == [{}] * len(clients)

    @pytest.mark.parametrize("name", sorted(KEEPING) + NOT_KEEPING)
    def test_update_carries_exactly_the_global_keys(self, name):
        algorithm, _, update = trained(name)
        assert list(update.state) == list(algorithm._global_keys)
        assert list(algorithm.build_global_state()) == list(algorithm._global_keys)

    def test_keeping_is_the_complement_of_the_shared_part(self):
        prefixes = {}
        for name in ("fedavg", "fedper", "lg-fedavg", "fedbabu"):
            algorithm, _, _ = trained(name)
            prefixes[name] = ({key.split(".")[0] for key in algorithm._global_keys},
                              {key.split(".")[0] for key in algorithm._local_keys()})
        assert prefixes == {
            "fedavg": ({"encoder", "head"}, set()),
            "fedper": ({"encoder"}, {"head"}),
            "lg-fedavg": ({"head"}, {"encoder"}),
            # FedBABU's head is the frozen initialization every restore loads.
            "fedbabu": ({"encoder"}, set()),
        }

    def test_script_and_fedema_keep_nothing_and_everything(self):
        config = tiny_config()
        script = build_method("script-fair", config, NUM_CLASSES, encoder_factory)
        fedema = build_method("fedema", config, NUM_CLASSES, encoder_factory)
        assert script._local_keys() == ()
        assert fedema._local_keys() == tuple(fedema._initial_state)

    @pytest.mark.parametrize("name", sorted(KEEPING))
    def test_restore_loads_the_kept_part_under_the_global_model(self, name):
        algorithm, client, _ = trained(name)
        kept = client.store[KEEPING[name]]
        moved = {key: value + 0.25
                 for key, value in algorithm.build_global_state().items()}
        model = algorithm._load_template(moved, client).state_dict()
        for key, value in model.items():
            np.testing.assert_array_equal(value, moved[key] if key in moved
                                          else kept[key])
        probe = algorithm.probe_head(client, moved)
        for key, param in probe.named_parameters():
            np.testing.assert_array_equal(param.data, model[f"head.{key}"])


class TestEpochCounts:
    @pytest.mark.parametrize("name, field, value, minimum", [
        ("ditto", "personal_epochs", -1, 0),
        ("ditto", "personal_epochs", 2.5, 0),
        ("ditto", "personal_epochs", True, 0),
        ("fedrep", "head_epochs", 0, 1),
        ("fedrep", "head_epochs", 2.5, 1),
        ("fedrep", "head_epochs", True, 1),
        ("script-convergent", "convergent_epochs", -3, 0),
        ("script-convergent", "convergent_epochs", 1.5, 0),
        ("script-convergent", "convergent_epochs", True, 0),
    ])
    def test_rejects_non_integer_or_too_small(self, name, field, value, minimum):
        # range() would run a negative count as no epochs and reject a
        # float only once training reached it; bool is an int subclass.
        with pytest.raises(ValueError, match=(
                rf"{field} must be an integer >= {minimum}, got {value!r}")):
            build_method(name, tiny_config(), NUM_CLASSES, encoder_factory,
                         **{field: value})

    @pytest.mark.parametrize("name, field, value", [
        ("ditto", "personal_epochs", 0),
        ("fedrep", "head_epochs", 1),
        ("script-convergent", "convergent_epochs", 0),
    ])
    def test_accepts_the_smallest_count(self, name, field, value):
        algorithm = build_method(name, tiny_config(), NUM_CLASSES,
                                 encoder_factory, **{field: value})
        assert getattr(algorithm, field) == value

