"""Unknown-key rejection with did-you-mean hints.

``FederatedConfig.with_overrides`` and ``build_method`` sit at the front
of every sweep grid; a typo'd knob must fail at declaration instead of
passing silently into ``**overrides``.
"""

import numpy as np
import pytest

from repro.eval import available_methods, build_method, valid_overrides
from repro.fl import FederatedConfig
from repro.nn import MLPEncoder


def encoder_factory():
    return MLPEncoder(192, hidden_dims=(8,), rng=np.random.default_rng(0))


CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1)


class TestConfigOverrides:
    def test_valid_overrides_still_work(self):
        assert CONFIG.with_overrides(rounds=7).rounds == 7

    def test_unknown_key_raises_with_suggestion(self):
        with pytest.raises(ValueError, match=r"raunds.*did you mean 'rounds'"):
            CONFIG.with_overrides(raunds=5)

    def test_unknown_key_without_close_match_lists_valid_names(self):
        with pytest.raises(ValueError, match="valid names"):
            CONFIG.with_overrides(zzz_not_a_knob=1)

    def test_multiple_unknown_keys_all_reported(self):
        with pytest.raises(ValueError, match=r"(?s)raunds.*seeed"):
            CONFIG.with_overrides(raunds=5, seeed=1)


class TestBuildMethodOverrides:
    def test_typo_raises_with_suggestion(self):
        with pytest.raises(TypeError, match=r"num_prototipes.*did you mean "
                                            r"'num_prototypes'"):
            build_method("calibre-simclr", CONFIG, 10, encoder_factory,
                         num_prototipes=3)

    def test_parent_class_kwargs_are_valid(self):
        # Calibre forwards **kwargs to PFLSSL: its parent's knobs count.
        algorithm = build_method("calibre-simclr", CONFIG, 10, encoder_factory,
                                 projection_dim=16, num_prototypes=3)
        assert algorithm.projection_dim == 16

    def test_unrelated_parent_knob_rejected_for_non_forwarding_class(self):
        # Scaffold's __init__ has no **kwargs beyond SupervisedFL's names;
        # a Calibre-only knob must not leak into it.
        with pytest.raises(TypeError, match="num_prototypes"):
            build_method("scaffold", CONFIG, 10, encoder_factory,
                         num_prototypes=3)

    def test_every_registered_method_exposes_valid_overrides(self):
        for name in available_methods():
            names = valid_overrides(name)
            assert names, name
            assert not {"self", "config", "num_classes",
                        "encoder_factory"} & names

    def test_unknown_method_still_raises_keyerror(self):
        with pytest.raises(KeyError, match="nope"):
            valid_overrides("nope")

    def test_builder_fixed_keys_rejected_up_front(self):
        # The registry name pins ssl_name/convergent; passing them must be
        # rejected here, not die as a duplicate-keyword TypeError inside
        # the constructor.
        assert "ssl_name" not in valid_overrides("pfl-simclr")
        with pytest.raises(TypeError, match="ssl_name"):
            build_method("pfl-simclr", CONFIG, 10, encoder_factory,
                         ssl_name="byol")
        with pytest.raises(TypeError, match="convergent"):
            build_method("script-fair", CONFIG, 10, encoder_factory,
                         convergent=True)

    def test_supervised_defaults_stay_overridable(self):
        # _supervised's fixed kwargs are defaults (overrides merge over
        # them), so fine_tune_head remains a valid knob.
        algorithm = build_method("fedavg", CONFIG, 10, encoder_factory,
                                 fine_tune_head=True)
        assert algorithm.fine_tune_head is True

    @pytest.mark.parametrize("name", [
        name for name in available_methods()
        if name.startswith(("pfl-", "calibre-")) or name == "fedema"])
    def test_ssl_methods_have_no_persistence_switch(self, name):
        # Every SSL client keeps its client-local state; there is no knob
        # that turns keeping off.
        assert "persist_local_state" not in valid_overrides(name)
        with pytest.raises(TypeError, match=r"unknown override\(s\) for method "
                                            r".*'persist_local_state'"):
            build_method(name, CONFIG, 10, encoder_factory,
                         persist_local_state=False)
