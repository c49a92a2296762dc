"""Tests for sweep grids and content-hashed run keys."""

import pytest

from repro.eval import NonIIDSetting
from repro.fl import FederatedConfig
from repro.runs import (
    FINGERPRINT_LENGTH,
    RunKey,
    SweepSpec,
    SweepVariant,
    execute_cell,
    outcome_from_records,
)

CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1,
                         local_epochs=1, batch_size=16,
                         personalization_epochs=2, seed=0)
SETTING = NonIIDSetting("quantity", 2, 20)


def make_key(**overrides):
    fields = dict(dataset="cifar10", setting=SETTING, method="script-fair",
                  seed=0, config=CONFIG)
    fields.update(overrides)
    return RunKey(**fields)


class TestRunKeyFingerprint:
    def test_stable_and_hex(self):
        key = make_key()
        assert key.fingerprint == make_key().fingerprint
        assert len(key.fingerprint) == FINGERPRINT_LENGTH
        int(key.fingerprint, 16)  # valid hex

    def test_execution_knobs_do_not_change_the_hash(self):
        # backend/workers/client_batch are bitwise result-neutral, so a
        # sweep resumed under a different scheduler must recognize its cells.
        base = make_key()
        parallel = make_key(config=CONFIG.with_overrides(
            backend="process", workers=4, client_batch=2))
        assert base.fingerprint == parallel.fingerprint

    def test_variant_label_is_cosmetic(self):
        assert make_key(variant="a").fingerprint == make_key(variant="b").fingerprint

    def test_semantic_fields_change_the_hash(self):
        base = make_key().fingerprint
        assert make_key(seed=1).fingerprint != base
        assert make_key(method="fedavg").fingerprint != base
        assert make_key(setting=NonIIDSetting("dirichlet", 0.3, 20)).fingerprint != base
        assert make_key(overrides={"use_ln": True}).fingerprint != base
        assert make_key(config=CONFIG.with_overrides(rounds=2)).fingerprint != base
        assert make_key(dataset_kwargs={"image_size": 8}).fingerprint != base

    def test_parameter_int_float_equivalence(self):
        quantity_int = make_key(setting=NonIIDSetting("quantity", 2, 20))
        quantity_float = make_key(setting=NonIIDSetting("quantity", 2.0, 20))
        assert quantity_int.fingerprint == quantity_float.fingerprint


class TestRunKeyConversions:
    def test_jsonable_round_trip(self):
        key = make_key(variant="ln1-lp0", overrides={"use_ln": True},
                       dataset_kwargs={"image_size": 8})
        clone = RunKey.from_jsonable(key.to_jsonable())
        assert clone.fingerprint == key.fingerprint
        assert clone.variant == key.variant
        assert clone.method == key.method
        assert clone.setting == key.setting

    def test_execute_cell_builds_the_keyed_cell(self):
        # The key's method, overrides and config reach the session, and
        # its fingerprint is the session's checkpoint context.
        class Built(Exception):
            pass

        built = {}

        def capture(method, session):
            built.update(method=method, session=session)
            raise Built

        key = make_key(method="calibre-simclr", overrides={"num_prototypes": 3},
                       dataset_kwargs={"image_size": 8, "train_per_class": 8,
                                       "test_per_class": 2})
        with pytest.raises(Built):
            execute_cell(key, session_hook=capture)
        session = built["session"]
        assert built["method"] == "calibre-simclr"
        assert session.algorithm.name == "calibre-simclr"
        assert session.algorithm.num_prototypes == 3
        assert session.config == CONFIG
        assert session.context == key.fingerprint
        assert len(session.clients) == CONFIG.num_clients

    def test_label_mentions_coordinates(self):
        label = make_key(variant="ln1-lp0").label()
        assert "script-fair" in label and "seed=0" in label and "ln1-lp0" in label


class TestSweepSpec:
    def make_sweep(self, **overrides):
        fields = dict(name="grid", methods=["script-fair", "fedavg"],
                      settings=[SETTING], seeds=[0, 1], config=CONFIG,
                      variants=[SweepVariant("a"), SweepVariant("b", {"lr": 0.1})])
        fields.update(overrides)
        return SweepSpec(**fields)

    def test_grid_expansion_count_and_order(self):
        sweep = self.make_sweep()
        cells = sweep.cells()
        assert len(cells) == sweep.num_cells == 2 * 1 * 2 * 2
        # canonical nesting: seed, dataset, setting, variant, method
        coords = [(k.seed, k.variant, k.method) for k in cells]
        assert coords == [
            (0, "a", "script-fair"), (0, "a", "fedavg"),
            (0, "b", "script-fair"), (0, "b", "fedavg"),
            (1, "a", "script-fair"), (1, "a", "fedavg"),
            (1, "b", "script-fair"), (1, "b", "fedavg"),
        ]

    def test_cells_reseed_config_per_seed(self):
        for key in self.make_sweep().cells():
            assert key.config.seed == key.seed

    def test_variant_overrides_merge_over_base(self):
        sweep = self.make_sweep(
            method_overrides={"script-fair": {"lr": 0.5, "epochs": 3}})
        by = {(k.variant, k.method): k for k in sweep.cells()}
        assert by[("b", "script-fair")].overrides == {"lr": 0.1, "epochs": 3}
        assert by[("a", "script-fair")].overrides == {"lr": 0.5, "epochs": 3}
        assert by[("a", "fedavg")].overrides == {}

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            self.make_sweep(methods=["bogus"])

    def test_duplicate_variant_labels_rejected(self):
        with pytest.raises(ValueError):
            self.make_sweep(variants=[SweepVariant("x"), SweepVariant("x")])

    @pytest.mark.parametrize("axis, values", [
        ("seeds", [0, 0]), ("methods", ["fedavg", "script-fair", "fedavg"])])
    def test_repeated_axis_values_rejected(self, axis, values):
        # A repeated value would list its cells twice.
        with pytest.raises(ValueError, match=f"{axis} must be unique"):
            self.make_sweep(**{axis: values})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            self.make_sweep(seeds=[])

    @staticmethod
    def fake_records(sweep):
        # Each record's one accuracy is its seed / 4, naming its seed.
        return [{"key": key.to_jsonable(),
                 "result": {"algorithm": key.method,
                            "accuracies": {"0": key.seed / 4}}}
                for key in sweep.cells()]

    def test_outcome_from_records_single_panel(self):
        sweep = self.make_sweep(seeds=[3], variants=[SweepVariant()])
        outcome = outcome_from_records(sweep, self.fake_records(sweep))
        assert list(outcome.results) == ["script-fair", "fedavg"]
        assert (outcome.title, outcome.dataset, outcome.setting) == \
            ("grid", "cifar10", SETTING)
        assert outcome.reports["fedavg"].mean == 0.75

    def test_outcome_from_records_keeps_the_chosen_seed(self):
        sweep = self.make_sweep(variants=[SweepVariant()])
        records = self.fake_records(sweep)
        outcome = outcome_from_records(sweep, records, seed=1, title="t")
        assert outcome.title == "t"
        assert outcome.reports["script-fair"].mean == 0.25
        with pytest.raises(ValueError, match="pick one of seeds"):
            outcome_from_records(sweep, records)
        with pytest.raises(ValueError, match="not in sweep seeds"):
            outcome_from_records(sweep, records, seed=2)

    def test_outcome_from_records_rejects_multi_variant(self):
        sweep = self.make_sweep()
        with pytest.raises(ValueError, match="single-panel"):
            outcome_from_records(sweep, self.fake_records(sweep), seed=0)

    def test_jsonable_includes_fingerprints(self):
        sweep = self.make_sweep()
        payload = sweep.to_jsonable()
        assert payload["fingerprints"] == [k.fingerprint for k in sweep.cells()]
        assert payload["name"] == "grid"
        for field in ("backend", "workers", "client_batch"):
            assert field not in payload["config"]


class TestRetiredSharedMemoryKnob:
    """Cell records written while ``FederatedConfig`` still had a
    ``shared_memory`` knob carry it in their config; they must keep
    loading, with the fingerprint and checkpoint contexts they were
    written under."""

    # A config and setting as a release that still had the knob stored
    # them; the expected hashes were computed by that release.
    STORED_CONFIG = {
        "num_clients": 3, "clients_per_round": 2, "rounds": 2,
        "local_epochs": 3, "batch_size": 32, "learning_rate": 0.05,
        "momentum": 0.9, "weight_decay": 0.0,
        "personalization_epochs": 10, "personalization_lr": 0.05,
        "personalization_batch_size": 32, "test_fraction": 0.25,
        "num_novel_clients": 0, "seed": 4, "backend": "process",
        "workers": 2, "client_batch": None,
    }
    STORED_SETTING = {"kind": "dirichlet", "parameter": 0.3,
                      "samples_per_client": 20}
    FINGERPRINT = "5725beaec25f84b9"
    SESSION_CONTEXT = "521a7846f92eea29"

    @pytest.mark.parametrize("stored", [None, True, False])
    def test_stored_payload_loads_with_unchanged_hashes(self, stored):
        import types

        from repro.fl.session.session import default_session_context
        from repro.runs.serialize import (
            config_from_jsonable,
            config_to_jsonable,
            setting_from_jsonable,
        )

        config = config_from_jsonable({**self.STORED_CONFIG,
                                       "shared_memory": stored})
        assert "shared_memory" not in config_to_jsonable(config)
        key = RunKey(dataset="cifar10",
                     setting=setting_from_jsonable(self.STORED_SETTING),
                     method="calibre-simclr", seed=4, config=config)
        assert key.fingerprint == self.FINGERPRINT
        clients = [types.SimpleNamespace(client_id=i, num_train_samples=12)
                   for i in range(3)]
        algorithm = types.SimpleNamespace(name="calibre-simclr")
        assert default_session_context(algorithm, clients, config) == \
            self.SESSION_CONTEXT
