"""Incremental round checkpoints.

A ``RoundCheckpointer`` write packs one new segment with the global state
and only the client stores the session reports as changed; its manifest
points every other store at the older segment holding it.  These tests
pin that every such checkpoint still decodes to the whole state, bitwise,
and that the failure paths stay loud (docs/checkpoint-format.md).
"""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.arrays import CorruptArrayFile
from repro.data.synthetic import SyntheticImageDataset
from repro.eval.harness import make_encoder_factory
from repro.eval.registry import build_method
from repro.fl import (
    AvailabilitySpec,
    ClientUpdate,
    FederatedAlgorithm,
    FederatedConfig,
    RoundCheckpointer,
    RoundRobinSampler,
    TrainingSession,
    VirtualPopulation,
    build_federation,
    read_checkpoint,
)
from repro.fl.session import COLUMNAR_SCHEMA, SEGMENTED_SCHEMA
from repro.fl.personalization import PersonalizationResult
from repro.fl.session.state import checkpoint_segments, checkpoint_total_bytes
from repro.nn import Linear
from repro.telemetry import Tracer

CHURN = AvailabilitySpec(availability=0.6, churn=0.4, dropout=0.15,
                         speed_spread=0.3)
STORE_METHODS = ["calibre-simclr", "scaffold", "ditto"]


@pytest.fixture(scope="module")
def dataset():
    return SyntheticImageDataset(num_classes=4, train_per_class=80,
                                 test_per_class=10, seed=3)


def build_session(dataset, method, *, num_clients=16, clients_per_round=4,
                  rounds=6, max_resident=6, seed=5):
    """A churned virtual population; the caller closes the population."""
    config = FederatedConfig(
        num_clients=num_clients, clients_per_round=clients_per_round,
        rounds=rounds, local_epochs=1, batch_size=8, availability=CHURN,
        personalization_epochs=1, seed=seed)
    factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8),
                                   seed=7)
    overrides = {"num_prototypes": 3} if method.startswith("calibre") else {}
    algorithm = build_method(method, config, dataset.num_classes, factory,
                             **overrides)
    population = VirtualPopulation(dataset, num_clients=num_clients,
                                   samples_per_client=12, seed=seed,
                                   max_resident=max_resident)
    return TrainingSession(algorithm, population, config), population


def canonical(state):
    """A bitwise, store-order-free view of a state: its manifest skeleton
    with stores sorted by client id, plus every column's dtype, shape and
    raw bytes."""
    ordered = replace(state,
                      client_stores=dict(sorted(state.client_stores.items())))
    manifest, columns, _ = ordered.to_manifest()
    return (json.dumps(manifest),
            [(name, column.dtype.str, column.shape,
              np.ascontiguousarray(column).tobytes())
             for name, column in columns.items()])


def on_disk_segments(directory):
    return sorted(path.name for path in directory.glob("*.npcol"))


def referenced_segments(directory):
    return sorted({segment.name for manifest in directory.glob("*.json")
                   for segment in checkpoint_segments(manifest)})


def manifest_of(path):
    return json.loads(path.read_text())


class TestIncrementalWrites:
    @pytest.mark.parametrize("method", STORE_METHODS)
    @pytest.mark.parametrize("every", [1, 2, 3])
    def test_checkpoint_equals_capture_after_every_round(
            self, dataset, tmp_path, method, every):
        session, population = build_session(dataset, method)
        path = tmp_path / "ckpt.json"
        session.add_callback(RoundCheckpointer(path, every=every))
        captured = {}
        schemas = []
        with population:
            for round_index in range(session.config.rounds):
                session.step()
                if (round_index + 1) % every == 0:
                    captured[round_index + 1] = canonical(
                        session.capture_state())
                    schemas.append(manifest_of(path)["schema"])
                last = captured[max(captured)] if captured else None
                if last is None:
                    assert not path.exists()
                    continue
                assert canonical(read_checkpoint(path)) == last
                assert on_disk_segments(tmp_path) == \
                    referenced_segments(tmp_path)
        # The first write is full; later ones carried unchanged stores.
        assert schemas[0] == COLUMNAR_SCHEMA
        assert SEGMENTED_SCHEMA in schemas[1:]

    def test_write_bytes_count_manifest_and_new_segment(self, dataset,
                                                        tmp_path):
        tracer = Tracer()
        path = tmp_path / "ckpt.json"
        with tracer.activate():
            session, population = build_session(dataset, "calibre-simclr")
            session.add_callback(RoundCheckpointer(path))
            with population:
                session.run_until(3)
                before = tracer.counters["checkpoint.bytes"]
                session.step()
        written = tracer.counters["checkpoint.bytes"] - before
        manifest = manifest_of(path)
        assert manifest["schema"] == SEGMENTED_SCHEMA
        # A write's I/O volume: its manifest plus the segment it packed.
        # The footprint also counts the older segments it references.
        assert written == path.stat().st_size + manifest["arrays"]["nbytes"]
        assert checkpoint_total_bytes(path) > written

    def test_store_that_becomes_empty_leaves_the_manifest(self, tmp_path):
        session = blinking_session()
        path = tmp_path / "ckpt.json"
        session.add_callback(RoundCheckpointer(path))
        session.run_until(2)
        assert sorted(read_checkpoint(path).client_stores) == [0, 1, 2, 3]
        session.step()  # clients 0 and 1 empty their stores
        manifest = manifest_of(path)
        assert manifest["schema"] == SEGMENTED_SCHEMA
        assert sorted(manifest["client_stores"]) == ["2", "3"]
        assert canonical(read_checkpoint(path)) == \
            canonical(session.capture_state())

    @pytest.mark.parametrize("method", ["calibre-simclr", "scaffold"])
    def test_compaction_keeps_disk_within_twice_live(self, dataset, tmp_path,
                                                     method):
        # Six clients, four sampled a round: stores go stale fast, so
        # older segments empty out and writes must compact.
        session, population = build_session(
            dataset, method, num_clients=6, clients_per_round=4, rounds=10)
        path = tmp_path / "ckpt.json"
        session.add_callback(RoundCheckpointer(path))
        compacted = 0
        with population:
            for _ in range(session.config.rounds):
                record = session.step()
                manifest = manifest_of(path)
                stores = manifest["client_stores"]
                if (manifest["schema"] == COLUMNAR_SCHEMA
                        and set(stores) - {str(i) for i in
                                           record.participant_ids}):
                    compacted += 1
                state = read_checkpoint(path)
                _, columns, _ = state.to_manifest()
                live = sum(column.nbytes for column in columns.values())
                disk = sum(segment.stat().st_size
                           for segment in tmp_path.glob("*.npcol"))
                assert disk <= 2 * live
                assert on_disk_segments(tmp_path) == \
                    referenced_segments(tmp_path)
        assert compacted >= 1

    @pytest.mark.parametrize("method", STORE_METHODS)
    def test_resume_from_incremental_checkpoint_matches_uninterrupted(
            self, dataset, tmp_path, method):
        live_dir, snapshot = tmp_path / "live", tmp_path / "snapshot"
        reference, ref_population = build_session(dataset, method)
        reference.add_callback(RoundCheckpointer(live_dir / "ckpt.json"))
        with ref_population:
            reference.run_until(3)
            assert manifest_of(live_dir / "ckpt.json")["schema"] == \
                SEGMENTED_SCHEMA
            shutil.copytree(live_dir, snapshot)
            reference.run()
            expected = canonical(reference.capture_state())

        resumed, population = build_session(dataset, method)
        with population:
            resumed.load_checkpoint(snapshot / "ckpt.json")
            # The first write after a restore is full, and still exact.
            resumed.add_callback(RoundCheckpointer(snapshot / "ckpt.json"))
            resumed.step()
            assert manifest_of(snapshot / "ckpt.json")["schema"] == \
                COLUMNAR_SCHEMA
            assert canonical(read_checkpoint(snapshot / "ckpt.json")) == \
                canonical(resumed.capture_state())
            resumed.run()
            assert canonical(resumed.capture_state()) == expected


def blinking_session(novel=False):
    """Four clients with 4096-float stores, two trained per round in
    rotation, plus one novel client when asked."""
    clients = build_federation(
        SyntheticImageDataset(num_classes=2, train_per_class=8,
                              test_per_class=2, seed=0),
        [np.arange(i * 4, i * 4 + 4) for i in range(4)], seed=0)
    novel_clients = ([replace(clients[0], client_id=100, is_novel=True,
                              store={})] if novel else [])
    config = FederatedConfig(num_clients=4, clients_per_round=2, rounds=3,
                             seed=0)
    return TrainingSession(Blinking(config, num_classes=2), clients, config,
                           novel_clients=novel_clients,
                           sampler=RoundRobinSampler(2))


class Blinking(FederatedAlgorithm):
    """Each participation flips a client's store between set and empty;
    personalization writes a store for every client it sees."""

    name = "blinking"

    def build_global_state(self):
        return {"w": np.zeros(4096)}

    def local_update(self, client, global_state, round_index):
        if client.store:
            client.store.clear()
        else:
            client.store["seen"] = np.full(4096, float(round_index))
        return ClientUpdate(client_id=client.client_id,
                            state={"w": global_state["w"] + 1.0},
                            weight=1.0, metrics={"loss": 1.0})

    def personalize(self, client, global_state):
        client.store["probed"] = np.ones(8)
        return PersonalizationResult(accuracy=0.5, train_accuracy=0.5,
                                     head=Linear(2, 2), losses=[])


class TestStoreChanges:
    def test_marks_follow_dispatch_and_restore(self, dataset):
        session, population = build_session(dataset, "scaffold", rounds=2)
        other, other_population = build_session(dataset, "scaffold", rounds=2)
        with population, other_population:
            mark, changed = session.store_changes()
            assert changed is None  # no mark yet: everything may differ
            record = session.step()
            mark, changed = session.store_changes(mark)
            assert changed == sorted(record.participant_ids)
            mark, changed = session.store_changes(mark)
            assert changed == []
            session.personalize()
            mark, changed = session.store_changes(mark)
            # Personalization hands every store to algorithm code too.
            assert changed == sorted(population.stores())
            assert other.store_changes(mark)[1] is None
            session.restore_state(session.capture_state())
            assert session.store_changes(mark)[1] is None

    def test_novel_clients_stay_out_of_incremental_checkpoints(self,
                                                               tmp_path):
        session = blinking_session(novel=True)
        path = tmp_path / "ckpt.json"
        session.add_callback(RoundCheckpointer(path))
        session.step()
        mark, _ = session.store_changes()
        session.personalize()
        assert session.store_changes(mark)[1] == [0, 1, 2, 3]
        session.step()
        assert canonical(read_checkpoint(path)) == \
            canonical(session.capture_state())


class TestFailurePaths:
    def incremental(self, dataset, tmp_path, rounds=3):
        session, population = build_session(dataset, "scaffold")
        path = tmp_path / "ckpt.json"
        session.add_callback(RoundCheckpointer(path))
        session.run_until(rounds)
        population.close()
        manifest = manifest_of(path)
        assert manifest["schema"] == SEGMENTED_SCHEMA
        older = manifest["segments"][0]["file"]
        holders = [int(client_id) for client_id, name
                   in manifest["store_segments"].items() if name == older]
        return path, tmp_path / older, holders

    def test_missing_older_segment_names_file_and_client(self, dataset,
                                                         tmp_path):
        path, older, holders = self.incremental(dataset, tmp_path)
        older.unlink()
        with pytest.raises(CorruptArrayFile, match="does not exist") as error:
            read_checkpoint(path)
        assert older.name in str(error.value)
        assert f"client ids {sorted(holders)}" in str(error.value)

    def test_swapped_older_segment_names_file_and_client(self, dataset,
                                                         tmp_path):
        path, older, holders = self.incremental(dataset, tmp_path)
        own = tmp_path / manifest_of(path)["arrays"]["file"]
        older.write_bytes(own.read_bytes())
        with pytest.raises(CorruptArrayFile, match="digest") as error:
            read_checkpoint(path)
        assert older.name in str(error.value)
        assert f"client ids {sorted(holders)}" in str(error.value)

    def test_segments_swept_by_another_writer_force_a_full_write(
            self, dataset, tmp_path):
        session, population = build_session(dataset, "scaffold")
        path = tmp_path / "ckpt.json"
        session.add_callback(RoundCheckpointer(path))
        with population:
            session.run_until(3)
            assert manifest_of(path)["schema"] == SEGMENTED_SCHEMA
            # A full save over the same path sweeps the older segments the
            # checkpointer's carried stores live in.
            session.save_checkpoint(path)
            session.step()
            assert manifest_of(path)["schema"] == COLUMNAR_SCHEMA
            assert canonical(read_checkpoint(path)) == \
                canonical(session.capture_state())

    @pytest.mark.parametrize("compacting", [False, True])
    def test_crash_before_manifest_replace_keeps_previous_checkpoint(
            self, dataset, tmp_path, monkeypatch, compacting):
        import repro.fl.session.state as state_module

        session, population = build_session(dataset, "calibre-simclr")
        path = tmp_path / "ckpt.json"
        session.add_callback(RoundCheckpointer(path))
        with population:
            session.run_until(2)
            assert manifest_of(path)["schema"] == SEGMENTED_SCHEMA
            previous = canonical(read_checkpoint(path))
            segments_before = on_disk_segments(tmp_path)

            def crash(*_args, **_kwargs):
                raise OSError("killed between segment and manifest")

            with monkeypatch.context() as patch:
                patch.setattr(state_module, "atomic_write_text", crash)
                if compacting:  # every write with carried stores compacts
                    patch.setattr(state_module, "_COMPACT_BELOW", 1.01)
                with pytest.raises(OSError, match="killed"):
                    session.step()
            # The new segment landed, the manifest did not: the previous
            # checkpoint still decodes to the previous round.
            orphans = sorted(set(on_disk_segments(tmp_path))
                             - set(segments_before))
            assert len(orphans) == 1
            assert canonical(read_checkpoint(path)) == previous
            assert read_checkpoint(path).round_index == 2
            # The next write carries both rounds' changes and sweeps it.
            session.step()
            assert orphans[0] not in on_disk_segments(tmp_path)
            assert on_disk_segments(tmp_path) == referenced_segments(tmp_path)
            assert canonical(read_checkpoint(path)) == \
                canonical(session.capture_state())
