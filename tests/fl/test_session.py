"""TrainingSession mechanics: events, callbacks, streaming aggregation,
checkpoint files, and store hygiene on failure paths."""

import io
import json

import numpy as np
import pytest

from repro.data import make_cifar10_like, partition_iid
from repro.fl import (
    ClientUpdate,
    EarlyStopping,
    EvalCadence,
    FederatedAlgorithm,
    FederatedConfig,
    HistoryStreamer,
    RandomSampler,
    RoundCheckpointer,
    RoundRobinSampler,
    SerialBackend,
    SessionCallback,
    TrainingSession,
    build_federation,
    read_checkpoint,
)
from repro.fl.personalization import PersonalizationResult
from repro.fl.session.codec import PackedState
from repro.fl.session.state import checkpoint_segments
from repro.fl.session.events import (
    AggregateDone,
    ClientUpdateDone,
    PersonalizeDone,
    RoundBegin,
    RoundEnd,
)
from repro.nn import Linear


class TraceAlgorithm(FederatedAlgorithm):
    """Instrumented algorithm recording every call in sequence."""

    name = "trace"

    def __init__(self, config, num_classes=10, loss_per_round=None):
        super().__init__(config, num_classes)
        self.calls = []
        self.loss_per_round = loss_per_round or {}

    def build_global_state(self):
        return {"w": np.zeros(3)}

    def local_update(self, client, global_state, round_index):
        self.calls.append(("update", round_index, client.client_id))
        return ClientUpdate(
            client_id=client.client_id,
            state={"w": global_state["w"] + 1.0},
            weight=float(client.num_train_samples),
            metrics={"loss": self.loss_per_round.get(round_index, 1.0)},
        )

    def extract_features(self, clients, global_state, images):
        return [array.reshape(array.shape[0], -1) for array in images]

    def personalize(self, client, global_state):
        return PersonalizationResult(accuracy=0.5, train_accuracy=0.5,
                                     head=Linear(2, 2), losses=[])


class Recorder(SessionCallback):
    def __init__(self):
        self.events = []

    def on_event(self, session, event):
        self.events.append(event)


def make_clients(n=4):
    dataset = make_cifar10_like(image_size=8, train_per_class=10,
                                test_per_class=2, seed=0)
    parts = partition_iid(dataset.train.labels, n, np.random.default_rng(0))
    return build_federation(dataset, parts, seed=0)


def tiny_config(**overrides):
    defaults = dict(num_clients=4, clients_per_round=2, rounds=3,
                    personalization_epochs=1, seed=0)
    defaults.update(overrides)
    return FederatedConfig(**defaults)


class TestEventOrder:
    def test_round_event_sequence(self):
        config = tiny_config(rounds=2)
        recorder = Recorder()
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config,
                                  callbacks=[recorder])
        session.execute()
        kinds = [type(e) for e in recorder.events]
        per_round = [RoundBegin, ClientUpdateDone, ClientUpdateDone,
                     AggregateDone, RoundEnd]
        assert kinds == per_round * 2 + [PersonalizeDone]
        begins = [e for e in recorder.events if isinstance(e, RoundBegin)]
        assert [e.round_index for e in begins] == [0, 1]
        assert all(len(e.participant_ids) == 2 for e in begins)
        end = [e for e in recorder.events if isinstance(e, RoundEnd)][-1]
        assert end.record.mean_loss == pytest.approx(1.0)

    def test_round_end_fires_after_state_commit(self):
        config = tiny_config(rounds=1)
        seen = {}

        class Probe(SessionCallback):
            def on_round_end(self, session, event):
                seen["round_index"] = session.round_index
                seen["records"] = len(session.round_records)

        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config,
                                  callbacks=[Probe()])
        session.run()
        assert seen == {"round_index": 1, "records": 1}

    def test_updates_stream_into_aggregator_before_barrier(self):
        """Under the serial backend the round is a true pipeline: client
        i's update is delivered before client i+1 even starts, and the one
        aggregation call follows the last update, in sampled order."""
        config = tiny_config(rounds=1, clients_per_round=3)
        trace = []

        class PipelinedAlgorithm(TraceAlgorithm):
            def local_update(self, client, global_state, round_index):
                trace.append(("update", client.client_id))
                return super().local_update(client, global_state, round_index)

            def aggregate(self, updates, global_state, round_index):
                trace.append(("aggregate", [u.client_id for u in updates]))
                return super().aggregate(updates, global_state, round_index)

        class Delivered(SessionCallback):
            def on_client_update_done(self, session, event):
                trace.append(("done", event.client_id))

        session = TrainingSession(PipelinedAlgorithm(config), make_clients(4),
                                  config, sampler=RoundRobinSampler(3),
                                  callbacks=[Delivered()])
        session.step()
        assert trace == [("update", 0), ("done", 0), ("update", 1),
                         ("done", 1), ("update", 2), ("done", 2),
                         ("aggregate", [0, 1, 2])]

    def test_backend_delivering_a_position_twice_raises(self):
        class RepeatingBackend(SerialBackend):
            def imap(self, task, items):
                yield from super().imap(task, items)
                yield 1, task(items[1])

        config = tiny_config(rounds=1, clients_per_round=3)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config,
                                  sampler=RoundRobinSampler(3),
                                  backend=RepeatingBackend())
        with pytest.raises(ValueError, match="sampled position 1 twice"):
            session.step()
        assert session.round_index == 0
        assert session.round_records == []


class TestStepAndRunUntil:
    def test_step_advances_one_round(self):
        config = tiny_config()
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        assert session.round_index == 0
        record = session.step()
        assert record.round_index == 0
        assert session.round_index == 1
        session.run_until(3)
        assert session.round_index == 3
        assert len(session.round_records) == 3

    def test_run_until_is_idempotent_at_target(self):
        config = tiny_config()
        algorithm = TraceAlgorithm(config)
        session = TrainingSession(algorithm, make_clients(4), config)
        session.run()
        updates = len(algorithm.calls)
        session.run()  # already at config.rounds: nothing recomputes
        assert len(algorithm.calls) == updates

    def test_zero_rounds_still_initializes_and_personalizes(self):
        config = tiny_config(rounds=0)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        result = session.execute()
        assert len(result.accuracies) == 4
        assert result.rounds == []

    def test_personalize_before_init_raises(self):
        config = tiny_config()
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        with pytest.raises(RuntimeError):
            session.personalize()

    def test_requires_clients(self):
        config = tiny_config()
        with pytest.raises(ValueError):
            TrainingSession(TraceAlgorithm(config), [], config)

    def test_samples_materialized_clients_by_id(self):
        # Ids need not be positions: each round draws sample_ids over the
        # clients' ids, in order, and maps them back to those clients.
        config = tiny_config(rounds=4)
        clients = make_clients(4)
        ids = [10, 3, 7, 21]
        for client, client_id in zip(clients, ids):
            client.client_id = client_id
        algorithm = TraceAlgorithm(config)
        TrainingSession(algorithm, clients, config,
                        sampler=RandomSampler(2, seed=11)).run()
        reference = RandomSampler(2, seed=11)
        for round_index in range(4):
            drawn = [cid for kind, r, cid in algorithm.calls
                     if kind == "update" and r == round_index]
            assert drawn == reference.sample_ids(ids, round_index)

    def test_rejects_duplicate_client_ids(self):
        # Stores, sampling and personalization results are keyed by client
        # id: a repeated id would hand one client's store to another.
        config = tiny_config()
        clients = make_clients(4)
        clients[3].client_id = 0
        with pytest.raises(ValueError, match=r"^clients repeat client ids \[0\]"):
            TrainingSession(TraceAlgorithm(config), clients, config)
        novel = make_clients(3)
        novel[2].client_id = 1
        with pytest.raises(ValueError, match=r"^novel_clients repeat client ids \[1\]"):
            TrainingSession(TraceAlgorithm(config), make_clients(4), config,
                            novel_clients=novel)


class TestBuiltinCallbacks:
    def test_history_streamer_to_stream_and_path(self, tmp_path):
        config = tiny_config(rounds=2)
        buffer = io.StringIO()
        path = tmp_path / "history.jsonl"
        session = TrainingSession(
            TraceAlgorithm(config), make_clients(4), config,
            callbacks=[HistoryStreamer(buffer), HistoryStreamer(path)])
        session.execute()
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [entry["event"] for entry in lines] == ["round", "round", "result"]
        assert lines[0]["record"]["round_index"] == 0
        assert lines[-1]["summary"]["mean_accuracy"] == pytest.approx(0.5)
        assert path.read_text() == buffer.getvalue()

    def test_eval_cadence(self):
        config = tiny_config(rounds=4)
        cadence = EvalCadence(lambda session: {"round": session.round_index},
                              every=2)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config,
                                  callbacks=[cadence])
        session.run()
        # Fires after rounds 1 and 3 (2 and 4 completed rounds); the session
        # has already advanced when the hook runs.
        assert cadence.history == [(1, {"round": 2}), (3, {"round": 4})]

    def test_early_stopping_stops_on_plateau(self):
        config = tiny_config(rounds=10)
        losses = {0: 1.0, 1: 0.5}  # rounds >= 2 plateau at 1.0
        stopper = EarlyStopping(patience=2)
        session = TrainingSession(
            TraceAlgorithm(config, loss_per_round=losses), make_clients(4),
            config, callbacks=[stopper])
        session.run()
        assert session.stop_requested
        assert stopper.best == pytest.approx(0.5)
        # best at round 1, two stale rounds (2, 3) then stop.
        assert stopper.stopped_round == 3
        assert session.round_index == 4
        assert len(session.round_records) == 4

    def test_round_checkpointer_writes_every_k_rounds(self, tmp_path):
        config = tiny_config(rounds=4)
        path = tmp_path / "ckpt.json"
        checkpointer = RoundCheckpointer(path, every=2)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config,
                                  callbacks=[checkpointer])
        session.run()
        assert checkpointer.writes == 2
        state = read_checkpoint(path)
        assert state.round_index == 4
        assert len(state.round_records) == 4
        # Atomic discipline: no temp files left behind — just the manifest
        # and the single .npcol sidecar it references.
        (sidecar,) = checkpoint_segments(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["ckpt.json", sidecar.name])

    def test_round_checkpointer_retains_last_n(self, tmp_path):
        config = tiny_config(rounds=5)
        path = tmp_path / "ckpt.json"
        checkpointer = RoundCheckpointer(path, keep_last=2)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config,
                                  callbacks=[checkpointer])
        session.run()
        assert checkpointer.writes == 5
        # Only the newest two numbered checkpoints survive pruning.
        assert [p.name for p in checkpointer.retained()] == \
            ["ckpt-r000004.json", "ckpt-r000005.json"]
        # The base path always tracks the newest checkpoint, so resume code
        # that only knows the base path keeps working.
        assert read_checkpoint(path).round_index == 5
        assert read_checkpoint(tmp_path / "ckpt-r000004.json").round_index == 4
        manifests = sorted(p.name for p in tmp_path.glob("*.json"))
        assert manifests == ["ckpt-r000004.json", "ckpt-r000005.json",
                             "ckpt.json"]
        # Retention is sidecar-aware: every .npcol on disk is referenced by
        # a surviving manifest — pruned checkpoints never leave orphans.
        on_disk = {p.name for p in tmp_path.glob("*.npcol")}
        referenced = {segment.name for name in manifests
                      for segment in checkpoint_segments(tmp_path / name)}
        assert on_disk == referenced

    def test_round_checkpointer_retention_respects_cadence(self, tmp_path):
        config = tiny_config(rounds=6)
        path = tmp_path / "ckpt.json"
        checkpointer = RoundCheckpointer(path, every=2, keep_last=2)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config,
                                  callbacks=[checkpointer])
        session.run()
        assert checkpointer.writes == 3
        assert [p.name for p in checkpointer.retained()] == \
            ["ckpt-r000004.json", "ckpt-r000006.json"]

    def test_round_checkpointer_rejects_bad_knobs(self, tmp_path):
        with pytest.raises(ValueError):
            RoundCheckpointer(tmp_path / "c.json", every=0)
        with pytest.raises(ValueError):
            RoundCheckpointer(tmp_path / "c.json", keep_last=0)

    def test_add_and_remove_callback(self):
        config = tiny_config(rounds=1)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        recorder = session.add_callback(Recorder())
        session.step()
        count = len(recorder.events)
        assert count > 0
        session.remove_callback(recorder)
        session.step()
        assert len(recorder.events) == count


class TestRestoreValidation:
    def test_algorithm_mismatch_raises(self):
        config = tiny_config(rounds=1)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        session.run()
        state = session.capture_state()
        other = TraceAlgorithm(config)
        other.name = "other"
        fresh = TrainingSession(other, make_clients(4), config)
        with pytest.raises(ValueError, match="other"):
            fresh.restore_state(state)

    def test_unknown_client_ids_raise(self):
        config = tiny_config(rounds=1)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        session.run()
        state = session.capture_state()
        state.client_stores[999] = {"x": 1}
        fresh = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        with pytest.raises(ValueError, match="999"):
            fresh.restore_state(state)

    def test_context_mismatch_raises(self):
        """A checkpoint taken under one configuration must refuse to
        restore into a session over a different one."""
        config = tiny_config(rounds=2)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        session.run_until(1)
        state = session.capture_state()
        other_config = tiny_config(rounds=2, seed=7)
        fresh = TrainingSession(TraceAlgorithm(other_config), make_clients(4),
                                other_config)
        with pytest.raises(ValueError, match="context"):
            fresh.restore_state(state)

    def test_execution_knobs_do_not_change_context(self):
        config = tiny_config()
        process_config = tiny_config(backend="process", workers=2)
        serial = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        process = TrainingSession(TraceAlgorithm(process_config),
                                  make_clients(4), process_config)
        assert serial.context == process.context
        process.close()

    def test_captured_state_is_detached(self):
        config = tiny_config(rounds=2)
        session = TrainingSession(TraceAlgorithm(config), make_clients(4), config)
        session.run_until(1)
        state = session.capture_state()
        frozen = json.dumps(state.to_json())
        session.run()  # keep training; the snapshot must not move
        assert json.dumps(state.to_json()) == frozen
        assert state.round_index == 1


class StoreAlgorithm(TraceAlgorithm):
    """Keeps per-client store state; ``fail_at=(round, client)`` makes that
    client's local update raise in that round.

    The failure is fixed at construction: a process pool installs the
    algorithm in its workers once, so attributes set on the coordinator's
    instance later never reach them."""

    name = "store"

    def __init__(self, config, fail_at=None):
        super().__init__(config)
        self.fail_at = fail_at

    def local_update(self, client, global_state, round_index):
        if (round_index, client.client_id) == self.fail_at:
            raise ValueError(f"client {client.client_id} failed")
        client.store["visits"] = np.full(2, float(round_index + 1))
        return super().local_update(client, global_state, round_index)


class ExplodingCallback(SessionCallback):
    def on_client_update_done(self, session, event):
        raise RuntimeError("callback failed")


class TestFailurePathsLeaveStoresUnpacked:
    """Under the process backend client stores travel packed; a round that
    fails mid-dispatch must still leave every participant a plain store."""

    def _session(self, clients, fail_at=None):
        config = tiny_config(clients_per_round=4, backend="process", workers=2)
        session = TrainingSession(StoreAlgorithm(config, fail_at=fail_at),
                                  clients, config)
        session.step()  # every store is non-empty from here on, so it packs
        assert all(client.store for client in clients)
        return session

    @staticmethod
    def _assert_plain_stores(session, clients, caught):
        # ``caught`` holds the traceback, and with it the failed round's
        # frames: the stores must be plain without waiting for those
        # frames to be collected.
        assert caught.traceback
        for client in clients:
            assert isinstance(client.store, dict)
            assert not isinstance(client.store, PackedState)
        json.dumps(session.capture_state().to_json())

    def test_failing_local_update(self):
        clients = make_clients(4)
        with self._session(clients, fail_at=(1, 2)) as session:
            with pytest.raises(ValueError, match="client 2 failed") as caught:
                session.step()
            self._assert_plain_stores(session, clients, caught)

    def test_failing_callback(self):
        clients = make_clients(4)
        with self._session(clients) as session:
            session.add_callback(ExplodingCallback())
            with pytest.raises(RuntimeError, match="callback failed") as caught:
                session.step()
            self._assert_plain_stores(session, clients, caught)
