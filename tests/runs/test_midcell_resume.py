"""Mid-cell resume and wall-clock accounting in the sweep subsystem.

A sweep run with ``round_checkpoints=True`` persists each in-flight
cell's session state per round; after a kill, the relaunch resumes the
cell at its last finished round and the resulting record is byte-for-byte
what an uninterrupted sweep writes.
"""

import shutil

import pytest

from repro.eval import NonIIDSetting
from repro.fl import FederatedConfig, SessionCallback
from repro.fl.session import read_checkpoint
from repro.runs import (
    RunStore,
    SweepSpec,
    cell_checkpoint_dir,
    run_sweep,
)
from repro.runs.scheduler import execute_cell
from repro.telemetry import parse_sidecar

TINY_CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=3,
                              local_epochs=1, batch_size=16,
                              personalization_epochs=2, seed=0)
TINY_DATASET = dict(image_size=8, train_per_class=16, test_per_class=4)


def sidecar(store, key):
    return parse_sidecar(store.telemetry_path_for(key).read_text())


def tiny_sweep(methods=("fedavg",), seeds=(0,), rounds=3):
    return SweepSpec(
        name="tiny-midcell",
        methods=list(methods),
        settings=[NonIIDSetting("dirichlet", 0.5, 20)],
        seeds=list(seeds),
        config=TINY_CONFIG.with_overrides(rounds=rounds),
        dataset_kwargs={"cifar10": dict(TINY_DATASET)},
    )


class _KillAfter(SessionCallback):
    """Simulate a SIGKILL mid-cell: die after N rounds committed (and
    checkpointed — round_end callbacks registered earlier already ran)."""

    class Killed(BaseException):
        pass

    def __init__(self, rounds):
        self.rounds = rounds

    def on_round_end(self, session, event):
        if event.round_index + 1 >= self.rounds:
            raise _KillAfter.Killed()


class TestMidCellResume:
    def test_killed_cell_resumes_at_round_and_matches_bytes(self, tmp_path, capsys):
        sweep = tiny_sweep()
        (key,) = sweep.cells()

        # Reference store: uninterrupted sweep, no checkpoints.
        reference = tmp_path / "reference"
        run_sweep(sweep, store=reference)

        # Interrupted store: the cell dies after 2 of 3 rounds.
        store_root = tmp_path / "interrupted"
        store = RunStore(store_root)
        checkpoints = cell_checkpoint_dir(store_root, key)
        with pytest.raises(_KillAfter.Killed):
            execute_cell(key, checkpoint_dir=checkpoints,
                         session_hook=lambda name, session:
                         session.add_callback(_KillAfter(2)))
        checkpoint_file = checkpoints / f"{key.method}.json"
        assert read_checkpoint(checkpoint_file).round_index == 2
        assert read_checkpoint(checkpoint_file).context == key.fingerprint
        assert not store.has(key)

        # Relaunch: the cell resumes at round 2, not round 0.
        summary = run_sweep(sweep, store=store, round_checkpoints=True,
                            verbose=True)
        assert summary.complete
        assert f"[resume] {key.method} at round 2/3" in capsys.readouterr().out
        # Byte-identical to the uninterrupted store; checkpoint cleaned up.
        assert store.path_for(key).read_bytes() == \
            RunStore(reference).path_for(key).read_bytes()
        assert not checkpoints.exists()
        # A resumed cell's "cell" span covers only the recomputed rounds,
        # so its sidecar carries an explicit marker: "repro report
        # --timings" prints "(resumed)" instead of misleading numbers.
        assert sidecar(store, key).meta["resumed"] is True
        assert sidecar(RunStore(reference), key).meta["resumed"] is False

    def test_checkpoint_of_another_cell_is_refused(self, tmp_path):
        # The session context is the cell fingerprint, so a checkpoint
        # left by a different cell (here: another seed) fails to resume
        # with a context mismatch instead of reporting the stale run.
        key, other = tiny_sweep(seeds=(0, 1)).cells()
        checkpoints = tmp_path / "checkpoints"
        with pytest.raises(_KillAfter.Killed):
            execute_cell(other, checkpoint_dir=checkpoints,
                         session_hook=lambda name, session:
                         session.add_callback(_KillAfter(1)))
        with pytest.raises(ValueError, match="does not match"):
            execute_cell(key, checkpoint_dir=checkpoints)
        # Deleting the stale checkpoint is the way out.
        shutil.rmtree(checkpoints)
        assert execute_cell(key, checkpoint_dir=checkpoints)["fingerprint"] \
            == key.fingerprint

    def test_round_checkpoints_leave_store_bytes_unchanged(self, tmp_path):
        sweep = tiny_sweep(methods=("script-fair", "fedavg"))
        plain, checked = tmp_path / "plain", tmp_path / "checked"
        run_sweep(sweep, store=plain)
        run_sweep(sweep, store=checked, round_checkpoints=True)
        for key in sweep.cells():
            assert RunStore(plain).path_for(key).read_bytes() == \
                RunStore(checked).path_for(key).read_bytes()
        assert not (checked / "checkpoints").exists() or \
            not any((checked / "checkpoints").iterdir())

    def test_round_checkpoints_require_store(self):
        with pytest.raises(ValueError, match="store"):
            run_sweep(tiny_sweep(), round_checkpoints=True)


class TestWallClockSidecar:
    def test_cell_wall_clock_lives_in_the_sidecar(self, tmp_path):
        sweep = tiny_sweep()
        store = RunStore(tmp_path)
        run_sweep(sweep, store=store)
        (key,) = sweep.cells()
        telemetry = sidecar(store, key)
        (cell_span,) = telemetry.spans_named("cell")
        assert cell_span.duration > 0
        assert telemetry.meta["resumed"] is False
        # ... but never in the (deterministic) cell record itself.
        record_text = store.path_for(key).read_text()
        assert "dur_s" not in record_text and "wall_clock" not in record_text
