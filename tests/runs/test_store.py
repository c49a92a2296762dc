"""Tests for the persistent run store (layout, atomicity, resume scans)."""

import json
import re

import numpy as np
import pytest

from repro.arrays import CorruptArrayFile
from repro.eval import NonIIDSetting
from repro.fl import FederatedConfig
from repro.runs import CorruptCellRecord, RunStore, SweepSpec

CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1,
                         local_epochs=1, batch_size=16,
                         personalization_epochs=2, seed=0)


def make_sweep():
    return SweepSpec(name="store-test", methods=["script-fair", "fedavg"],
                     settings=[NonIIDSetting("quantity", 2, 20)], config=CONFIG)


def fake_record(key, mean=0.5):
    return {
        "schema": 1,
        "fingerprint": key.fingerprint,
        "key": key.to_jsonable(),
        "result": {"algorithm": key.method, "accuracies": {"0": mean},
                   "novel_accuracies": {}, "rounds": [], "extras": {}},
        "report": {"mean": mean, "variance": 0.0, "std": 0.0, "min": mean,
                   "max": mean, "fairness_gap": 0.0, "worst_decile_mean": mean,
                   "num_clients": 1},
    }


class TestRunStore:
    def test_write_read_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        key = make_sweep().cells()[0]
        record = fake_record(key)
        path = store.write_record(record)
        assert path == store.path_for(key)
        assert store.has(key)
        assert store.read_record(key) == json.loads(json.dumps(record))

    def test_missing_record_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            RunStore(tmp_path).read_record("deadbeef00000000")

    def test_record_without_fingerprint_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path).write_record({"key": {}})

    def test_completed_scan_ignores_temp_files(self, tmp_path):
        store = RunStore(tmp_path)
        cells = make_sweep().cells()
        store.write_record(fake_record(cells[0]))
        # a torn write from a killed process must not count as completed
        (store.cells_dir / f".{cells[1].fingerprint}.json.1234.tmp").write_text("{")
        assert store.completed_fingerprints() == {cells[0].fingerprint}
        assert len(store) == 1

    def test_missing_and_strict_load(self, tmp_path):
        store = RunStore(tmp_path)
        cells = make_sweep().cells()
        store.write_record(fake_record(cells[0]))
        assert store.missing(cells) == [cells[1]]
        loose = store.load_records(cells, strict=False)
        assert loose[0] is not None and loose[1] is None
        with pytest.raises(KeyError) as excinfo:
            store.load_records(cells)
        assert "fedavg" in str(excinfo.value)

    def test_load_records_preserves_input_order(self, tmp_path):
        store = RunStore(tmp_path)
        cells = make_sweep().cells()
        # write in reverse completion order; reads follow canonical order
        for key in reversed(cells):
            store.write_record(fake_record(key))
        records = store.load_records(cells)
        assert [r["key"]["method"] for r in records] == [k.method for k in cells]

    def test_torn_record_raises_named_error(self, tmp_path):
        store = RunStore(tmp_path)
        key = make_sweep().cells()[0]
        path = store.write_record(fake_record(key))
        path.write_text(path.read_text()[:30])
        with pytest.raises(CorruptCellRecord,
                           match=re.escape(str(path)) + ".*Unterminated string"):
            store.read_record(key)
        path.write_text("[]\n")
        with pytest.raises(CorruptCellRecord, match="not a JSON object"):
            store.read_record(key)

    def test_misplaced_record_raises_named_error(self, tmp_path):
        # A record filed under another cell's name is never returned as
        # the requested cell.
        store = RunStore(tmp_path)
        first, second = make_sweep().cells()
        store.path_for(second).write_text(
            store.write_record(fake_record(first)).read_text())
        with pytest.raises(CorruptCellRecord) as excinfo:
            store.read_record(second)
        message = str(excinfo.value)
        assert str(store.path_for(second)) in message
        assert "misplaced cell record" in message and first.fingerprint in message
        assert isinstance(excinfo.value, ValueError)
        assert store.read_record(first)["fingerprint"] == first.fingerprint

    def test_write_sweep_is_deterministic(self, tmp_path):
        store = RunStore(tmp_path)
        sweep = make_sweep()
        path = store.write_sweep(sweep)
        first = path.read_bytes()
        assert store.write_sweep(sweep).read_bytes() == first
        assert path.name == "store-test.json"

    def test_open_without_create_requires_existing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunStore(tmp_path / "nope", create=False)
        RunStore(tmp_path)  # create
        RunStore(tmp_path, create=False)  # now opens fine


class TestArraysSidecar:
    """Per-cell ``arrays/<fingerprint>.npcol`` sidecars."""

    def columns(self):
        return {"embedding.points": np.linspace(0.0, 1.0, 12).reshape(6, 2),
                "embedding.labels": np.arange(6, dtype=np.int64)}

    def test_write_read_round_trip_by_key_and_fingerprint(self, tmp_path):
        store = RunStore(tmp_path)
        key = make_sweep().cells()[0]
        columns = self.columns()
        path = store.write_arrays(key, columns)
        assert path == store.arrays_path_for(key)
        assert path.parent == tmp_path / "arrays"
        assert path.name == f"{key.fingerprint}.npcol"
        for handle in (key, key.fingerprint):
            out = store.read_arrays(handle)
            assert list(out) == list(columns)
            for name in columns:
                np.testing.assert_array_equal(out[name], columns[name])

    def test_has_arrays_and_missing_sidecar_raises(self, tmp_path):
        store = RunStore(tmp_path)
        key = make_sweep().cells()[0]
        assert not store.has_arrays(key)
        with pytest.raises(KeyError, match="no array sidecar"):
            store.read_arrays(key)
        store.write_arrays(key, self.columns())
        assert store.has_arrays(key)

    def test_mmap_read_is_readonly_and_equal(self, tmp_path):
        store = RunStore(tmp_path)
        key = make_sweep().cells()[0]
        store.write_arrays(key, self.columns())
        eager = store.read_arrays(key)
        mapped = store.read_arrays(key, mmap=True)
        for name, array in eager.items():
            np.testing.assert_array_equal(mapped[name], array, err_msg=name)
            assert not mapped[name].flags.writeable

    def test_sidecar_write_is_deterministic(self, tmp_path):
        store = RunStore(tmp_path)
        key = make_sweep().cells()[0]
        first = store.write_arrays(key, self.columns()).read_bytes()
        assert store.write_arrays(key, self.columns()).read_bytes() == first

    def test_torn_sidecar_fails_loudly(self, tmp_path):
        store = RunStore(tmp_path)
        key = make_sweep().cells()[0]
        path = store.write_arrays(key, self.columns())
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CorruptArrayFile):
            store.read_arrays(key)
