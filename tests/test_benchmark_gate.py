"""The calibrated regression gate normalizes by the calibration time
recorded beside the benchmarks, never by one it takes itself."""

import json

import pytest

from benchmarks import check_benchmark_regression as gate
from benchmarks import conftest as bench_conftest


def _refuse_timing(*args, **kwargs):
    raise AssertionError("the gate must not time the calibration workload")


@pytest.fixture
def bench_json(tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "calibration_seconds", _refuse_timing)

    def write(calibration=0.5, means=(("fast", 0.5), ("slow", 2.0))):
        payload = {"benchmarks": [{"name": name, "stats": {"mean": mean}}
                                  for name, mean in means]}
        if calibration is not None:
            payload["calibration_seconds"] = calibration
        path = tmp_path / "bench-timings.json"
        path.write_text(json.dumps(payload))
        return path

    return write


def _thresholds(tmp_path, ceilings):
    path = tmp_path / "thresholds.json"
    path.write_text(json.dumps({"headroom": 2.0, "max_normalized": ceilings}))
    return path


def test_gate_divides_by_the_recorded_calibration(tmp_path, bench_json):
    args = ["--bench-json", str(bench_json()),
            "--history", str(tmp_path / "history.jsonl"),
            "--out", str(tmp_path / "out.json"), "--append-history",
            "--run-id", "synthetic"]
    thresholds = _thresholds(tmp_path, {"fast": 1.5, "slow": 4.5})
    assert gate.main(args + ["--thresholds", str(thresholds)]) == 0
    out = json.loads((tmp_path / "out.json").read_text())
    assert out["calibration_seconds"] == 0.5
    assert out["normalized"] == {"fast": 1.0, "slow": 4.0}
    (entry,) = gate.load_history(tmp_path / "history.jsonl")
    assert entry["calibration_seconds"] == 0.5
    assert entry["normalized"] == {"fast": 1.0, "slow": 4.0}

    thresholds = _thresholds(tmp_path, {"fast": 1.5, "slow": 3.5})
    assert gate.main(args + ["--thresholds", str(thresholds)]) == 1


def test_update_sets_ceilings_from_the_recorded_calibration(tmp_path, bench_json):
    thresholds = _thresholds(tmp_path, {})
    assert gate.main(["--bench-json", str(bench_json(calibration=0.25)),
                      "--thresholds", str(thresholds), "--update",
                      "--history", str(tmp_path / "history.jsonl")]) == 0
    assert json.loads(thresholds.read_text())["max_normalized"] == {
        "fast": 4.0, "slow": 16.0}


@pytest.mark.parametrize("calibration", [None, 0, "0.5", True])
def test_json_without_a_calibration_is_refused(tmp_path, bench_json, calibration):
    with pytest.raises(SystemExit, match="records no calibration_seconds"):
        gate.main(["--bench-json", str(bench_json(calibration=calibration)),
                   "--thresholds", str(_thresholds(tmp_path, {})),
                   "--history", str(tmp_path / "history.jsonl")])


def test_benchmark_run_records_its_calibration(monkeypatch):
    monkeypatch.setattr(bench_conftest, "calibration_seconds", lambda: 0.125)
    output = {"benchmarks": []}
    bench_conftest.pytest_benchmark_update_json(None, [], output)
    assert output == {"benchmarks": [], "calibration_seconds": 0.125}
