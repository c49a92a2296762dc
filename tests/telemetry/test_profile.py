"""Profile aggregation: phases, straggler spread, workers, rendering."""

import json

import pytest

from repro.telemetry import (
    CorruptSidecar,
    load_store_telemetry,
    parse_sidecar,
    profile_cell,
    render_profile,
)


def span_line(span_id, name, start, dur, parent=None, tid=0, **attrs):
    payload = {"kind": "span", "id": span_id, "name": name, "cat": "phase",
               "start_s": start, "dur_s": dur, "pid": 99, "tid": tid}
    if parent is not None:
        payload["parent"] = parent
    if attrs:
        payload["attrs"] = attrs
    return json.dumps(payload)


def two_round_sidecar():
    """cell > 2 rounds; client_update durations 1,2,5 then 2,2,2."""
    lines = [
        json.dumps({"kind": "meta", "schema": 1, "fingerprint": "f" * 16,
                    "label": "cifar10 fedavg seed=0"}),
        span_line(1, "cell", 0.0, 20.0, fingerprint="f" * 16),
        span_line(2, "round", 0.0, 9.0, parent=1, round=0),
        span_line(3, "dispatch", 1.0, 8.0, parent=2, participants=3),
        # round attr is inherited from the ancestor chain, not repeated.
        span_line(4, "client_update", 1.0, 1.0, parent=3, tid=1, client_id=0),
        span_line(5, "client_update", 1.0, 2.0, parent=3, tid=2, client_id=1),
        span_line(6, "client_update", 1.0, 5.0, parent=3, tid=3, client_id=2),
        span_line(7, "round", 9.0, 7.0, parent=1, round=1),
        span_line(8, "dispatch", 10.0, 6.0, parent=7, participants=3),
        span_line(9, "client_update", 10.0, 2.0, parent=8, tid=1,
                  client_id=0),
        span_line(10, "client_update", 10.0, 2.0, parent=8, tid=2,
                  client_id=1),
        span_line(11, "client_update", 10.0, 2.0, parent=8, tid=3,
                  client_id=2),
        json.dumps({"kind": "counter", "name": "trace.replays", "value": 2}),
    ]
    return "".join(line + "\n" for line in lines)


class TestCellProfile:
    def profile(self):
        return profile_cell("f" * 16, parse_sidecar(two_round_sidecar()))

    def test_cell_duration_and_round_count(self):
        profile = self.profile()
        assert profile.cell_duration_s == 20.0
        assert profile.rounds == 2

    def test_phase_totals(self):
        dispatch = self.profile().phases["dispatch"]
        assert (dispatch.count, dispatch.total_s) == (2, 14.0)
        assert dispatch.mean_s == 7.0
        assert dispatch.max_s == 8.0

    def test_client_stats_distribution(self):
        clients = self.profile().clients["client_update"]
        assert clients.count == 6
        assert clients.total_s == 14.0
        assert clients.median_s == 2.0
        assert clients.max_s == 5.0

    def test_straggler_spread_is_the_mean_round_tail(self):
        # Round 0: max 5 - median 2 = 3.  Round 1: all equal, spread 0.
        clients = self.profile().clients["client_update"]
        assert clients.straggler_spread_s == 1.5

    def test_round_attr_resolves_through_the_ancestor_chain(self):
        clients = self.profile().clients["client_update"]
        assert sorted(clients.durations_by_round) == [0, 1]
        assert sorted(clients.durations_by_round[0]) == [1.0, 2.0, 5.0]
        assert clients.unrounded == []

    def test_worker_busy_time_is_keyed_by_pid_tid(self):
        busy = self.profile().worker_busy_s
        assert busy == {(99, 1): 3.0, (99, 2): 4.0, (99, 3): 7.0}


class TestRenderProfile:
    def test_report_contains_every_section(self):
        report = render_profile(
            [("f" * 16, parse_sidecar(two_round_sidecar()))])
        assert "cell ffffffffffff" in report
        assert "[cifar10 fedavg seed=0]" in report
        assert "rounds=2" in report
        assert "dispatch" in report
        assert "straggler_spread=" in report
        assert "worker pid=99 tid=3" in report
        assert "counter trace.replays" in report
        assert "counter totals across cells" in report

    def test_top_limits_the_worker_rows(self):
        report = render_profile(
            [("f" * 16, parse_sidecar(two_round_sidecar()))], top=1)
        assert report.count("worker pid=") == 1
        assert "worker pid=99 tid=3" in report  # the busiest one

    def test_empty_store_renders_a_hint(self):
        assert "no telemetry sidecars" in render_profile([])


class TestLoadStoreTelemetry:
    def test_loads_sorted_sidecars(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        telemetry_dir.mkdir()
        (telemetry_dir / "bbb.jsonl").write_text(two_round_sidecar())
        (telemetry_dir / "aaa.jsonl").write_text(two_round_sidecar())
        (telemetry_dir / "notes.txt").write_text("ignored")
        cells = load_store_telemetry(str(tmp_path))
        assert [fingerprint for fingerprint, _ in cells] == ["aaa", "bbb"]
        assert cells[0][1].counters == {"trace.replays": 2.0}

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_store_telemetry(str(tmp_path)) == []

    def test_malformed_line_names_the_file_and_line(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        telemetry_dir.mkdir()
        path = telemetry_dir / "aaa.jsonl"
        path.write_text(two_round_sidecar() + '{"kind": "counter"}\n')
        with pytest.raises(CorruptSidecar,
                           match=f"corrupt telemetry sidecar {path}: line "):
            load_store_telemetry(str(tmp_path))
