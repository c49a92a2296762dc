"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.fl import SessionCallback

TINY_SWEEP_ARGS = [
    "--exp", "fig3", "--panel", "0", "--methods", "script-fair", "fedavg",
    "--rounds", "1", "--clients", "4", "--samples", "20",
]


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_accepts_repeated_methods(self):
        args = build_parser().parse_args(
            ["run", "--method", "fedavg", "--method", "script-fair"]
        )
        assert args.method == ["fedavg", "script-fair"]

    def test_fig3_panel_bounds(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--exp", "fig3", "--panel", "9",
                  "--runs-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--panel: panel_index must be in [0, 3]" in capsys.readouterr().err

    def test_one_shot_artifact_commands_are_gone(self):
        for command in ("fig3", "fig4", "table1"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    @pytest.mark.parametrize("argv, message", [
        (["run", "--method", "fedavg", "--samples", "3"],
         "--samples: samples_per_client must be >= 4"),
        (["sweep", "--exp", "fig3", "--clients", "0"],
         "--clients: num_clients must be >= 1"),
        (["report", "--exp", "fig3", "--samples", "3"],
         "--samples: samples_per_client must be >= 4"),
        (["figures", "fig1", "--clients", "0"],
         "--clients: num_clients must be >= 1"),
        (["run", "--method", "fedavg", "--rounds", "-1"],
         "--rounds: rounds must be >= 0"),
        (["sweep", "--exp", "fig4", "--novel", "-1"],
         "--novel: num_novel_clients must be >= 0"),
        (["sweep", "--exp", "fig1", "--embed-clients", "0"],
         "--embed-clients: num_embed_clients must be >= 1"),
        (["sweep", "--exp", "fig1", "--embed-samples", "0"],
         "--embed-samples: samples_per_client must be >= 1"),
        (["report", "--exp", "fig5", "--tsne-iterations", "0"],
         "--tsne-iterations: tsne_iterations must be >= 1"),
        (["sweep", "--exp", "fig3", "--seeds", "0", "0"],
         "--seeds: values must be unique"),
        (["report", "--exp", "fig3", "--seeds", "1", "0", "1"],
         "--seeds: values must be unique"),
        (["sweep", "--exp", "fig3", "--methods", "fedavg", "fedavg"],
         "--methods: values must be unique"),
        (["report", "--exp", "fig3", "--methods", "fedavg", "fedavg"],
         "--methods: values must be unique"),
        (["run", "--method", "script-fair", "--method", "script-fair"],
         "--method: values must be unique"),
        (["sweep", "--exp", "fig3", "--jobs", "0"],
         "--jobs must be >= 1, got 0"),
        (["sweep", "--exp", "fig3", "--max-cells", "-1"],
         "--max-cells must be >= 0, got -1"),
        (["run", "--method", "fedavg", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["sweep", "--exp", "fig3", "--seeds", "0", "-1"],
         "--seeds must be >= 0, got -1"),
        (["report", "--exp", "fig3", "--seeds", "-1"],
         "--seeds must be >= 0, got -1"),
        (["figures", "fig1", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["run", "--method", "fedavg", "--param", "0"],
         "--param: classes per client must be a positive integer, got 0.0"),
        (["run", "--method", "fedavg", "--param", "2.5"],
         "--param: classes per client must be a positive integer, got 2.5"),
        (["run", "--method", "fedavg", "--setting", "dirichlet",
          "--param", "0"],
         "--param: concentration must be positive and finite, got 0.0"),
        (["run", "--method", "fedavg", "--param", "11"],
         "--param: classes per client must be at most 10 for cifar10, "
         "got 11.0"),
        (["run", "--method", "fedavg", "--dataset", "cifar100",
          "--param", "21"],
         "--param: classes per client must be at most 20 for cifar100, "
         "got 21.0"),
        (["run", "--method", "fedavg", "--dataset", "stl10",
          "--param", "11"],
         "--param: classes per client must be at most 10 for stl10, "
         "got 11.0"),
        (["run", "--method", "fedavg", "--param", "5", "--samples", "5"],
         "--samples: samples_per_client must exceed the 5 classes per "
         "client, got 5"),
        (["sweep", "--exp", "fig3", "--panel", "1", "--samples", "5"],
         "--samples: samples_per_client must exceed the 5 classes per "
         "client, got 5"),
        (["run", "--method", "fedavg", "--backend", "thread"],
         "--backend: invalid choice: 'thread'"),
        (["sweep", "--exp", "fig3", "--scheduler", "thread"],
         "--scheduler: invalid choice: 'thread'"),
    ], ids=["run", "sweep", "report", "figures", "run-rounds", "sweep-novel",
            "sweep-embed-clients", "sweep-embed-samples",
            "report-tsne-iterations", "sweep-seeds", "report-seeds",
            "sweep-methods", "report-methods", "run-methods", "sweep-jobs",
            "sweep-max-cells", "run-negative-seed", "sweep-negative-seeds",
            "report-negative-seeds", "figures-negative-seed",
            "run-param-zero", "run-param-fractional",
            "run-dirichlet-param-zero", "run-param-above-classes",
            "run-cifar100-param-above-classes",
            "run-stl10-param-above-classes", "run-samples-at-param",
            "sweep-samples-at-param", "run-thread-backend",
            "sweep-thread-scheduler"])
    def test_bad_grid_value_exits_2_naming_the_flag(self, capsys, tmp_path,
                                                    argv, message):
        if argv[0] != "run":
            argv = argv + ["--runs-dir", str(tmp_path / "store")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "store").exists()


class TestMain:
    def test_list_prints_methods(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "calibre-simclr" in out
        assert "fig3 panels:" in out

    def test_run_quantity_split_with_one_sample_more_than_s(self, capsys):
        # S+1 samples give one class two, so the split holds one out.
        assert main(["run", "--method", "fedavg", "--param", "5",
                     "--samples", "6", "--rounds", "1", "--clients",
                     "4"]) == 0
        assert "fedavg" in capsys.readouterr().out

    def test_run_rejects_unknown_method(self, capsys):
        assert main(["run", "--method", "bogus"]) == 2

    def test_run_tiny_experiment(self, capsys):
        code = main([
            "run", "--method", "script-fair", "--method", "fedavg",
            "--dataset", "cifar10",
            "--setting", "dirichlet", "--param", "0.5", "--samples", "20",
            "--rounds", "1", "--clients", "4", "--seed", "0",
            "--csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "script-fair" in out
        assert "method,mean_accuracy,accuracy_variance" in out
        # One result line per cell, not one from the cell and one from
        # the scheduler.
        results = [line for line in out.splitlines() if "mean=" in line]
        assert len(results) == 2
        assert [method for method in ("script-fair", "fedavg")
                if any(method in line for line in results)] == ["script-fair", "fedavg"]

    @pytest.mark.parametrize("dataset,classes,samples", [
        ("cifar10", "10", "20"), ("cifar100", "20", "40")])
    def test_run_accepts_param_at_the_class_count(self, capsys, dataset,
                                                  classes, samples):
        code = main([
            "run", "--method", "fedavg", "--dataset", dataset,
            "--param", classes, "--samples", samples, "--rounds", "1",
            "--clients", "4",
        ])
        assert code == 0
        assert "mean=" in capsys.readouterr().out

    def test_run_out_writes_cell_records(self, capsys, tmp_path):
        from repro.runs import RunKey, encode_record, execute_cell

        out_path = tmp_path / "records.json"
        code = main([
            "run", "--method", "script-fair", "--setting", "dirichlet",
            "--param", "0.5", "--samples", "20", "--rounds", "1",
            "--clients", "4", "--out", str(out_path),
        ])
        assert code == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        (record,) = json.loads(out_path.read_text())
        assert record["report"]["num_clients"] == 4
        # The object a run store's cells/<fingerprint>.json holds.
        key = RunKey.from_jsonable(record["key"])
        assert record["fingerprint"] == key.fingerprint
        assert json.loads(encode_record(execute_cell(key))) == record

    def test_run_trace_out_writes_one_timeline(self, capsys, tmp_path):
        from repro.telemetry import validate_chrome_trace

        trace_path = tmp_path / "run-trace.json"
        code = main([
            "run", "--method", "script-fair", "--method", "fedavg",
            "--setting", "dirichlet", "--param", "0.5", "--samples", "20",
            "--rounds", "1", "--clients", "4", "--trace-out", str(trace_path),
        ])
        assert code == 0
        assert f"wrote trace {trace_path}" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        sessions = [event["args"]["algorithm"]
                    for event in payload["traceEvents"]
                    if event.get("name") == "session" and event["ph"] == "X"]
        assert sessions == ["script-fair", "fedavg"]


class TestSweepCommands:
    def test_interrupted_sweep_resumes_and_reports(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "store")
        base = ["--runs-dir", runs_dir] + TINY_SWEEP_ARGS

        # "kill" after one cell via the cell budget, then relaunch
        assert main(["sweep", "--quiet", "--max-cells", "1"] + base) == 0
        first = capsys.readouterr().out
        assert "executed=1 skipped=0 deferred=1 total=2" in first

        assert main(["sweep", "--quiet"] + base) == 0
        second = capsys.readouterr().out
        assert "executed=1 skipped=1 deferred=0 total=2" in second

        assert main(["sweep", "--quiet"] + base) == 0
        third = capsys.readouterr().out
        assert "executed=0 skipped=2 deferred=0 total=2" in third

        # the report renders purely from the store
        assert main(["report", "--csv"] + base) == 0
        report = capsys.readouterr().out
        assert "script-fair" in report and "fedavg" in report
        assert "method,mean_accuracy,accuracy_variance" in report

    def test_report_names_missing_cells(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "empty")
        assert main(["sweep", "--quiet", "--max-cells", "0",
                     "--runs-dir", runs_dir] + TINY_SWEEP_ARGS) == 0
        capsys.readouterr()
        assert main(["report", "--runs-dir", runs_dir] + TINY_SWEEP_ARGS) == 1
        err = capsys.readouterr().err
        assert "2 of 2 cells missing" in err
        assert "script-fair" in err

    def test_corrupt_record_is_named_and_exits_1(self, capsys, tmp_path):
        runs_dir = tmp_path / "store"
        base = ["--runs-dir", str(runs_dir)] + TINY_SWEEP_ARGS
        assert main(["sweep", "--quiet"] + base) == 0
        capsys.readouterr()
        path = sorted((runs_dir / "cells").glob("*.json"))[0]
        path.write_text(path.read_text()[:30])
        for argv in (["report"] + base,
                     ["figures", "fig3", "--out", str(tmp_path / "f.svg"),
                      "--runs-dir", str(runs_dir)] + TINY_SWEEP_ARGS[2:],
                     ["sweep", "--quiet"] + base):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"corrupt cell record {path}: Unterminated string" in err
        assert not (tmp_path / "f.svg").exists()

    def test_corrupt_sidecar_is_named_and_exits_1(self, capsys, tmp_path):
        runs_dir = tmp_path / "store"
        base = ["--runs-dir", str(runs_dir)] + TINY_SWEEP_ARGS
        assert main(["sweep", "--quiet"] + base) == 0
        capsys.readouterr()
        path = sorted((runs_dir / "telemetry").glob("*.jsonl"))[0]
        lines = path.read_text().splitlines(keepends=True)
        (torn,) = [number for number, line in enumerate(lines)
                   if '"name": "cell"' in line]
        lines[torn] = lines[torn][:len(lines[torn]) // 2] + "\n"
        path.write_text("".join(lines))
        trace = tmp_path / "trace.json"
        for argv in (["profile", str(runs_dir)],
                     ["sweep", "--quiet", "--trace-out", str(trace)] + base):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"corrupt telemetry sidecar {path}: line {torn + 1}: " in err
        assert not trace.exists()
        # The report still renders; that cell just has no recorded timing.
        assert main(["report", "--timings"] + base) == 0
        assert "(1 cell(s) have no recorded timing)" in capsys.readouterr().out

    def test_report_requires_existing_store(self, capsys, tmp_path):
        code = main(["report", "--runs-dir", str(tmp_path / "nope")]
                    + TINY_SWEEP_ARGS)
        assert code == 1
        assert "no run store" in capsys.readouterr().err

    def test_sweep_rejects_unknown_methods(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--runs-dir", str(tmp_path), "--exp", "fig3",
                  "--methods", "bogus"])

    def test_report_across_seeds_and_timings(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "store")
        base = ["--runs-dir", runs_dir, "--seeds", "0", "1"] + TINY_SWEEP_ARGS
        assert main(["sweep", "--quiet", "--round-checkpoints"] + base) == 0
        capsys.readouterr()

        assert main(["report", "--across-seeds", "--timings"] + base) == 0
        out = capsys.readouterr().out
        assert "[across seeds 0 1]" in out
        # One aggregated table row, not one table per seed (the other two
        # mentions are the per-seed timing rows).
        assert out.count("script-fair") == 3
        assert "±std" in out
        assert "cell timings" in out
        assert "s/cell" in out

        # Aggregation is a pure store read: byte-stable across invocations.
        assert main(["report", "--across-seeds"] + base) == 0
        first = capsys.readouterr().out
        assert main(["report", "--across-seeds"] + base) == 0
        assert capsys.readouterr().out == first


class _KillAfterFirstRound(SessionCallback):
    """Stops the cell after its first round, as a SIGKILL would (its round
    checkpoint is already written)."""

    class Killed(BaseException):
        pass

    def on_round_end(self, session, event):
        raise _KillAfterFirstRound.Killed()


class TestReportTimings:
    GRID = ["--exp", "fig3", "--panel", "0", "--methods", "script-fair",
            "fedavg", "--seeds", "0", "1", "--rounds", "2", "--clients", "4",
            "--samples", "20"]

    def test_sidecar_less_torn_and_resumed_cells(self, capsys, tmp_path):
        from repro.experiments import fig3_sweep
        from repro.runs import cell_checkpoint_dir, execute_cell

        runs_dir = tmp_path / "store"
        base = ["--runs-dir", str(runs_dir)] + self.GRID
        no_sidecar, torn, resumed, timed = fig3_sweep(
            0, methods=["script-fair", "fedavg"], seeds=[0, 1],
            config=_tiny_config().with_overrides(rounds=2),
            samples_per_client=20).cells()
        # The first cell in grid order runs without telemetry.
        assert main(["sweep", "--quiet", "--no-telemetry", "--max-cells", "1"]
                    + base) == 0
        # Another dies after one of its two rounds, leaving a checkpoint
        # that the next sweep finishes it from.
        with pytest.raises(_KillAfterFirstRound.Killed):
            execute_cell(resumed,
                         checkpoint_dir=cell_checkpoint_dir(runs_dir, resumed),
                         session_hook=lambda name, session:
                         session.add_callback(_KillAfterFirstRound()))
        assert main(["sweep", "--quiet", "--round-checkpoints"] + base) == 0
        assert "executed=3 skipped=1" in capsys.readouterr().out
        # One sidecar's "cell" span line is torn in half.
        sidecar = runs_dir / "telemetry" / f"{torn.fingerprint}.jsonl"
        lines = sidecar.read_text().splitlines(keepends=True)
        (index,) = [i for i, line in enumerate(lines)
                    if '"name": "cell"' in line]
        lines[index] = lines[index][:len(lines[index]) // 2]
        sidecar.write_text("".join(lines))

        assert main(["report", "--timings"] + base) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = captured.out.split("cell timings (from telemetry sidecars):\n")[1]
        assert no_sidecar.fingerprint not in rows
        assert torn.fingerprint not in rows
        assert f"  {resumed.fingerprint}   (resumed)  " in rows
        (timed_row,) = [line for line in rows.splitlines()
                        if timed.fingerprint in line]
        assert "s/round)" in timed_row
        assert "total " in rows and "over 1 cells" in rows
        assert "(1 cell(s) finished from a mid-cell checkpoint" in rows
        assert "(2 cell(s) have no recorded timing)" in rows


TINY_FIGURE_ARGS = [
    "--methods", "script-fair", "--rounds", "1", "--clients", "4",
    "--samples", "20", "--embed-clients", "3", "--embed-samples", "8",
    "--tsne-iterations", "30",
]


class TestFiguresCommands:
    def test_figures_requires_known_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig9", "--store", "x"])

    def test_grid_is_an_exp_alias(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "fig1", "--runs-dir", "x"])
        assert args.exp == "fig1"

    def test_store_is_a_runs_dir_alias(self):
        args = build_parser().parse_args(
            ["figures", "fig5", "--store", "somewhere"])
        assert args.runs_dir == "somewhere"

    def test_figure_sweep_then_render_from_store(self, capsys, tmp_path):
        from xml.etree import ElementTree

        runs_dir = str(tmp_path / "store")
        out_path = tmp_path / "fig1.svg"
        base = ["--runs-dir", runs_dir] + TINY_FIGURE_ARGS

        assert main(["sweep", "--quiet", "--grid", "fig1"] + base) == 0
        sweep_out = capsys.readouterr().out
        assert "executed=1" in sweep_out
        assert "repro figures fig1" in sweep_out  # the render hint

        assert main(["figures", "fig1", "--out", str(out_path)] + base) == 0
        render_out = capsys.readouterr().out
        assert "fig1 silhouettes" in render_out
        assert f"wrote {out_path}" in render_out
        svg = out_path.read_text()
        ElementTree.fromstring(svg)  # well-formed
        assert "script-fair" in svg

        # Rendering is a pure store read: byte-stable across invocations.
        assert main(["figures", "fig1", "--out", str(out_path)] + base) == 0
        capsys.readouterr()
        assert out_path.read_text() == svg

        # fig2 renders from the very same records (per-client views).
        fig2_path = tmp_path / "fig2.svg"
        assert main(["figures", "fig2", "--out", str(fig2_path)] + base) == 0
        capsys.readouterr()
        ElementTree.fromstring(fig2_path.read_text())

        # and the report renders the silhouette table from the store.
        assert main(["report", "--grid", "fig1"] + base) == 0
        report = capsys.readouterr().out
        assert "tsne_sil" in report and "script-fair" in report

    def test_figures_names_missing_cells(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "empty")
        assert main(["sweep", "--quiet", "--grid", "fig1", "--max-cells", "0",
                     "--runs-dir", runs_dir] + TINY_FIGURE_ARGS) == 0
        capsys.readouterr()
        assert main(["figures", "fig1", "--runs-dir", runs_dir]
                    + TINY_FIGURE_ARGS) == 1
        err = capsys.readouterr().err
        assert "1 of 1 cells missing" in err
        assert "script-fair" in err

    def test_figures_requires_existing_store(self, capsys, tmp_path):
        code = main(["figures", "fig1", "--store", str(tmp_path / "nope")]
                    + TINY_FIGURE_ARGS)
        assert code == 1
        assert "no run store" in capsys.readouterr().err

    def test_fig3_figure_renders_accuracy_fairness(self, capsys, tmp_path):
        from xml.etree import ElementTree

        runs_dir = str(tmp_path / "store")
        out_path = tmp_path / "fig3.svg"
        base = ["--runs-dir", runs_dir] + TINY_SWEEP_ARGS
        assert main(["sweep", "--quiet"] + base) == 0
        capsys.readouterr()
        assert main(["figures", "fig3", "--panel", "0", "--out", str(out_path),
                     "--runs-dir", runs_dir] + TINY_SWEEP_ARGS[2:]) == 0
        capsys.readouterr()
        svg = out_path.read_text()
        ElementTree.fromstring(svg)
        assert "mean accuracy" in svg
        assert "script-fair" in svg and "fedavg" in svg

    def test_figures_follows_the_sweep_hint_for_nonzero_seeds(self, capsys,
                                                              tmp_path):
        # The sweep hint echoes --seeds 1; the hinted figures command must
        # find the records without an explicit --seed (regression: --seed's
        # old default of 0 silently clobbered the grid's seed axis).
        runs_dir = str(tmp_path / "store")
        base = ["--runs-dir", runs_dir, "--seeds", "1"] + TINY_FIGURE_ARGS
        assert main(["sweep", "--quiet", "--grid", "fig1"] + base) == 0
        capsys.readouterr()
        out_path = tmp_path / "fig1.svg"
        assert main(["figures", "fig1", "--out", str(out_path)] + base) == 0
        capsys.readouterr()
        assert out_path.is_file()
        # --seed alone (grid seeds left at default) follows the seed too
        assert main(["figures", "fig1", "--seed", "1", "--out", str(out_path),
                     "--runs-dir", runs_dir] + TINY_FIGURE_ARGS) == 0
        capsys.readouterr()
        # a contradictory --seed fails loudly instead of looking up the
        # wrong fingerprints
        assert main(["figures", "fig1", "--seed", "2"] + base) == 2
        assert "not in the swept grid" in capsys.readouterr().err
        # several seeds without a pick is ambiguous
        assert main(["figures", "fig1", "--runs-dir", runs_dir, "--seeds",
                     "0", "1"] + TINY_FIGURE_ARGS) == 2
        assert "pick one" in capsys.readouterr().err


def _tiny_config():
    """The config the CLI builds from ``--rounds 1 --clients 4``."""
    from repro.experiments import SCALED_CONFIG

    return SCALED_CONFIG.with_overrides(rounds=1, num_clients=4,
                                        clients_per_round=4)


class TestReportMatchesLiveRun:
    """``repro report`` over a stored grid prints exactly what the
    artifact's records view formats from an in-memory sweep of the same
    grid: one test per kind of view."""

    def report_from_store(self, capsys, tmp_path, grid, report_flags=()):
        base = ["--runs-dir", str(tmp_path / "store")] + grid
        assert main(["sweep", "--quiet"] + base) == 0
        capsys.readouterr()
        assert main(["report", *report_flags] + base) == 0
        return capsys.readouterr().out

    def test_fig4_panel_tables_and_csv(self, capsys, tmp_path):
        from repro.eval import format_comparison_table, format_series_csv
        from repro.experiments import fig4_sweep, panel_outcome_from_records
        from repro.runs import run_sweep

        grid = ["--exp", "fig4", "--panel", "0", "--methods", "fedavg-ft",
                "--rounds", "1", "--clients", "4", "--samples", "20",
                "--novel", "2"]
        stored = self.report_from_store(capsys, tmp_path, grid, ["--csv"])

        sweep = fig4_sweep(0, methods=["fedavg-ft"], num_novel_clients=2,
                           config=_tiny_config(), samples_per_client=20)
        summary = run_sweep(sweep, store=None)
        outcome = panel_outcome_from_records("fig4", 0, sweep, summary.records)
        title = outcome.title
        assert outcome.novel_reports
        assert stored == "".join(block + "\n" for block in (
            format_comparison_table(outcome, title=title),
            format_comparison_table(outcome, novel=True,
                                    title=title + " [novel]"),
            format_series_csv(outcome),
        ))

    def test_table1_rows(self, capsys, tmp_path):
        from dataclasses import replace

        from repro.eval import format_ablation_table
        from repro.experiments import (
            TABLE1_SETTING,
            table1_rows_from_records,
            table1_sweep,
        )
        from repro.runs import run_sweep

        grid = ["--exp", "table1", "--methods", "calibre-simclr",
                "--rounds", "1", "--clients", "4", "--samples", "20"]
        stored = self.report_from_store(capsys, tmp_path, grid)

        sweep = table1_sweep(
            variants=["calibre-simclr"], config=_tiny_config(),
            setting=replace(TABLE1_SETTING, samples_per_client=20))
        summary = run_sweep(sweep, store=None)
        rows = table1_rows_from_records(summary.cells, summary.records,
                                        variants=["calibre-simclr"])
        assert stored == format_ablation_table(rows, title="Table I") + "\n"

    def test_embedding_figure_silhouettes(self, capsys, tmp_path):
        from repro.eval import format_silhouette_table
        from repro.experiments import (
            embeddings_sweep,
            execute_embedding_cell,
            figure_results_from_records,
        )
        from repro.runs import run_sweep

        grid = ["--grid", "fig1", "--methods", "fedavg"] + TINY_FIGURE_ARGS[2:]
        stored = self.report_from_store(capsys, tmp_path, grid)

        sweep = embeddings_sweep("fig1", methods=["fedavg"],
                                 config=_tiny_config(), samples_per_client=20,
                                 embed_clients=3, embed_samples=8,
                                 tsne_iterations=30)
        summary = run_sweep(sweep, store=None, executor=execute_embedding_cell)
        results = figure_results_from_records(summary.cells, summary.records)
        assert stored == format_silhouette_table(
            results, title="fig1 silhouettes") + "\n"
