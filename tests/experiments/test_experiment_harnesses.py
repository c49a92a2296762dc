"""Tests for the per-figure experiment harnesses (scaled way down): each
artifact's sweep, run in memory, read through its records view."""

from dataclasses import replace

import pytest

from repro.eval import NonIIDSetting
from repro.experiments import (
    COMPARISON_METHODS,
    DIVERGENCE_SETTING,
    DIVERGENCE_VARIANTS,
    FIG3_PANELS,
    FIG4_PANELS,
    FIGURE_METHOD_SETS,
    SCALED_CONFIG,
    SCALED_DATASET_KWARGS,
    divergence_rows_from_records,
    divergence_sweep,
    embeddings_sweep,
    execute_embedding_cell,
    fig3_sweep,
    fig4_sweep,
    figure_results_from_records,
    panel_outcome_from_records,
    scaled_sweep,
    table1_rows_from_records,
    table1_sweep,
)
from repro.fl import FederatedConfig
from repro.runs import run_sweep

TINY_CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1,
                              local_epochs=1, batch_size=16,
                              personalization_epochs=2, seed=0)
TINY_DATASET = dict(image_size=8, train_per_class=16, test_per_class=4)


class TestSettings:
    def test_fig3_has_four_panels(self):
        assert len(FIG3_PANELS) == 4
        datasets = [panel[0] for panel in FIG3_PANELS]
        assert datasets == ["cifar10", "cifar100", "stl10", "stl10"]

    def test_fig4_has_two_panels(self):
        assert [panel[0] for panel in FIG4_PANELS] == ["cifar10", "cifar100"]

    def test_comparison_method_list_matches_paper_rows(self):
        # Fig. 3 compares 20 methods including all six Calibre variants.
        assert len(COMPARISON_METHODS) == 20
        assert "calibre-simclr" in COMPARISON_METHODS
        assert "fedema" in COMPARISON_METHODS

    def test_scaled_sweep_injects_scaled_defaults(self):
        sweep = scaled_sweep("panel", "cifar10", NonIIDSetting("quantity", 2, 50),
                             ["calibre-simclr", "fedavg"],
                             dataset_kwargs={"image_size": 8})
        calibre, fedavg = sweep.cells()
        assert calibre.overrides == {"num_prototypes": 5}
        assert fedavg.overrides == {}
        assert calibre.config == SCALED_CONFIG
        assert calibre.dataset_kwargs == {**SCALED_DATASET_KWARGS["cifar10"],
                                          "image_size": 8}

    def test_scaled_config_preserves_paper_personalization(self):
        # The personalization protocol (10 epochs, lr 0.05, batch 32) is kept
        # at paper values even in the scaled config.
        assert SCALED_CONFIG.personalization_epochs == 10
        assert SCALED_CONFIG.personalization_lr == 0.05
        assert SCALED_CONFIG.personalization_batch_size == 32


class TestFig3Harness:
    def test_panel_runs_and_reports(self):
        sweep = fig3_sweep(0, methods=["script-fair", "fedavg"],
                           config=TINY_CONFIG, dataset_kwargs=TINY_DATASET)
        summary = run_sweep(sweep)
        outcome = panel_outcome_from_records("fig3", 0, sweep, summary.records)
        assert outcome.title == "fig3-panel0 cifar10 paper:Q-non-iid (2, 500)"
        assert (outcome.dataset, outcome.setting) == ("cifar10",
                                                      sweep.settings[0])
        assert set(outcome.reports) == {"script-fair", "fedavg"}
        series = outcome.series()
        assert {row["method"] for row in series} == {"script-fair", "fedavg"}


class TestFig4Harness:
    def test_panel_includes_novel_clients(self):
        # config=None builds the scaled config with the requested novel count
        sweep = fig4_sweep(0, methods=["fedavg-ft"], config=None,
                           num_novel_clients=2, dataset_kwargs=TINY_DATASET)
        summary = run_sweep(sweep)
        outcome = panel_outcome_from_records("fig4", 0, sweep, summary.records)
        assert "fedavg-ft" in outcome.novel_reports


class TestDivergenceAblation:
    def test_grid_is_three_weightings_of_calibre(self):
        sweep = divergence_sweep(seeds=[0, 1])
        cells = sweep.cells()
        assert [(key.seed, key.variant) for key in cells] == [
            (seed, variant.label) for seed in (0, 1)
            for variant in DIVERGENCE_VARIANTS]
        assert {key.method for key in cells} == {"calibre-simclr"}
        assert {key.setting for key in cells} == {DIVERGENCE_SETTING}
        by_variant = {key.variant: key.overrides for key in cells}
        assert by_variant["fedavg-weighting"] == {
            "num_prototypes": 5, "divergence_temperature": 0.0}
        assert by_variant["inverse-t1"] == {
            "num_prototypes": 5, "divergence_temperature": 1.0,
            "divergence_mode": "inverse"}

    def test_rows_from_records(self):
        sweep = replace(
            divergence_sweep(config=TINY_CONFIG, dataset_kwargs=TINY_DATASET),
            settings=[NonIIDSetting("dirichlet", 0.3, 20)])
        summary = run_sweep(sweep)
        rows = divergence_rows_from_records(summary.cells, summary.records)
        assert list(rows) == [variant.label for variant in DIVERGENCE_VARIANTS]
        for record, report in zip(summary.records, rows.values()):
            assert report.as_dict() == record["report"]
        with pytest.raises(KeyError, match="seed=1"):
            divergence_rows_from_records(summary.cells, summary.records, seed=1)


class TestTable1Harness:
    def test_rows_cover_all_toggles(self):
        summary = run_sweep(table1_sweep(
            variants=["calibre-simclr"], config=TINY_CONFIG,
            dataset_kwargs=TINY_DATASET,
            setting=NonIIDSetting("quantity", 2, 20)))
        rows = table1_rows_from_records(summary.cells, summary.records,
                                        variants=["calibre-simclr"])
        assert [(r["ln"], r["lp"]) for r in rows] == [
            (False, False), (True, False), (False, True), (True, True)
        ]
        for row in rows:
            mean, std = row["results"]["calibre-simclr"]
            assert 0.0 <= mean <= 1.0
            assert std >= 0.0


class TestEmbeddingHarness:
    def test_embeddings_and_silhouettes(self):
        sweep = embeddings_sweep(
            "fig1",
            methods=["pfl-simclr"],
            config=TINY_CONFIG,
            dataset_kwargs=TINY_DATASET,
            samples_per_client=20,
            embed_clients=3,
            embed_samples=8,
            tsne_iterations=60,
        )
        summary = run_sweep(sweep, executor=execute_embedding_cell)
        results = figure_results_from_records(summary.cells, summary.records)
        result = results[0]
        assert result.method == "pfl-simclr"
        assert result.embedding.shape[1] == 2
        assert result.embedding.shape[0] == result.labels.shape[0]
        assert -1.0 <= result.silhouette <= 1.0
        csv = result.to_csv()
        assert csv.splitlines()[0] == "x,y,label,client"

    def test_figure_method_sets(self):
        assert set(FIGURE_METHOD_SETS) == {"fig1", "fig2", "fig5", "fig6",
                                           "fig7", "fig8"}
        assert FIGURE_METHOD_SETS["fig1"] == ["pfl-simclr", "pfl-byol"]
        assert FIGURE_METHOD_SETS["fig2"] == FIGURE_METHOD_SETS["fig1"]
        assert "calibre-simclr" in FIGURE_METHOD_SETS["fig7"]
