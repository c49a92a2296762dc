"""Tests for the per-figure experiment harnesses (scaled way down)."""

import pytest

from repro.eval import NonIIDSetting
from repro.experiments import (
    COMPARISON_METHODS,
    FIG3_PANELS,
    FIG4_PANELS,
    FIGURE_METHOD_SETS,
    SCALED_CONFIG,
    run_fig3_panel,
    run_fig4_panel,
    run_figure,
    run_table1,
    scaled_spec,
)
from repro.fl import FederatedConfig

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

    def test_scaled_spec_injects_calibre_overrides(self):
        spec = scaled_spec("cifar10", NonIIDSetting("quantity", 2, 50),
                           ["calibre-simclr"])
        assert spec.method_overrides["calibre-simclr"]["num_prototypes"] == 5

    def test_scaled_config_preserves_paper_personalization(self):
        # The personalization protocol (10 epochs, lr 0.05, batch 32) is kept
        # at paper values even in the scaled config.
        assert SCALED_CONFIG.personalization_epochs == 10
        assert SCALED_CONFIG.personalization_lr == 0.05
        assert SCALED_CONFIG.personalization_batch_size == 32


class TestFig3Harness:
    def test_panel_runs_and_reports(self):
        outcome = run_fig3_panel(0, methods=["script-fair", "fedavg"],
                                 config=TINY_CONFIG, dataset_kwargs=TINY_DATASET)
        assert set(outcome.reports) == {"script-fair", "fedavg"}
        series = outcome.series()
        assert {row["method"] for row in series} == {"script-fair", "fedavg"}

    def test_bad_panel_index(self):
        with pytest.raises(IndexError):
            run_fig3_panel(9)


class TestFig4Harness:
    def test_panel_includes_novel_clients(self):
        outcome = run_fig4_panel(0, methods=["fedavg-ft"], config=None,
                                 num_novel_clients=2,
                                 dataset_kwargs=TINY_DATASET)
        # config=None builds the scaled config with the requested novel count
        assert "fedavg-ft" in outcome.novel_reports

    def test_bad_panel_index(self):
        with pytest.raises(IndexError):
            run_fig4_panel(5)


class TestTable1Harness:
    def test_rows_cover_all_toggles(self):
        rows = run_table1(variants=["calibre-simclr"], config=TINY_CONFIG,
                          dataset_kwargs=TINY_DATASET,
                          setting=NonIIDSetting("quantity", 2, 20))
        assert [(r["ln"], r["lp"]) for r in rows] == [
            (False, False), (True, False), (False, True), (True, True)
        ]
        for row in rows:
            mean, std = row["results"]["calibre-simclr"]
            assert 0.0 <= mean <= 1.0
            assert std >= 0.0


class TestEmbeddingHarness:
    def test_embeddings_and_silhouettes(self):
        results = run_figure(
            "fig1",
            methods=["pfl-simclr"],
            config=TINY_CONFIG,
            dataset_kwargs=TINY_DATASET,
            samples_per_client=20,
            embed_clients=3,
            embed_samples=8,
            tsne_iterations=60,
        )
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
