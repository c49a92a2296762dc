"""Tests for the store-backed embedding-figure pipeline (fig1/2/5-8)."""

from xml.etree import ElementTree

import numpy as np
import pytest

from repro.experiments import (
    EMBEDDING_FIGURES,
    FIGURE_METHOD_SETS,
    EmbedParams,
    embedding_from_record,
    embeddings_sweep,
    figure_results_from_records,
    render_figure_svg,
)
from repro.experiments.embeddings import embed_params_of, execute_embedding_cell
from repro.fl import FederatedConfig
from repro.runs import RunKey, RunStore, run_sweep

TINY_CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1,
                              local_epochs=1, batch_size=16,
                              personalization_epochs=2, seed=0)
TINY_DATASET = dict(image_size=8, train_per_class=16, test_per_class=4)
TINY_EMBED = EmbedParams(num_embed_clients=3, samples_per_client=8,
                         tsne_iterations=30)


def tiny_sweep(figure="fig1", methods=("script-fair",), **kwargs):
    return embeddings_sweep(figure, methods=list(methods), config=TINY_CONFIG,
                            dataset_kwargs=TINY_DATASET, embed=TINY_EMBED,
                            samples_per_client=20, **kwargs)


class TestSweepDeclaration:
    def test_every_figure_declares_a_grid(self):
        for figure in EMBEDDING_FIGURES:
            sweep = embeddings_sweep(figure)
            assert sweep.num_cells == len(FIGURE_METHOD_SETS[figure])
            assert sweep.extras["embed"]["tsne_perplexity"] == 15.0

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            embeddings_sweep("fig9")

    def test_fig8_runs_on_stl10(self):
        sweep = embeddings_sweep("fig8")
        assert sweep.datasets == ["stl10"]
        assert sweep.extras["embed"]["samples_per_client"] == 12

    def test_fig2_declares_exactly_fig1_cells(self):
        fig1 = [key.fingerprint for key in embeddings_sweep("fig1").cells()]
        fig2 = [key.fingerprint for key in embeddings_sweep("fig2").cells()]
        assert fig1 == fig2

    @pytest.mark.parametrize("field, value", [
        ("num_embed_clients", 0), ("samples_per_client", 0),
        ("tsne_iterations", -1), ("tsne_perplexity", 0.0)])
    def test_embed_params_reject_non_positive_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            EmbedParams(**{field: value})

    def test_bad_override_fails_when_the_grid_is_declared(self):
        # Not after a cell has trained and handed t-SNE nothing to embed.
        with pytest.raises(ValueError, match="samples_per_client must be >= 1"):
            embeddings_sweep("fig1", embed_samples=0)

    def test_embed_params_are_fingerprinted(self):
        base = tiny_sweep().cells()[0]
        longer = tiny_sweep(tsne_iterations=31).cells()[0]
        assert base.fingerprint != longer.fingerprint
        assert embed_params_of(longer).tsne_iterations == 31

    def test_embed_field_overrides_apply_to_figure_default(self):
        sweep = embeddings_sweep("fig7", embed_samples=5)
        params = EmbedParams.from_jsonable(sweep.extras["embed"])
        assert params.samples_per_client == 5
        assert params.tsne_iterations == 200  # fig7's default survives

    def test_calibre_overrides_injected(self):
        sweep = embeddings_sweep("fig6")
        assert all(key.overrides == {"num_prototypes": 5}
                   for key in sweep.cells())


class TestRunKeyExtras:
    def test_empty_extras_leave_payload_unchanged(self):
        key = tiny_sweep().cells()[0]
        plain = RunKey(dataset=key.dataset, setting=key.setting,
                       method=key.method, seed=key.seed, config=key.config,
                       overrides=key.overrides,
                       dataset_kwargs=key.dataset_kwargs)
        assert "extras" not in plain.semantic_payload()
        assert "extras" in key.semantic_payload()
        assert plain.fingerprint != key.fingerprint

    def test_jsonable_roundtrip_preserves_extras(self):
        key = tiny_sweep().cells()[0]
        clone = RunKey.from_jsonable(key.to_jsonable())
        assert clone.extras == key.extras
        assert clone.fingerprint == key.fingerprint

    def test_plain_key_rejected_by_embed_executor(self):
        key = tiny_sweep().cells()[0]
        plain = RunKey.from_jsonable(
            {**key.to_jsonable(), "extras": {}})
        with pytest.raises(KeyError):
            embed_params_of(plain)


class TestStoreRoundTrip:
    def run_tiny(self, tmp_path, **kwargs):
        sweep = tiny_sweep(**kwargs)
        summary = run_sweep(sweep, store=tmp_path,
                            executor=execute_embedding_cell)
        return sweep, summary

    def test_records_carry_embedding_and_report(self, tmp_path):
        _sweep, summary = self.run_tiny(tmp_path)
        record = summary.records[0]
        embedding = record["embedding"]
        # The record itself holds scalars + column *names*; the point cloud
        # lives in the store's binary arrays/ sidecar.
        assert set(embedding) >= {"arrays", "silhouette",
                                  "feature_silhouette",
                                  "per_client_silhouette", "params"}
        columns = RunStore(tmp_path).read_arrays(record["fingerprint"])
        assert set(columns) == set(embedding["arrays"])
        assert len(columns["embedding.points"]) == \
            len(columns["embedding.labels"])
        assert "mean" in record["report"]  # the training result rides along

    def test_store_rebuild_renders_byte_identical_svg(self, tmp_path):
        sweep, summary = self.run_tiny(tmp_path)
        live = figure_results_from_records(summary.cells, summary.records,
                                           methods=sweep.methods,
                                           store=tmp_path)
        reloaded = RunStore(tmp_path).load_records(sweep.cells())
        stored = figure_results_from_records(sweep.cells(), reloaded,
                                             methods=sweep.methods,
                                             store=tmp_path)
        svg_live = render_figure_svg("fig1", live)
        svg_stored = render_figure_svg("fig1", stored)
        assert svg_live == svg_stored
        ElementTree.fromstring(svg_stored)
        np.testing.assert_array_equal(live[0].embedding, stored[0].embedding)

    def test_resume_skips_completed_cells(self, tmp_path):
        sweep, summary = self.run_tiny(tmp_path)
        assert len(summary.executed) == 1
        again = run_sweep(sweep, store=tmp_path,
                          executor=execute_embedding_cell)
        assert again.executed == []
        assert len(again.skipped) == 1

    def test_figure_replays_from_store(self, tmp_path):
        _sweep, live = self.run_tiny(tmp_path)
        _sweep, replayed = self.run_tiny(tmp_path)  # no cells left to execute
        assert replayed.executed == []
        first, second = (figure_results_from_records(
            summary.cells, summary.records, store=tmp_path)
            for summary in (live, replayed))
        np.testing.assert_array_equal(first[0].embedding, second[0].embedding)
        assert first[0].silhouette == second[0].silhouette

    def test_plain_training_record_rejected(self, tmp_path):
        from repro.runs import execute_cell

        key = tiny_sweep().cells()[0]
        plain_key = RunKey.from_jsonable({**key.to_jsonable(), "extras": {}})
        record = execute_cell(plain_key)
        with pytest.raises(KeyError):
            embedding_from_record(record)

    def test_training_half_matches_plain_execute_cell(self):
        # The embedding executor must stay pinned to the harness: its
        # result/report must be exactly what a plain training cell of the
        # same coordinates (extras stripped) produces.
        from repro.runs import encode_record, execute_cell

        key = tiny_sweep().cells()[0]
        plain_key = RunKey.from_jsonable({**key.to_jsonable(), "extras": {}})
        embedded = execute_embedding_cell(key)
        plain = execute_cell(plain_key)
        # byte-compare the encodings: the records carry NaN mean losses
        # (script-* baselines), and nan != nan under dict equality
        assert (encode_record(embedded["result"])
                == encode_record(plain["result"]))
        assert embedded["report"] == plain["report"]

    def test_resume_from_final_round_checkpoint_is_identical(self, tmp_path):
        # A checkpoint taken after the last training round (killed before
        # personalization) resumes without stepping; the embedding must
        # still be captured, identically.
        from repro.runs import encode_record

        key = tiny_sweep().cells()[0]
        ckpt = tmp_path / "ckpt"
        first = execute_embedding_cell(key, checkpoint_dir=ckpt)
        assert list(ckpt.glob("*.json"))  # final-round checkpoint left behind
        resumed = execute_embedding_cell(key, checkpoint_dir=ckpt)
        assert encode_record(resumed) == encode_record(first)


class TestRendering:
    def make_result(self, method="script-fair", clients=3):
        rng = np.random.default_rng(3)
        n = 8 * clients
        from repro.experiments import EmbeddingResult

        return EmbeddingResult(
            method=method,
            embedding=rng.standard_normal((n, 2)),
            labels=rng.integers(0, 4, n),
            client_ids=np.repeat(np.arange(clients), 8),
            silhouette=0.1,
            feature_silhouette=0.2,
            per_client_silhouette={0: 0.3, 1: 0.1},
        )

    def test_fig2_renders_only_per_client_panels(self):
        svg = render_figure_svg("fig2", [self.make_result()])
        root = ElementTree.fromstring(svg)
        panels = [el for el in root.iter("{http://www.w3.org/2000/svg}g")
                  if el.get("class") == "panel"]
        assert len(panels) == 2  # two recorded per-client views, no overview

    def test_fig6_renders_methods_plus_per_client(self):
        results = [self.make_result("calibre-simclr"),
                   self.make_result("calibre-byol")]
        svg = render_figure_svg("fig6", results)
        root = ElementTree.fromstring(svg)
        panels = [el for el in root.iter("{http://www.w3.org/2000/svg}g")
                  if el.get("class") == "panel"]
        assert len(panels) == 2 + 4

    def test_fig2_without_per_client_silhouettes_fails_loudly(self):
        result = self.make_result()
        result.per_client_silhouette = {}
        with pytest.raises(ValueError):
            render_figure_svg("fig2", [result])
