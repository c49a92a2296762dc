"""Figs. 1 & 2 — the motivating observation: plain pFL-SSL representations
have fuzzy class boundaries.

Fig. 1 embeds representations of multiple clients' samples from
pFL-SimCLR / pFL-BYOL encoders; Fig. 2 zooms into single clients.  The
paper's claim is *negative* — no distinct class clusters emerge.  This
bench runs the figure's sweep definition
(:func:`repro.experiments.embeddings_sweep`) and reads it through the
figure's records view (:func:`~repro.experiments.figure_results_from_records`):
the same grid ``repro sweep --grid fig1`` executes, rendered to the same
SVGs ``repro figures`` writes, plus the fuzziness asserted quantitatively
— uncalibrated SSL feature silhouettes stay below the well-clustered
threshold that Calibre exceeds in the Fig. 5/6 bench.
"""


from repro.eval import format_silhouette_table
from repro.experiments import (
    embeddings_sweep,
    execute_embedding_cell,
    figure_results_from_records,
    render_figure_svg,
)
from repro.runs import run_sweep

from .conftest import persist, persist_svg

FUZZY_CEILING = 0.15  # silhouette below this = "no distinct clusters"


def test_fig1_fig2_fuzzy_boundaries(benchmark, results_dir):
    summary = benchmark.pedantic(
        run_sweep,
        args=(embeddings_sweep("fig1"),),
        kwargs=dict(executor=execute_embedding_cell),
        rounds=1,
        iterations=1,
    )
    results = figure_results_from_records(summary.cells, summary.records)
    blocks = [format_silhouette_table(results, title="fig1/fig2 silhouettes")]
    for result in results:
        blocks.append(f"{result.method} per-client silhouettes (Fig. 2): "
                      + ", ".join(f"client-{cid}: {sil:.3f}"
                                  for cid, sil in
                                  result.per_client_silhouette.items()))
        blocks.append(result.to_csv())
        benchmark.extra_info[f"{result.method}_feature_silhouette"] = (
            result.feature_silhouette
        )
    persist(results_dir, "fig1_fig2_pfl_ssl_embeddings", "\n\n".join(blocks))
    persist_svg(results_dir, "fig1_pfl_ssl_embeddings",
                render_figure_svg("fig1", results))
    persist_svg(results_dir, "fig2_pfl_ssl_single_clients",
                render_figure_svg("fig2", results))

    for result in results:
        assert result.feature_silhouette < FUZZY_CEILING, (
            f"{result.method} representations unexpectedly well-clustered "
            f"({result.feature_silhouette:.3f}) — the paper's motivating "
            "observation did not reproduce"
        )
