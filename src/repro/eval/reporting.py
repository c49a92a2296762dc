"""Rendering of experiment outcomes: the rows/series/figures the paper plots.

Text tables and CSV series for terminals, plus the SVG renderers behind
``repro figures`` — every renderer here is a pure function of its
inputs, so outputs rebuilt from the run store are byte-identical to live
runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..viz.svg import accuracy_fairness_panel, render_accuracy_fairness_panels
from .harness import ExperimentOutcome
from .metrics import FairnessReport

__all__ = ["format_comparison_table", "format_report_table", "format_ablation_table",
           "format_series_csv", "format_across_seeds_table", "render_series_svg",
           "format_silhouette_table", "format_silhouette_across_seeds"]


def format_report_table(reports: Dict[str, FairnessReport], title: str) -> str:
    """The comparison-table body over bare fairness reports.

    This is the store-friendly core of :func:`format_comparison_table`:
    ``repro report`` rebuilds ``reports`` from persisted run records and
    must produce bytes identical to a live run, so both paths share this
    renderer.
    """
    lines = [title,
             f"{'method':22s} {'mean':>8s} {'variance':>10s} {'std':>8s} "
             f"{'min':>8s} {'max':>8s}"]
    for name in sorted(reports, key=lambda m: -reports[m].mean):
        report = reports[name]
        lines.append(
            f"{name:22s} {report.mean:8.4f} {report.variance:10.5f} "
            f"{report.std:8.4f} {report.minimum:8.4f} {report.maximum:8.4f}"
        )
    return "\n".join(lines)


def format_comparison_table(outcome: ExperimentOutcome, novel: bool = False,
                            title: Optional[str] = None) -> str:
    """A Fig. 3/4-style table: method, mean accuracy, variance, extremes."""
    source = outcome.novel_reports if novel else outcome.reports
    header_title = title or (
        f"{outcome.dataset} {outcome.setting.label()}"
        + (" [novel clients]" if novel else "")
    )
    return format_report_table(source, header_title)


def _toggle_mark(flag: bool) -> str:
    """The 4-column on/off cell of the ablation table's L_n / L_p toggles."""
    return "  ✓ " if flag else "    "


def format_ablation_table(rows: Sequence[Dict], title: str = "Table I") -> str:
    """Table I layout: L_n / L_p toggles against accuracy mean ± std.

    Each row dict needs keys ``ln`` (bool), ``lp`` (bool) and per-variant
    ``{variant: (mean, std)}`` entries under ``results``.
    """
    if not rows:
        raise ValueError("no ablation rows")
    variants = sorted(rows[0]["results"])
    header = f"{'L_n':>4s} {'L_p':>4s}  " + "  ".join(f"{v:>24s}" for v in variants)
    lines = [title, header]
    for row in rows:
        cells = []
        for variant in variants:
            mean, std = row["results"][variant]
            cells.append(f"{100 * mean:10.2f} ± {100 * std:5.2f}".rjust(24))
        lines.append(f"{_toggle_mark(row['ln'])}{_toggle_mark(row['lp'])}  "
                     + "  ".join(cells))
    return "\n".join(lines)


def format_across_seeds_table(per_method: Dict[str, List[Tuple[float, float]]],
                              title: str) -> str:
    """Multi-seed aggregation: collapse seeds into mean ± std rows.

    ``per_method`` maps each method to its per-seed ``(mean_accuracy,
    accuracy_variance)`` pairs; the rendered row reports the across-seed
    mean ± std of both columns (the Cali3F-style presentation).  Stds are
    population stds (``ddof=0``), matching the paper's fairness variance
    convention, so a single seed renders ``± 0.0000`` rather than NaN.
    Methods sort by across-seed mean accuracy, best first.
    """
    if not per_method:
        raise ValueError("no methods to aggregate")
    lines = [title,
             f"{'method':22s} {'mean':>8s} {'±std':>8s} "
             f"{'variance':>10s} {'±std':>10s} {'seeds':>6s}"]
    aggregated = {
        name: (np.asarray([m for m, _ in pairs], dtype=np.float64),
               np.asarray([v for _, v in pairs], dtype=np.float64))
        for name, pairs in per_method.items()
    }
    for name in sorted(aggregated, key=lambda m: -float(aggregated[m][0].mean())):
        means, variances = aggregated[name]
        lines.append(
            f"{name:22s} {means.mean():8.4f} {means.std():8.4f} "
            f"{variances.mean():10.5f} {variances.std():10.5f} "
            f"{means.size:6d}"
        )
    return "\n".join(lines)


def format_series_csv(outcome: ExperimentOutcome, novel: bool = False) -> str:
    """CSV of (method, mean, variance) — the data behind one scatter panel."""
    rows = ["method,mean_accuracy,accuracy_variance"]
    for entry in outcome.series(novel=novel):
        rows.append(f"{entry['method']},{entry['mean']:.6f},{entry['variance']:.8f}")
    return "\n".join(rows)


def render_series_svg(outcome: ExperimentOutcome, title: Optional[str] = None,
                      include_novel: bool = True) -> str:
    """The Fig. 3/4 accuracy-fairness scatter as a standalone SVG.

    One labeled point per method (mean accuracy vs. accuracy variance;
    the paper's fair-and-accurate region is bottom-right).  When the
    outcome carries novel-client reports and ``include_novel`` is set, a
    second ``[novel clients]`` panel renders beside the first — the
    Fig. 4 layout.  Deterministic: the same outcome (live or rebuilt
    from store records) renders identical bytes.
    """
    panels = [accuracy_fairness_panel(outcome.series(), title="training clients")]
    if include_novel and outcome.novel_reports:
        panels.append(accuracy_fairness_panel(outcome.series(novel=True),
                                              title="novel clients"))
    header = title if title is not None else (
        f"{outcome.dataset} {outcome.setting.label()}")
    return render_accuracy_fairness_panels(panels, title=header)


def format_silhouette_table(results: Sequence, title: str) -> str:
    """Silhouette scores of one embedding figure, one row per method.

    ``results`` are :class:`~repro.experiments.EmbeddingResult`-shaped
    objects (``method``/``silhouette``/``feature_silhouette``/
    ``per_client_silhouette`` attributes).  Rows keep the figure's method
    order — the paper's claims are about *pairs* (calibrated vs. not), so
    no resorting by score.
    """
    results = list(results)
    if not results:
        raise ValueError("no embedding results to tabulate")
    lines = [title,
             f"{'method':22s} {'tsne_sil':>9s} {'feat_sil':>9s} "
             f"{'clients':>8s} {'points':>7s}"]
    for result in results:
        lines.append(
            f"{result.method:22s} {result.silhouette:+9.4f} "
            f"{result.feature_silhouette:+9.4f} "
            f"{len(result.per_client_silhouette):8d} "
            f"{len(result.labels):7d}"
        )
    return "\n".join(lines)


def format_silhouette_across_seeds(
    per_method: Dict[str, List[Tuple[float, float]]], title: str
) -> str:
    """Embedding silhouettes collapsed across seeds: mean ± std rows.

    ``per_method`` maps each method to per-seed ``(tsne_silhouette,
    feature_silhouette)`` pairs.  Stds are population stds (``ddof=0``),
    matching :func:`format_across_seeds_table`; method order is the
    figure's method order (insertion order of ``per_method``).
    """
    if not per_method:
        raise ValueError("no methods to aggregate")
    lines = [title,
             f"{'method':22s} {'tsne_sil':>9s} {'±std':>8s} "
             f"{'feat_sil':>9s} {'±std':>8s} {'seeds':>6s}"]
    for name, pairs in per_method.items():
        tsne = np.asarray([t for t, _ in pairs], dtype=np.float64)
        feat = np.asarray([f for _, f in pairs], dtype=np.float64)
        lines.append(
            f"{name:22s} {tsne.mean():+9.4f} {tsne.std():8.4f} "
            f"{feat.mean():+9.4f} {feat.std():8.4f} {tsne.size:6d}"
        )
    return "\n".join(lines)
