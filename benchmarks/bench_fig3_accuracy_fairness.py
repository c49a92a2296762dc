"""Fig. 3 — mean vs. variance of test accuracy, four non-i.i.d. panels.

Paper panels: CIFAR-10 (2, 500), CIFAR-100 (5, 500), STL-10 (2, 46),
STL-10 (0.3, 80), each comparing ~20 methods.  Shape targets asserted here
(docs/reproduction.md, "Shape targets"):

* Calibre (SimCLR) calibrates its base SSL method — it must not lose mean
  accuracy relative to plain SSL-trained encoders while keeping variance in
  the fair (low) region;
* FedAvg-FT improves on FedAvg's mean (personalization helps under skew);
* FedAvg (no personalization) sits in the low-mean region — the paper's
  motivating failure.
"""

import pytest

from repro.eval import format_comparison_table, format_series_csv
from repro.experiments import (
    COMPARISON_METHODS,
    fig3_sweep,
    panel_outcome_from_records,
)
from repro.runs import run_sweep

from .conftest import persist

PANEL_IDS = [0, 1, 2, 3]
PANEL_NAMES = {
    0: "cifar10_q2",
    1: "cifar100_q5",
    2: "stl10_q2",
    3: "stl10_d03",
}
# pfl-simclr is added so the calibration claim is checkable in every panel.
BENCH_METHODS = COMPARISON_METHODS + ["pfl-simclr"]


@pytest.mark.parametrize("panel", PANEL_IDS)
def test_fig3_panel(benchmark, results_dir, panel):
    sweep = fig3_sweep(panel, methods=BENCH_METHODS)
    summary = benchmark.pedantic(run_sweep, args=(sweep,), rounds=1,
                                 iterations=1)
    outcome = panel_outcome_from_records("fig3", panel, sweep, summary.records)
    reports = outcome.reports
    table = format_comparison_table(outcome, title=outcome.title)
    csv = format_series_csv(outcome)
    persist(results_dir, f"fig3_{PANEL_NAMES[panel]}", table + "\n\n" + csv)
    benchmark.extra_info["calibre_simclr_mean"] = reports["calibre-simclr"].mean
    benchmark.extra_info["calibre_simclr_variance"] = reports["calibre-simclr"].variance

    # Shape 1: head fine-tuning helps under label skew.
    assert reports["fedavg-ft"].mean > reports["fedavg"].mean, (
        "FedAvg-FT must beat plain FedAvg under non-i.i.d. data"
    )
    # Shape 2 (Q-non-iid panels only): plain FedAvg collapses into the
    # low-mean region under severe quantity-based label skew.  Under the
    # milder D-non-iid STL-10 panel the global model survives — matching
    # the paper, whose FedAvg rows only appear in the severe-skew panels.
    if outcome.setting.kind == "quantity":
        means = sorted(r.mean for r in reports.values())
        assert reports["fedavg"].mean <= means[len(means) // 3], (
            "FedAvg without personalization should sit near the bottom"
        )
    # Shape 3: Calibre calibrates SSL without losing accuracy.  Tolerance:
    # one test-set sample per client at the scaled test-set size (~1/25).
    mean_gain = reports["calibre-simclr"].mean - reports["pfl-simclr"].mean
    assert mean_gain >= -0.04, (
        "Calibre (SimCLR) must not lose mean accuracy vs. uncalibrated pFL-SimCLR"
    )
    # Shape 4: the generality-personalization tradeoff — Calibre either
    # keeps variance in the fair band (within 1.5x of the SSL baseline) or
    # buys a clear mean-accuracy gain (>= 2 points) with the extra spread.
    variance_ok = reports["calibre-simclr"].variance <= 1.5 * max(
        reports["pfl-simclr"].variance, 0.005
    )
    assert variance_ok or mean_gain >= 0.02, (
        f"Calibre (SimCLR) raised variance "
        f"({reports['calibre-simclr'].variance:.4f} vs "
        f"{reports['pfl-simclr'].variance:.4f}) without a compensating "
        f"mean gain ({mean_gain:+.4f})"
    )
