"""Fairness comparison: regenerate one Fig. 3-style panel.

Runs a representative subset of the paper's 20 comparison methods on
identical non-i.i.d. partitions and prints the (method, mean, variance)
series behind the accuracy-vs-variance scatter — the paper's main plot.

Usage:  python examples/fairness_comparison.py [--full]
        --full runs all 20 methods (a few minutes on CPU).
"""

import sys

from repro.eval import NonIIDSetting, format_comparison_table, format_series_csv
from repro.experiments import COMPARISON_METHODS, scaled_sweep
from repro.runs import outcome_from_records, run_sweep

REPRESENTATIVE = [
    "fedavg", "fedavg-ft", "script-fair", "fedbabu", "fedrep",
    "pfl-simclr", "calibre-simclr", "calibre-byol",
]


def main():
    methods = COMPARISON_METHODS if "--full" in sys.argv else REPRESENTATIVE
    sweep = scaled_sweep(
        "CIFAR-10 Q-non-iid — Fig. 3 panel 1 (scaled)",
        dataset="cifar10",
        setting=NonIIDSetting("quantity", 2, 50),  # the paper's (2, 500), scaled
        methods=methods,
    )
    print(f"Running {len(methods)} methods on identical partitions ...")
    summary = run_sweep(sweep, verbose=True)
    outcome = outcome_from_records(sweep, summary.records)
    print()
    print(format_comparison_table(outcome, title=outcome.title))
    print("\nCSV series (paste into any plotting tool):")
    print(format_series_csv(outcome))


if __name__ == "__main__":
    main()
