"""STL-10 scenario: learning from a large unlabeled pool.

STL-10 has 100k unlabeled images next to only 5k labeled ones; the paper
argues Calibre "is able to sufficiently learn from a large number of
unlabeled samples in STL-10 while other methods cannot".  This example
reproduces that workload shape: each client's SSL training pool combines
its few labeled samples with a shard of the unlabeled pool, while
supervised baselines can only use the labeled samples.

Usage:  python examples/stl10_unlabeled.py
"""

from repro.eval import NonIIDSetting, format_comparison_table
from repro.experiments import scaled_sweep
from repro.runs import outcome_from_records, run_sweep

METHODS = ["fedavg-ft", "script-fair", "pfl-simclr", "calibre-simclr"]


def main():
    sweep = scaled_sweep(
        "STL-10 Q-non-iid with unlabeled pool (scaled)",
        dataset="stl10",
        setting=NonIIDSetting("quantity", 2, 24),  # the paper's (2, 46), scaled
        methods=METHODS,
        dataset_kwargs=dict(train_per_class=10, unlabeled_size=1500),
    )
    print("Labeled samples are scarce; SSL methods also train on the "
          "unlabeled pool.\n")
    summary = run_sweep(sweep, verbose=True)
    outcome = outcome_from_records(sweep, summary.records)
    print()
    print(format_comparison_table(outcome, title=outcome.title))


if __name__ == "__main__":
    main()
