"""Novel-client generalization (Fig. 4, right column).

The paper's §V-D: 50 clients that never participated in training download
the final global model and personalize from scratch.  A good pFL method
must serve them almost as well as the training clients.  This example
trains four methods with novel clients attached and prints both panels.

Usage:  python examples/novel_clients.py
"""

from repro.eval import format_comparison_table
from repro.experiments import fig4_sweep, panel_outcome_from_records
from repro.runs import run_sweep

METHODS = ["fedavg-ft", "fedbabu", "pfl-simclr", "calibre-simclr"]


def main():
    # Panel 0 is CIFAR-10, D-non-iid (0.3, ...); in memory, no run store.
    sweep = fig4_sweep(0, methods=METHODS, num_novel_clients=6)
    summary = run_sweep(sweep, verbose=True)
    outcome = panel_outcome_from_records("fig4", 0, sweep, summary.records)
    print()
    print(format_comparison_table(outcome, title="training clients"))
    print()
    print(format_comparison_table(outcome, novel=True, title="novel clients"))
    print()
    for method in METHODS:
        train_mean = outcome.reports[method].mean
        novel_mean = outcome.novel_reports[method].mean
        print(f"{method:18s} generalization gap (train - novel): "
              f"{train_mean - novel_mean:+.4f}")


if __name__ == "__main__":
    main()
