"""Ablation: divergence-aware aggregation (Calibre contribution 2).

The paper introduces prototype-distance divergence rates as aggregation
weights but reports no isolated ablation; docs/reproduction.md records the
functional form as an interpretation choice, so this bench measures it: the
``divergence_sweep`` grid runs Calibre (SimCLR) with divergence weighting
(softmax mode, temperature 1) vs. the same algorithm with plain FedAvg
weighting (temperature 0), plus the inverse mode.
"""


from repro.experiments import divergence_rows_from_records, divergence_sweep
from repro.runs import run_sweep

from .conftest import persist


def _run():
    summary = run_sweep(divergence_sweep())
    return divergence_rows_from_records(summary.cells, summary.records)


def test_divergence_aggregation_ablation(benchmark, results_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'weighting':20s} {'mean':>8s} {'variance':>10s}"]
    for label, report in rows.items():
        lines.append(f"{label:20s} {report.mean:8.4f} {report.variance:10.5f}")
        benchmark.extra_info[f"{label}_mean"] = report.mean
    persist(results_dir, "ablation_divergence_weighting", "\n".join(lines))

    # The divergence-aware variants must stay within a small band of plain
    # FedAvg weighting (they re-weight, not destabilize).  Whether they
    # *help* at this scale is the measured finding recorded above — at seed
    # 0, softmax leaves the mean where FedAvg weighting puts it but doubles
    # the variance, and inverse gains a little mean (docs/reproduction.md,
    # "Divergence ablation"), so only stability is asserted.
    base = rows["fedavg-weighting"]
    for label in ("softmax-t1", "inverse-t1"):
        assert rows[label].mean >= base.mean - 0.05, (
            f"{label} destabilized training ({rows[label].mean:.3f} vs "
            f"{base.mean:.3f})"
        )
