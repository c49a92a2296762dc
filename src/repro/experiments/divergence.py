"""Ablation of divergence-aware aggregation (Calibre contribution 2).

The paper weights each client's update by a prototype-distance divergence
rate but reports no isolated ablation, and docs/reproduction.md
("Divergence weighting") records the functional form as an
interpretation choice.  This grid measures it: Calibre (SimCLR) on
CIFAR-10 D-non-i.i.d. (0.3) under three aggregation weightings, one
:class:`~repro.runs.SweepVariant` each — plain FedAvg weighting
(temperature 0), and softmax and inverse divergence weighting at
temperature 1.

The grid is declared by :func:`divergence_sweep` and executed/resumed
through :mod:`repro.runs`; :func:`divergence_rows_from_records` reads
one seed's fairness reports back from the cell records.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..eval.harness import NonIIDSetting
from ..eval.metrics import FairnessReport
from ..runs import RunKey, SweepSpec, SweepVariant
from .settings import scaled_sweep

__all__ = ["divergence_sweep", "divergence_rows_from_records",
           "DIVERGENCE_VARIANTS", "DIVERGENCE_SETTING"]

DIVERGENCE_SETTING = NonIIDSetting("dirichlet", 0.3, 50)

DIVERGENCE_VARIANTS = (
    SweepVariant("fedavg-weighting", {"divergence_temperature": 0.0}),
    SweepVariant("softmax-t1", {"divergence_temperature": 1.0,
                                "divergence_mode": "softmax"}),
    SweepVariant("inverse-t1", {"divergence_temperature": 1.0,
                                "divergence_mode": "inverse"}),
)
"""The three weightings, in the order the ablation reports them."""


def divergence_sweep(seeds: Sequence[int] = (0,), config=None,
                     **spec_overrides) -> SweepSpec:
    """Declare the ablation's grid: Calibre (SimCLR) x three weightings."""
    return scaled_sweep("divergence-ablation", "cifar10", DIVERGENCE_SETTING,
                        ["calibre-simclr"], seeds=seeds, config=config,
                        variants=list(DIVERGENCE_VARIANTS), **spec_overrides)


def divergence_rows_from_records(
    cells: Sequence[RunKey],
    records: Sequence[Optional[Dict]],
    seed: int = 0,
) -> Dict[str, FairnessReport]:
    """Weighting label → fairness report of one seed, in
    :data:`DIVERGENCE_VARIANTS` order, from cell records alone."""
    by_variant = {key.variant: record for key, record in zip(cells, records)
                  if key.seed == seed and record is not None}
    rows: Dict[str, FairnessReport] = {}
    for variant in DIVERGENCE_VARIANTS:
        record = by_variant.get(variant.label)
        if record is None:
            raise KeyError(f"no record for cell (seed={seed}, {variant.label}); "
                           "run the sweep to completion first")
        rows[variant.label] = FairnessReport.from_dict(record["report"])
    return rows
