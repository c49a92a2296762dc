"""Table I — ablation of Calibre's regularizers L_n and L_p.

The paper reports accuracy mean ± std on CIFAR-10 Q-non-i.i.d. (2, 500) for
Calibre over SimCLR, SwAV, and SMoG with the four on/off combinations of
L_n and L_p.  Directional findings to reproduce (§V-F):

* for Calibre (SimCLR), each regularizer helps and both together are best;
* for SwAV/SMoG — methods with built-in prototypes — L_n conflicts and can
  hurt, while L_p still reduces variance.

The table is a 12-cell sweep grid (3 methods x 4 toggle variants), declared
by :func:`table1_sweep` and executed/resumed through :mod:`repro.runs`;
:func:`table1_rows_from_records` regenerates the paper's rows from cell
records alone, so ``repro report`` reproduces the table from a store with
no retraining.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.harness import NonIIDSetting
from ..runs import RunKey, SweepSpec, SweepVariant
from .settings import SCALED_CONFIG, SCALED_DATASET_KWARGS

__all__ = ["table1_sweep", "table1_rows_from_records",
           "table1_rows_across_seeds",
           "TABLE1_VARIANTS", "TABLE1_TOGGLES", "TABLE1_SETTING"]

TABLE1_VARIANTS = ("calibre-simclr", "calibre-swav", "calibre-smog")
TABLE1_TOGGLES: List[Tuple[bool, bool]] = [
    (False, False),
    (True, False),
    (False, True),
    (True, True),
]
TABLE1_SETTING = NonIIDSetting("quantity", 2, 50)


def _toggle_variant(use_ln: bool, use_lp: bool) -> SweepVariant:
    return SweepVariant(
        label=f"ln{int(use_ln)}-lp{int(use_lp)}",
        overrides={"num_prototypes": 5, "use_ln": use_ln, "use_lp": use_lp},
    )


def table1_sweep(
    variants: Sequence[str] = TABLE1_VARIANTS,
    seeds: Sequence[int] = (0,),
    setting: Optional[NonIIDSetting] = None,
    config=None,
    dataset_kwargs: Optional[Dict] = None,
    **spec_overrides,
) -> SweepSpec:
    """Declare Table I's grid: Calibre variants x (L_n, L_p) toggles."""
    setting = setting if setting is not None else TABLE1_SETTING
    return SweepSpec(
        name="table1",
        methods=list(variants),
        settings=[setting],
        datasets=["cifar10"],
        seeds=list(seeds),
        config=config if config is not None else SCALED_CONFIG,
        variants=[_toggle_variant(use_ln, use_lp)
                  for use_ln, use_lp in TABLE1_TOGGLES],
        dataset_kwargs={"cifar10": {**SCALED_DATASET_KWARGS["cifar10"],
                                    **(dataset_kwargs or {})}},
        **spec_overrides,
    )


def table1_rows_from_records(
    cells: Sequence[RunKey],
    records: Sequence[Optional[Dict]],
    variants: Sequence[str] = TABLE1_VARIANTS,
    seed: int = 0,
) -> List[Dict]:
    """Regenerate Table I rows from stored cell records (no retraining).

    Returns rows of ``{"ln": bool, "lp": bool,
    "results": {variant: (mean, std)}}`` in the paper's row order,
    regardless of the order cells completed in.
    """
    by_coordinate = {(key.seed, key.variant, key.method): record
                     for key, record in zip(cells, records)}
    rows: List[Dict] = []
    for use_ln, use_lp in TABLE1_TOGGLES:
        label = _toggle_variant(use_ln, use_lp).label
        results: Dict[str, Tuple[float, float]] = {}
        for method in variants:
            record = by_coordinate.get((seed, label, method))
            if record is None:
                raise KeyError(f"no record for cell (seed={seed}, {label}, {method}); "
                               "run the sweep to completion first")
            results[method] = (record["report"]["mean"], record["report"]["std"])
        rows.append({"ln": use_ln, "lp": use_lp, "results": results})
    return rows


def table1_rows_across_seeds(
    cells: Sequence[RunKey],
    records: Sequence[Optional[Dict]],
    variants: Sequence[str] = TABLE1_VARIANTS,
    seeds: Sequence[int] = (0,),
) -> List[Dict]:
    """Table I rows collapsed across seeds: mean ± std of per-seed means.

    Where :func:`table1_rows_from_records` renders one seed's accuracy
    mean ± std *across clients*, this renders the across-*seed* mean ±
    population std of each cell's mean accuracy (the Cali3F-style
    multi-seed presentation).  It reads each seed through
    :func:`table1_rows_from_records`, so every ``(seed, toggle, method)``
    cell must be present.
    """
    per_seed = [table1_rows_from_records(cells, records, variants=variants,
                                         seed=seed)
                for seed in seeds]
    rows: List[Dict] = []
    for index, (use_ln, use_lp) in enumerate(TABLE1_TOGGLES):
        results: Dict[str, Tuple[float, float]] = {}
        for method in variants:
            means = np.asarray([seed_rows[index]["results"][method][0]
                                for seed_rows in per_seed], dtype=np.float64)
            results[method] = (float(means.mean()), float(means.std()))
        rows.append({"ln": use_ln, "lp": use_lp, "results": results})
    return rows
