"""Fig. 4 — D-non-i.i.d. accuracy/fairness plus novel-client generalization.

The paper's second figure evaluates 150 clients (100 training + 50 novel)
under Dirichlet(0.3) label skew on CIFAR-10 and CIFAR-100.  The right-hand
column is the novel-client panel: clients that never participated download
the final global model and personalize from scratch (§V-D).

Each panel is a sweep grid of one cell per method (novel clients included
in every cell's config), declared by :func:`fig4_sweep` and
executed/resumed through :mod:`repro.runs`;
:func:`~repro.experiments.panels.panel_outcome_from_records` reassembles
one seed's cells into an outcome carrying both the training-client and
the novel-client series.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from ..runs import SweepSpec
from .settings import FIG4_PANELS, NOVEL_METHODS, SCALED_CONFIG, scaled_sweep

__all__ = ["fig4_sweep", "FIG4_PANELS"]


def fig4_sweep(
    panel_index: int,
    methods: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    num_novel_clients: int = 6,
    config=None,
    dataset_kwargs: Optional[Dict] = None,
    method_overrides: Optional[Dict[str, Dict]] = None,
    samples_per_client: Optional[int] = None,
    **spec_overrides,
) -> SweepSpec:
    """Declare one Fig. 4 panel's grid (0 = CIFAR-10, 1 = CIFAR-100).

    ``samples_per_client`` scales the panel's non-i.i.d. setting down
    (smoke/budget grids); it changes the cell fingerprints.
    """
    if not 0 <= panel_index < len(FIG4_PANELS):
        raise IndexError(f"panel_index must be in [0, {len(FIG4_PANELS) - 1}]")
    dataset, _paper_label, setting = FIG4_PANELS[panel_index]
    if samples_per_client is not None:
        setting = replace(setting, samples_per_client=samples_per_client)
    base_config = config if config is not None else SCALED_CONFIG
    return scaled_sweep(
        f"fig4-panel{panel_index}", dataset, setting,
        methods if methods is not None else NOVEL_METHODS,
        seeds=seeds,
        config=base_config.with_overrides(num_novel_clients=num_novel_clients),
        dataset_kwargs=dataset_kwargs, method_overrides=method_overrides,
        **spec_overrides)
