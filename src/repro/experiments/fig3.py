"""Fig. 3 — mean vs. variance of test accuracy across four non-i.i.d. panels.

The paper plots ~20 methods per panel on CIFAR-10 (2, 500), CIFAR-100
(5, 500), STL-10 (2, 46), and STL-10 (0.3, 80); the headline claims are
that Calibre (SimCLR) attains the best mean accuracy while staying in the
low-variance (fair) region.

Each panel is a sweep grid of one cell per method, declared by
:func:`fig3_sweep` and executed/resumed through :mod:`repro.runs`;
:func:`~repro.experiments.panels.panel_outcome_from_records` reassembles
one seed's cells into the familiar
:class:`~repro.eval.harness.ExperimentOutcome`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from ..runs import SweepSpec
from .settings import COMPARISON_METHODS, FIG3_PANELS, scaled_sweep

__all__ = ["fig3_sweep", "FIG3_PANELS"]


def fig3_sweep(
    panel_index: int,
    methods: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    config=None,
    dataset_kwargs: Optional[Dict] = None,
    method_overrides: Optional[Dict[str, Dict]] = None,
    samples_per_client: Optional[int] = None,
    **spec_overrides,
) -> SweepSpec:
    """Declare one Fig. 3 panel's grid: one cell per method (x seed).

    ``samples_per_client`` scales the panel's non-i.i.d. setting down
    (smoke/budget grids); like every result-changing knob it changes the
    cell fingerprints.
    """
    if not 0 <= panel_index < len(FIG3_PANELS):
        raise IndexError(f"panel_index must be in [0, {len(FIG3_PANELS) - 1}]")
    dataset, _paper_label, setting = FIG3_PANELS[panel_index]
    if samples_per_client is not None:
        setting = replace(setting, samples_per_client=samples_per_client)
    return scaled_sweep(
        f"fig3-panel{panel_index}", dataset, setting,
        methods if methods is not None else COMPARISON_METHODS,
        seeds=seeds, config=config, dataset_kwargs=dataset_kwargs,
        method_overrides=method_overrides, **spec_overrides)
