"""Figs. 3 and 4 as one records view.

Both figures are panels of one cell per method, declared by
:func:`~repro.experiments.fig3.fig3_sweep` and
:func:`~repro.experiments.fig4.fig4_sweep`.  Every consumer of a panel —
``repro report`` and ``repro figures``, the paper benches, the examples —
reads one seed of it through :func:`panel_outcome_from_records`, so the
panel's title and its :class:`~repro.eval.harness.ExperimentOutcome` are
assembled here and nowhere else.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..eval.harness import ExperimentOutcome
from ..runs import SweepSpec, outcome_from_records
from .settings import FIG3_PANELS, FIG4_PANELS

__all__ = ["PANEL_FIGURES", "panel_title", "panel_outcome_from_records"]

PANEL_FIGURES = {"fig3": FIG3_PANELS, "fig4": FIG4_PANELS}
"""Figure name → its panels, each ``(dataset, paper label, scaled setting)``."""


def panel_title(figure: str, panel_index: int) -> str:
    """The panel's name in tables and SVGs, e.g.
    ``fig3-panel0 cifar10 paper:Q-non-iid (2, 500)``."""
    dataset, paper_label, _setting = PANEL_FIGURES[figure][panel_index]
    return f"{figure}-panel{panel_index} {dataset} paper:{paper_label}"


def panel_outcome_from_records(
    figure: str,
    panel_index: int,
    sweep: SweepSpec,
    records: Sequence[Optional[Dict]],
    seed: int = 0,
) -> ExperimentOutcome:
    """One seed of a Fig. 3/4 panel, from its cell records alone.

    ``sweep`` is the panel's grid and ``records`` its cell records (a
    :class:`~repro.runs.SweepSummary`'s, or
    :meth:`~repro.runs.RunStore.load_records` over the grid's cells);
    records of other seeds are skipped.  Fairness reports are recomputed
    from the stored accuracies, so an outcome read back from a store
    equals the one a live :func:`~repro.runs.run_sweep` of the same grid
    yields.
    """
    return outcome_from_records(sweep, records, seed=seed,
                                title=panel_title(figure, panel_index))
