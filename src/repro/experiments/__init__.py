"""``repro.experiments`` — the paper's evaluation section (Figs. 1-8 and
Table I), one sweep declaration and one records view per artifact:

* Table I: :func:`table1_sweep` → :func:`table1_rows_from_records`;
* Figs. 3/4: :func:`fig3_sweep` / :func:`fig4_sweep` →
  :func:`panel_outcome_from_records`;
* Figs. 1, 2, 5-8: :func:`embeddings_sweep` (run with
  :func:`execute_embedding_cell`) → :func:`figure_results_from_records`;
* the divergence-aware aggregation ablation: :func:`divergence_sweep` →
  :func:`divergence_rows_from_records`.
"""

from .divergence import (
    DIVERGENCE_SETTING,
    DIVERGENCE_VARIANTS,
    divergence_rows_from_records,
    divergence_sweep,
)
from .embeddings import (
    EMBEDDING_FIGURES,
    FIGURE_METHOD_SETS,
    FIGURE_WORKLOADS,
    EmbedParams,
    EmbeddingResult,
    embedding_from_record,
    embeddings_sweep,
    execute_embedding_cell,
    figure_results_from_records,
    render_figure_svg,
)
from .fig3 import FIG3_PANELS, fig3_sweep
from .fig4 import FIG4_PANELS, fig4_sweep
from .panels import PANEL_FIGURES, panel_outcome_from_records, panel_title
from .settings import (
    CALIBRE_OVERRIDES,
    COMPARISON_METHODS,
    NOVEL_METHODS,
    SCALED_CONFIG,
    SCALED_DATASET_KWARGS,
    scaled_sweep,
)
from .table1 import (
    TABLE1_SETTING,
    TABLE1_TOGGLES,
    TABLE1_VARIANTS,
    table1_rows_across_seeds,
    table1_rows_from_records,
    table1_sweep,
)

__all__ = [
    "fig3_sweep",
    "FIG3_PANELS",
    "fig4_sweep",
    "FIG4_PANELS",
    "PANEL_FIGURES",
    "panel_title",
    "panel_outcome_from_records",
    "divergence_sweep",
    "divergence_rows_from_records",
    "DIVERGENCE_VARIANTS",
    "DIVERGENCE_SETTING",
    "table1_sweep",
    "table1_rows_from_records",
    "table1_rows_across_seeds",
    "TABLE1_VARIANTS",
    "TABLE1_TOGGLES",
    "TABLE1_SETTING",
    "EmbeddingResult",
    "EmbedParams",
    "FIGURE_METHOD_SETS",
    "FIGURE_WORKLOADS",
    "EMBEDDING_FIGURES",
    "embeddings_sweep",
    "execute_embedding_cell",
    "figure_results_from_records",
    "embedding_from_record",
    "render_figure_svg",
    "SCALED_CONFIG",
    "SCALED_DATASET_KWARGS",
    "COMPARISON_METHODS",
    "NOVEL_METHODS",
    "CALIBRE_OVERRIDES",
    "scaled_sweep",
]
