"""``repro.experiments`` — per-figure/table harnesses for the paper's
evaluation section (Figs. 1-8 and Table I)."""

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
    run_figure,
)
from .fig3 import FIG3_PANELS, fig3_sweep, run_fig3_panel
from .fig4 import FIG4_PANELS, fig4_sweep, run_fig4_panel
from .settings import (
    CALIBRE_OVERRIDES,
    COMPARISON_METHODS,
    NOVEL_METHODS,
    SCALED_CONFIG,
    SCALED_DATASET_KWARGS,
    scaled_spec,
)
from .table1 import (
    TABLE1_SETTING,
    TABLE1_TOGGLES,
    TABLE1_VARIANTS,
    run_table1,
    table1_rows_across_seeds,
    table1_rows_from_records,
    table1_sweep,
)

__all__ = [
    "run_fig3_panel",
    "fig3_sweep",
    "FIG3_PANELS",
    "run_fig4_panel",
    "fig4_sweep",
    "FIG4_PANELS",
    "run_table1",
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
    "run_figure",
    "figure_results_from_records",
    "embedding_from_record",
    "render_figure_svg",
    "SCALED_CONFIG",
    "SCALED_DATASET_KWARGS",
    "COMPARISON_METHODS",
    "NOVEL_METHODS",
    "CALIBRE_OVERRIDES",
    "scaled_spec",
]
