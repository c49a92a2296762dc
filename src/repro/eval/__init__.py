"""``repro.eval`` — fairness metrics, the method registry, and the harness."""

from .harness import (
    EncoderSpec,
    ExperimentOutcome,
    NonIIDSetting,
    make_dataset,
    make_encoder_factory,
    make_partitions,
)
from .metrics import FairnessReport, accuracy_variance, fairness_report, mean_accuracy
from .registry import (
    METHOD_BUILDERS,
    available_methods,
    build_method,
    valid_overrides,
)
from .reporting import (
    format_ablation_table,
    format_across_seeds_table,
    format_comparison_table,
    format_report_table,
    format_series_csv,
    format_silhouette_across_seeds,
    format_silhouette_table,
    render_series_svg,
)

__all__ = [
    "NonIIDSetting",
    "ExperimentOutcome",
    "make_dataset",
    "make_encoder_factory",
    "EncoderSpec",
    "make_partitions",
    "FairnessReport",
    "fairness_report",
    "mean_accuracy",
    "accuracy_variance",
    "METHOD_BUILDERS",
    "available_methods",
    "build_method",
    "valid_overrides",
    "format_comparison_table",
    "format_report_table",
    "format_ablation_table",
    "format_across_seeds_table",
    "format_series_csv",
    "render_series_svg",
    "format_silhouette_table",
    "format_silhouette_across_seeds",
]
