"""Golden-string tests for the text renderers in ``eval.reporting``.

The run-store acceptance contract is that ``repro report`` reproduces
these tables *byte-identically* from persisted records, so the exact
layout (column widths, sorting, toggle marks) is pinned here.
"""

import pytest

from repro.eval import (
    FairnessReport,
    fairness_report,
    format_ablation_table,
    format_comparison_table,
    format_report_table,
    format_series_csv,
)
from repro.eval.harness import ExperimentOutcome, NonIIDSetting
from repro.fl.history import RunResult


def tiny_outcome():
    results = {
        "alpha": RunResult(algorithm="alpha", accuracies={0: 0.5, 1: 1.0}),
        "beta": RunResult(algorithm="beta", accuracies={0: 0.5, 1: 0.5}),
    }
    reports = {name: fairness_report(result.accuracy_vector())
               for name, result in results.items()}
    return ExperimentOutcome(title="tiny", dataset="cifar10",
                             setting=NonIIDSetting("quantity", 2, 20),
                             results=results, reports=reports)


GOLDEN_REPORT_TABLE = (
    "golden title\n"
    "method                     mean   variance      std      min      max\n"
    "alpha                    0.7500    0.06250   0.2500   0.5000   1.0000\n"
    "beta                     0.5000    0.00000   0.0000   0.5000   0.5000"
)

GOLDEN_ABLATION_TABLE = (
    "Table I\n"
    " L_n  L_p                  a-method                  b-method\n"
    "                     30.00 ±  5.00             54.67 ±  1.23\n"
    "  ✓   ✓              40.00 ±  0.00             89.16 ±  0.10"
)


class TestFormatReportTable:
    def test_golden_string(self):
        reports = {"alpha": fairness_report([0.5, 1.0]),
                   "beta": fairness_report([0.5, 0.5])}
        assert format_report_table(reports, "golden title") == GOLDEN_REPORT_TABLE

    def test_sorted_by_descending_mean(self):
        reports = {"low": fairness_report([0.1]), "high": fairness_report([0.9])}
        lines = format_report_table(reports, "t").splitlines()
        assert lines[2].startswith("high") and lines[3].startswith("low")

    def test_comparison_table_delegates(self):
        outcome = tiny_outcome()
        assert format_comparison_table(outcome, title="golden title") \
            == GOLDEN_REPORT_TABLE

    def test_comparison_table_default_title(self):
        table = format_comparison_table(tiny_outcome())
        assert table.splitlines()[0] == "cifar10 (2, 20)"

    def test_report_round_trips_through_dict(self):
        report = fairness_report([0.25, 0.5, 1.0])
        assert FairnessReport.from_dict(report.as_dict()) == report


class TestFormatAblationTable:
    def test_golden_string(self):
        rows = [
            {"ln": False, "lp": False,
             "results": {"b-method": (0.5467, 0.0123), "a-method": (0.3, 0.05)}},
            {"ln": True, "lp": True,
             "results": {"b-method": (0.8916, 0.001), "a-method": (0.4, 0.0)}},
        ]
        assert format_ablation_table(rows) == GOLDEN_ABLATION_TABLE

    def test_variant_columns_sorted_by_name(self):
        rows = [{"ln": False, "lp": False, "results": {"zz": (0.1, 0.0),
                                                       "aa": (0.2, 0.0)}}]
        header = format_ablation_table(rows).splitlines()[1]
        assert header.index("aa") < header.index("zz")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            format_ablation_table([])

    def test_custom_title(self):
        rows = [{"ln": True, "lp": False, "results": {"m": (0.5, 0.1)}}]
        assert format_ablation_table(rows, title="T [seed 3]").splitlines()[0] \
            == "T [seed 3]"


class TestFormatSeriesCsv:
    def test_golden_string(self):
        csv = format_series_csv(tiny_outcome())
        assert csv == ("method,mean_accuracy,accuracy_variance\n"
                       "alpha,0.750000,0.06250000\n"
                       "beta,0.500000,0.00000000")
