"""Tests for eval metrics, the harness, reporting, and viz."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    NonIIDSetting,
    accuracy_variance,
    fairness_report,
    format_comparison_table,
    format_ablation_table,
    format_series_csv,
    make_dataset,
    make_encoder_factory,
    make_partitions,
    mean_accuracy,
)
from repro.fl import FederatedConfig
from repro.runs import SweepSpec, outcome_from_records, run_sweep
from repro.viz import ascii_scatter, points_to_csv


class TestMetrics:
    def test_mean_and_variance(self):
        accs = [0.4, 0.6, 0.8]
        assert mean_accuracy(accs) == pytest.approx(0.6)
        assert accuracy_variance(accs) == pytest.approx(np.var(accs))

    def test_report_fields(self):
        report = fairness_report([0.2, 0.4, 0.6, 0.8])
        assert report.minimum == pytest.approx(0.2)
        assert report.maximum == pytest.approx(0.8)
        assert report.fairness_gap == pytest.approx(0.6)
        assert report.worst_decile_mean == pytest.approx(0.2)
        assert report.num_clients == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_accuracy([])
        with pytest.raises(ValueError):
            fairness_report([1.2])
        with pytest.raises(ValueError):
            fairness_report([-0.1])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_property_bounds(self, accs):
        report = fairness_report(accs)
        assert 0.0 <= report.mean <= 1.0
        assert report.variance >= 0.0
        assert report.minimum <= report.mean <= report.maximum
        assert report.worst_decile_mean <= report.mean + 1e-12


class TestNonIIDSetting:
    def test_labels(self):
        assert NonIIDSetting("quantity", 2, 500).label() == "(2, 500)"
        assert NonIIDSetting("dirichlet", 0.3, 600).label() == "(0.3, 600)"

    def test_validation(self):
        with pytest.raises(ValueError):
            NonIIDSetting("bogus", 1, 100)
        with pytest.raises(ValueError):
            NonIIDSetting("quantity", 1, 2)
        for parameter, samples in ((4, 4), (5, 5), (5, 4), (6.0, 6)):
            with pytest.raises(ValueError):
                NonIIDSetting("quantity", parameter, samples)
        with pytest.raises(ValueError, match="must exceed the 5 classes"):
            NonIIDSetting("quantity", 5, 5)
        NonIIDSetting("quantity", 5, 6)  # S+1: one class gets two samples
        NonIIDSetting("dirichlet", 5, 5)  # the bound is S's, not alpha's
        for parameter in (0, -2, 2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="classes per client"):
                NonIIDSetting("quantity", parameter, 10)
        for parameter in (0, -0.3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="concentration"):
                NonIIDSetting("dirichlet", parameter, 10)

    def test_integral_float_s_partitions_as_its_integer(self):
        # The CLI parses --param as a float: S=2.0 is the setting S=2.
        labels = np.repeat(np.arange(4), 30)
        as_float = NonIIDSetting("quantity", 2.0, 10)
        assert as_float.label() == "(2, 10)"
        for part, expected in zip(
                make_partitions(labels, 4, as_float, np.random.default_rng(0)),
                make_partitions(labels, 4, NonIIDSetting("quantity", 2, 10),
                                np.random.default_rng(0))):
            np.testing.assert_array_equal(part, expected)

    def test_iid_ignores_the_parameter(self):
        labels = np.repeat(np.arange(4), 30)
        zero = NonIIDSetting("iid", 0, 10)
        assert zero.label() == "(iid, 10)"
        for part, expected in zip(
                make_partitions(labels, 4, zero, np.random.default_rng(0)),
                make_partitions(labels, 4, NonIIDSetting("iid", 2, 10),
                                np.random.default_rng(0))):
            np.testing.assert_array_equal(part, expected)

    def test_make_partitions_dispatch(self):
        labels = np.repeat(np.arange(4), 30)
        rng = np.random.default_rng(0)
        for kind, param in [("quantity", 2), ("dirichlet", 0.3), ("iid", 0)]:
            parts = make_partitions(labels, 4,
                                    NonIIDSetting(kind, param, 10), rng)
            assert len(parts) == 4


class TestHarnessPieces:
    def test_make_dataset_dispatch(self):
        dataset = make_dataset("cifar10", image_size=8, train_per_class=4,
                               test_per_class=2)
        assert dataset.num_classes == 10
        with pytest.raises(KeyError):
            make_dataset("imagenet")

    def test_make_encoder_factory_kinds(self):
        dataset = make_dataset("cifar10", image_size=8, train_per_class=4,
                               test_per_class=2)
        for kind in ("mlp", "smallconv", "resnet9"):
            factory = make_encoder_factory(kind, dataset, width=4,
                                           hidden_dims=(16, 8))
            encoder = factory()
            assert hasattr(encoder, "feature_dim")
        with pytest.raises(KeyError):
            make_encoder_factory("transformer", dataset)

    def test_encoder_factory_replicas_identical(self):
        dataset = make_dataset("cifar10", image_size=8, train_per_class=4,
                               test_per_class=2)
        factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8))
        a, b = factory(), factory()
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(),
                                              b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)


def run_outcome(methods, novel=0, rounds=2, samples=30, hidden_dims=(24, 12),
                train_per_class=24, personalization_epochs=3):
    """A tiny one-seed sweep, run store-less, as an ExperimentOutcome."""
    config = FederatedConfig(num_clients=4, clients_per_round=2, rounds=rounds,
                             local_epochs=1, batch_size=16,
                             personalization_epochs=personalization_epochs,
                             num_novel_clients=novel, seed=0)
    sweep = SweepSpec(
        name="tiny",
        methods=methods,
        settings=[NonIIDSetting("dirichlet", 0.5, samples)],
        config=config,
        encoder_hidden_dims=hidden_dims,
        dataset_kwargs={"cifar10": dict(image_size=8,
                                        train_per_class=train_per_class,
                                        test_per_class=4)},
    )
    summary = run_sweep(sweep)
    return outcome_from_records(sweep, summary.records)


class TestRunSweepOutcome:
    def test_runs_multiple_methods_on_same_partitions(self):
        outcome = run_outcome(["fedavg", "script-fair"])
        assert set(outcome.results) == {"fedavg", "script-fair"}
        assert set(outcome.reports) == {"fedavg", "script-fair"}
        fa = outcome.results["fedavg"]
        sf = outcome.results["script-fair"]
        assert sorted(fa.accuracies) == sorted(sf.accuracies)

    def test_series_rows(self):
        outcome = run_outcome(["fedavg"])
        series = outcome.series()
        assert series[0]["method"] == "fedavg"
        assert 0.0 <= series[0]["mean"] <= 1.0

    def test_novel_reports_present(self):
        outcome = run_outcome(["fedavg-ft"], novel=2)
        assert "fedavg-ft" in outcome.novel_reports


class TestReporting:
    def run_outcome(self):
        return run_outcome(["script-fair"], rounds=1, samples=20,
                           hidden_dims=(16, 8), train_per_class=16,
                           personalization_epochs=2)

    def test_comparison_table_contains_method(self):
        table = format_comparison_table(self.run_outcome())
        assert "script-fair" in table
        assert "variance" in table

    def test_series_csv(self):
        csv = format_series_csv(self.run_outcome())
        lines = csv.splitlines()
        assert lines[0] == "method,mean_accuracy,accuracy_variance"
        assert lines[1].startswith("script-fair,")

    def test_ablation_table(self):
        rows = [
            {"ln": False, "lp": False, "results": {"calibre-simclr": (0.5467, 0.1432)}},
            {"ln": True, "lp": True, "results": {"calibre-simclr": (0.8916, 0.1058)}},
        ]
        table = format_ablation_table(rows)
        assert "calibre-simclr" in table
        assert "54.67" in table
        assert "89.16" in table
        with pytest.raises(ValueError):
            format_ablation_table([])


class TestViz:
    def test_ascii_scatter_shapes(self):
        points = np.random.default_rng(0).standard_normal((30, 2))
        labels = np.arange(30) % 3
        art = ascii_scatter(points, labels, width=20, height=10, title="demo")
        lines = art.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 13  # title + top border + 10 rows + bottom border
        assert all(len(line) == 22 for line in lines[1:])

    def test_ascii_scatter_validation(self):
        with pytest.raises(ValueError):
            ascii_scatter(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            ascii_scatter(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ascii_scatter(np.zeros((3, 2)), width=2)

    def test_points_to_csv(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        csv = points_to_csv(points, labels=np.array([0, 1]),
                            extra={"client": np.array([7, 8])})
        lines = csv.splitlines()
        assert lines[0] == "x,y,label,client"
        assert len(lines) == 3
        with pytest.raises(ValueError):
            points_to_csv(points, extra={"bad": np.zeros(5)})
