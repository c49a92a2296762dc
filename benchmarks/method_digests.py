"""Result digests of every registered method, for cross-commit checks.

Prints one line per row, ``<row> <sha256>``: the digest of the row's
``RunResult`` in the run store's canonical JSON encoding.  A change that
claims to leave results alone must print the same lines before and after.
The rows are:

* every registered method on a tiny Dirichlet federation (6 clients, 3
  novel clients, 2 rounds), serial backend, sync aggregation;
* ``calibre-simclr@buffered-churn``: buffered aggregation under
  availability churn, mid-round dropout and speed spread;
* ``fedavg@staleness``: staleness-weighted aggregation;
* ``fedper@process`` and ``calibre-simclr@process``: the process backend;
* ``pfl-simclr@smallconv``: a conv encoder, whose personalization
  features are encoded array by array;
* ``calibre-simclr@population``: a virtual population whose
  personalization chunks hold cohorts of three train/test shapes, so the
  MLP encoder's stacked feature forward runs several shape groups.

Usage::

    python benchmarks/method_digests.py > digests.txt
    git stash && python benchmarks/method_digests.py > before.txt; git stash pop
    diff before.txt digests.txt
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval import available_methods, build_method  # noqa: E402
from repro.eval.harness import (ExperimentSpec, NonIIDSetting,  # noqa: E402
                                make_dataset, make_encoder_factory,
                                run_experiment)
from repro.fl import (AvailabilitySpec, FederatedConfig,  # noqa: E402
                      TrainingSession, VirtualPopulation)

CONFIG = FederatedConfig(num_clients=6, clients_per_round=4, rounds=2,
                         local_epochs=1, batch_size=8,
                         personalization_epochs=2, test_fraction=0.3,
                         num_novel_clients=3, seed=0)
DATASET_KWARGS = dict(image_size=8, train_per_class=40, test_per_class=8)
SETTING = NonIIDSetting("dirichlet", 0.5, 40)
CHURN = AvailabilitySpec(availability=0.8, churn=0.3, dropout=0.2,
                         speed_spread=0.5)

# (row suffix, methods, config overrides)
VARIANTS = [
    ("buffered-churn", ["calibre-simclr"],
     dict(aggregation="buffered", aggregation_buffer=2, availability=CHURN)),
    ("staleness", ["fedavg"], dict(aggregation="staleness")),
    ("process", ["fedper", "calibre-simclr"], dict(backend="process", workers=2)),
]


def digest(result) -> str:
    text = json.dumps(result.to_json(), sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def print_rows(methods, suffix: str = "", encoder: str = "mlp",
               **overrides) -> None:
    spec = ExperimentSpec(dataset="cifar10", setting=SETTING,
                          config=CONFIG.with_overrides(**overrides),
                          methods=methods, dataset_kwargs=DATASET_KWARGS,
                          encoder=encoder)
    outcome = run_experiment(spec)
    for name in methods:
        print(f"{name}{suffix} {digest(outcome.results[name])}", flush=True)


def print_population_row() -> None:
    """Calibre over 24 virtual clients, personalized in chunks of 12."""
    config = CONFIG.with_overrides(num_clients=24, num_novel_clients=0)
    dataset = make_dataset("cifar10", seed=0, **DATASET_KWARGS)
    algorithm = build_method("calibre-simclr", config, dataset.num_classes,
                             make_encoder_factory("mlp", dataset))
    with VirtualPopulation(dataset, num_clients=24, samples_per_client=16,
                           classes_per_client=3,
                           test_fraction=config.test_fraction, seed=0,
                           max_resident=12) as population, \
            TrainingSession(algorithm, population, config) as session:
        session.run()
        result = session.personalize()
    print(f"calibre-simclr@population {digest(result)}", flush=True)


def main() -> None:
    print_rows(available_methods())
    for suffix, methods, overrides in VARIANTS:
        print_rows(methods, "@" + suffix, **overrides)
    print_rows(["pfl-simclr"], "@smallconv", encoder="smallconv")
    print_population_row()


if __name__ == "__main__":
    main()
