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
* ``fedper@process``, ``calibre-simclr@process``, ``scaffold@process``
  and ``lg-fedavg@process``: the process backend, whose workers keep one
  resident algorithm and load SCAFFOLD's server control variate into it
  every round; LG-FedAvg's personalization on a worker encodes with the
  local encoder that ships in the task's client store;
* ``pfl-simclr@smallconv``: a conv encoder, whose personalization
  features are encoded array by array;
* ``calibre-simclr@resnet9``: a residual conv encoder (stride-2 1x1
  shortcuts and residual adds) under Calibre's per-client loss, so the
  conv VJP runs inside the prototype-regularized step;
* ``calibre-simclr@population``: a virtual population whose
  personalization chunks hold cohorts of three train/test shapes, so the
  MLP encoder's stacked feature forward runs several shape groups.

The committed ``benchmarks/method_digests.txt`` holds the current rows,
and CI regenerates and diffs it.  A change that moves a result
regenerates the file in the same commit and names the rows it moved.

Usage::

    python benchmarks/method_digests.py | diff benchmarks/method_digests.txt -
    python benchmarks/method_digests.py > benchmarks/method_digests.txt
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval import available_methods, build_method  # noqa: E402
from repro.eval.harness import (NonIIDSetting, make_dataset,  # noqa: E402
                                make_encoder_factory)
from repro.fl import (AvailabilitySpec, FederatedConfig,  # noqa: E402
                      TrainingSession, VirtualPopulation)
from repro.runs import SweepSpec, run_sweep  # noqa: E402

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
    ("process", ["fedper", "calibre-simclr", "scaffold", "lg-fedavg"],
     dict(backend="process", workers=2)),
]


def digest(result_json) -> str:
    """sha256 of a ``RunResult.to_json()`` payload."""
    text = json.dumps(result_json, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def print_rows(methods, suffix: str = "", encoder: str = "mlp",
               **overrides) -> None:
    sweep = SweepSpec(name="digests", methods=methods, settings=[SETTING],
                      config=CONFIG.with_overrides(**overrides),
                      dataset_kwargs={"cifar10": DATASET_KWARGS},
                      encoder=encoder)
    summary = run_sweep(sweep)
    for key, record in zip(summary.cells, summary.records):
        print(f"{key.method}{suffix} {digest(record['result'])}", flush=True)


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
    print(f"calibre-simclr@population {digest(result.to_json())}", flush=True)


def main() -> None:
    print_rows(available_methods())
    for suffix, methods, overrides in VARIANTS:
        print_rows(methods, "@" + suffix, **overrides)
    print_rows(["pfl-simclr"], "@smallconv", encoder="smallconv")
    print_rows(["calibre-simclr"], "@resnet9", encoder="resnet9")
    print_population_row()


if __name__ == "__main__":
    main()
