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
* ``fedper@process`` and ``calibre-simclr@process``: the process backend.

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

from repro.eval import available_methods  # noqa: E402
from repro.eval.harness import (ExperimentSpec, NonIIDSetting,  # noqa: E402
                                run_experiment)
from repro.fl import AvailabilitySpec, FederatedConfig  # noqa: E402

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


def print_rows(methods, suffix: str = "", **overrides) -> None:
    spec = ExperimentSpec(dataset="cifar10", setting=SETTING,
                          config=CONFIG.with_overrides(**overrides),
                          methods=methods, dataset_kwargs=DATASET_KWARGS)
    outcome = run_experiment(spec)
    for name in methods:
        print(f"{name}{suffix} {digest(outcome.results[name])}", flush=True)


def main() -> None:
    print_rows(available_methods())
    for suffix, methods, overrides in VARIANTS:
        print_rows(methods, "@" + suffix, **overrides)


if __name__ == "__main__":
    main()
