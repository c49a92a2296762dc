"""Experiment settings: the paper's configurations and their CPU-scale twins.

The paper (§V-A) trains 100 clients for 200 rounds on CIFAR-10/100 and
STL-10 with a ResNet-18 encoder.  Pure-numpy training cannot reach that
scale in reasonable time, so every experiment here carries two
configurations:

* ``paper``  — the faithful setting (kept runnable for completeness);
* ``scaled`` — the benchmark default: fewer/smaller clients and rounds and
  a compact encoder, meant to keep the paper's comparative *shapes*;
  docs/reproduction.md ("Scale", "Encoder") records which shapes survive.

Both flow through identical code paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..eval.harness import NonIIDSetting
from ..fl.config import FederatedConfig
from ..runs import SweepSpec

__all__ = [
    "SCALED_CONFIG",
    "SCALED_DATASET_KWARGS",
    "FIG3_PANELS",
    "FIG4_PANELS",
    "COMPARISON_METHODS",
    "NOVEL_METHODS",
    "CALIBRE_OVERRIDES",
    "scaled_sweep",
]

SCALED_CONFIG = FederatedConfig(
    num_clients=20,
    clients_per_round=6,
    rounds=25,
    local_epochs=2,
    batch_size=32,
    personalization_epochs=10,
    personalization_lr=0.05,
    test_fraction=0.3,
    num_novel_clients=0,
    seed=0,
)

SCALED_DATASET_KWARGS: Dict[str, Dict] = {
    "cifar10": dict(image_size=12, train_per_class=100, test_per_class=16,
                    shift_range=5, noise_level=0.6, color_jitter=0.5, class_sep=1.2),
    "cifar100": dict(image_size=12, train_per_class=24, test_per_class=6,
                     num_classes=20, shift_range=5, noise_level=0.6,
                     color_jitter=0.5, class_sep=1.2),
    "stl10": dict(image_size=12, train_per_class=24, test_per_class=10,
                  unlabeled_size=1200, shift_range=5, noise_level=0.6,
                  color_jitter=0.5, class_sep=1.2),
}

# Calibre clusters each batch with k-means into num_prototypes clusters; the
# scaled cells fix 5 for their 32-sample batches.  No calibration backs the
# number yet (docs/reproduction.md, "Prototype count").
CALIBRE_OVERRIDES: Dict[str, Dict] = {
    f"calibre-{variant}": {"num_prototypes": 5}
    for variant in ("simclr", "byol", "simsiam", "mocov2", "swav", "smog")
}

# The method list of Fig. 3 (all 20 rows), trimmed of nothing.
COMPARISON_METHODS: List[str] = [
    "fedavg", "fedavg-ft", "script-fair", "script-convergent",
    "apfl", "ditto", "lg-fedavg", "fedper", "fedrep", "perfedavg",
    "scaffold", "scaffold-ft", "fedbabu", "fedema",
    "calibre-byol", "calibre-simsiam", "calibre-mocov2",
    "calibre-swav", "calibre-smog", "calibre-simclr",
]

# Fig. 4's method list (includes the uncalibrated pFL-SSL rows).
NOVEL_METHODS: List[str] = [
    "fedavg-ft", "script-convergent", "apfl", "lg-fedavg", "fedper",
    "fedrep", "fedbabu", "fedema", "pfl-mocov2", "pfl-simclr",
    "calibre-mocov2", "calibre-simclr",
]

# Fig. 3: four panels — (dataset, paper setting, scaled setting).
FIG3_PANELS = [
    ("cifar10", "Q-non-iid (2, 500)", NonIIDSetting("quantity", 2, 50)),
    ("cifar100", "Q-non-iid (5, 500)", NonIIDSetting("quantity", 5, 50)),
    ("stl10", "Q-non-iid (2, 46)", NonIIDSetting("quantity", 2, 30)),
    ("stl10", "D-non-iid (0.3, 80)", NonIIDSetting("dirichlet", 0.3, 30)),
]

# Fig. 4: two datasets under D-non-iid, plus novel clients.
FIG4_PANELS = [
    ("cifar10", "D-non-iid (0.3, 600)", NonIIDSetting("dirichlet", 0.3, 50)),
    ("cifar100", "D-non-iid (0.3, 500)", NonIIDSetting("dirichlet", 0.3, 50)),
]


def scaled_sweep(
    name: str,
    dataset: str,
    setting: NonIIDSetting,
    methods: Sequence[str],
    seeds: Sequence[int] = (0,),
    config: Optional[FederatedConfig] = None,
    dataset_kwargs: Optional[Dict] = None,
    method_overrides: Optional[Dict[str, Dict]] = None,
    **spec_overrides,
) -> SweepSpec:
    """Declare a one-workload grid at the scaled configuration.

    ``config`` defaults to :data:`SCALED_CONFIG`, ``dataset_kwargs``
    update the dataset's :data:`SCALED_DATASET_KWARGS`, and
    ``method_overrides`` replace :data:`CALIBRE_OVERRIDES` method by
    method.  ``spec_overrides`` (``variants``, ``encoder``, ``extras``,
    ...) pass through to the :class:`~repro.runs.SweepSpec`.
    """
    return SweepSpec(
        name=name,
        methods=list(methods),
        settings=[setting],
        datasets=[dataset],
        seeds=list(seeds),
        config=config if config is not None else SCALED_CONFIG,
        method_overrides={**CALIBRE_OVERRIDES, **(method_overrides or {})},
        dataset_kwargs={dataset: {**SCALED_DATASET_KWARGS[dataset],
                                  **(dataset_kwargs or {})}},
        **spec_overrides,
    )
