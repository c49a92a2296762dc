"""Experiment building blocks and the panel types of the evaluation.

The builders here — :func:`make_dataset`, :func:`make_partitions` and
:func:`make_encoder_factory` — are what :func:`repro.runs.execute_cell`
assembles one cell from.  An :class:`ExperimentOutcome` holds one panel's
comparable per-method results (one dataset, one non-i.i.d. setting, one
seed), reassembled from cell records by
:func:`repro.runs.outcome_from_records`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..data.partition import partition_dirichlet, partition_quantity_label
from ..data.synthetic import (
    SyntheticImageDataset,
    make_cifar10_like,
    make_cifar100_like,
    make_stl10_like,
)
from ..fl.history import RunResult
from ..nn import MLPEncoder, SmallConvEncoder, resnet9, resnet18
from .metrics import FairnessReport

__all__ = ["NonIIDSetting", "ExperimentOutcome",
           "make_dataset", "make_encoder_factory", "make_partitions", "EncoderSpec"]

DATASET_FACTORIES = {
    "cifar10": make_cifar10_like,
    "cifar100": make_cifar100_like,
    "stl10": make_stl10_like,
}

ENCODER_KINDS = ("mlp", "smallconv", "resnet9", "resnet18")


@dataclass(frozen=True)
class NonIIDSetting:
    """The paper's ``(S, #samples)`` / ``(0.3, #samples)`` notation.

    ``kind`` is "quantity" (Q-non-i.i.d.) or "dirichlet" (D-non-i.i.d.);
    ``parameter`` is S (classes per client) or the Dirichlet concentration.
    """

    kind: str
    parameter: float
    samples_per_client: int

    def __post_init__(self):
        if self.kind not in ("quantity", "dirichlet", "iid"):
            raise ValueError(f"unknown non-iid kind '{self.kind}'")
        if self.samples_per_client < 4:
            raise ValueError("samples_per_client must be >= 4")

    def label(self) -> str:
        if self.kind == "quantity":
            return f"({int(self.parameter)}, {self.samples_per_client})"
        if self.kind == "dirichlet":
            return f"({self.parameter}, {self.samples_per_client})"
        return f"(iid, {self.samples_per_client})"


def make_partitions(labels: np.ndarray, num_clients: int, setting: NonIIDSetting,
                    rng: np.random.Generator) -> List[np.ndarray]:
    if setting.kind == "quantity":
        return partition_quantity_label(
            labels, num_clients, int(setting.parameter),
            samples_per_client=setting.samples_per_client, rng=rng,
        )
    if setting.kind == "dirichlet":
        return partition_dirichlet(
            labels, num_clients, setting.parameter,
            samples_per_client=setting.samples_per_client, rng=rng,
        )
    from ..data.partition import partition_iid

    return partition_iid(labels, num_clients, rng,
                         samples_per_client=setting.samples_per_client)


def make_dataset(name: str, seed: int = 0, **kwargs) -> SyntheticImageDataset:
    key = name.lower()
    if key not in DATASET_FACTORIES:
        raise KeyError(f"unknown dataset '{name}'; available: {sorted(DATASET_FACTORIES)}")
    return DATASET_FACTORIES[key](seed=seed, **kwargs)


@dataclass(frozen=True)
class EncoderSpec:
    """Picklable zero-argument encoder constructor for a chosen backbone.

    Satisfies the :data:`repro.ssl.EncoderFactory` callable protocol.
    Algorithms hold their encoder factory, and the process execution
    backend ships algorithms to workers by pickle — so the factory is a
    plain dataclass rather than a closure.  Each call reseeds its own
    generator so all model replicas (online/target/key networks) start
    from identical weights.
    """

    kind: str
    channels: int
    image_size: int
    width: int = 8
    hidden_dims: Sequence[int] = (64, 32)
    seed: int = 42

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise KeyError(f"unknown encoder '{self.kind}'; available: {ENCODER_KINDS}")

    def __call__(self):
        rng = np.random.default_rng(self.seed)
        if self.kind == "mlp":
            input_dim = self.channels * self.image_size * self.image_size
            return MLPEncoder(input_dim, hidden_dims=tuple(self.hidden_dims), rng=rng)
        if self.kind == "smallconv":
            return SmallConvEncoder(in_channels=self.channels, width=self.width, rng=rng)
        if self.kind == "resnet9":
            return resnet9(width=self.width, in_channels=self.channels, rng=rng)
        return resnet18(width=self.width, in_channels=self.channels, rng=rng)


def make_encoder_factory(kind: str, dataset: SyntheticImageDataset,
                         width: int = 8, hidden_dims=(64, 32), seed: int = 42
                         ) -> EncoderSpec:
    """Build a picklable encoder factory for the chosen backbone."""
    return EncoderSpec(
        kind=kind.lower(),
        channels=dataset.channels,
        image_size=dataset.image_size,
        width=width,
        hidden_dims=tuple(hidden_dims),
        seed=seed,
    )


@dataclass
class ExperimentOutcome:
    """All methods' results for one panel: one dataset, setting and seed."""

    title: str
    dataset: str
    setting: NonIIDSetting
    results: Dict[str, RunResult]
    reports: Dict[str, FairnessReport]
    novel_reports: Dict[str, FairnessReport] = field(default_factory=dict)

    def series(self, novel: bool = False) -> List[Dict]:
        """Rows of (method, mean, variance) — the paper's scatter series."""
        source = self.novel_reports if novel else self.reports
        return [
            {"method": name, "mean": report.mean, "variance": report.variance}
            for name, report in source.items()
        ]
