"""End-to-end experiment harness.

An :class:`ExperimentSpec` captures one panel of the paper's evaluation —
dataset, non-i.i.d. setting, federated configuration, and a method list —
and :func:`run_experiment` executes every method on *identical partitions*
(fresh client objects per method, so per-client algorithm state never
leaks between methods) and returns comparable summaries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..data.partition import partition_dirichlet, partition_quantity_label
from ..data.synthetic import (
    SyntheticImageDataset,
    make_cifar10_like,
    make_cifar100_like,
    make_stl10_like,
)
from ..fl.client import build_federation, build_novel_clients
from ..fl.config import FederatedConfig
from ..fl.history import RunResult
from ..fl.session import RoundCheckpointer, TrainingSession
from ..ioutil import safe_filename
from ..nn import MLPEncoder, SmallConvEncoder, resnet9, resnet18
from .metrics import FairnessReport, fairness_report
from .registry import build_method

__all__ = ["NonIIDSetting", "ExperimentSpec", "ExperimentOutcome", "run_experiment",
           "make_dataset", "make_encoder_factory", "make_partitions", "EncoderSpec",
           "checkpoint_path_for", "spec_context"]

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
class ExperimentSpec:
    """One comparison panel: dataset + setting + config + methods."""

    dataset: str
    setting: NonIIDSetting
    config: FederatedConfig
    methods: Sequence[str]
    encoder: str = "mlp"
    encoder_width: int = 8
    encoder_hidden_dims: Sequence[int] = (64, 32)
    dataset_kwargs: Dict = field(default_factory=dict)
    method_overrides: Dict[str, Dict] = field(default_factory=dict)
    seed: int = 0
    name: str = ""


@dataclass
class ExperimentOutcome:
    """All methods' results for one spec."""

    spec: ExperimentSpec
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


def checkpoint_path_for(checkpoint_dir: Union[str, Path], method: str) -> Path:
    """Where ``run_experiment`` checkpoints ``method`` under ``checkpoint_dir``."""
    return Path(checkpoint_dir) / f"{safe_filename(method)}.json"


def spec_context(spec: ExperimentSpec, method_name: str) -> str:
    """The session-context fingerprint for one method of a spec.

    Everything that determines the method's result goes in (the same
    philosophy as a :class:`~repro.runs.spec.RunKey` fingerprint, minus
    the execution knobs), so ``--resume`` against a checkpoint from a
    different dataset/setting/config/override grid fails loudly in
    ``TrainingSession.restore_state`` instead of silently reporting the
    stale run.
    """
    import hashlib
    import json

    config = {name: value for name, value in asdict(spec.config).items()
              if name not in ("backend", "workers", "client_batch")}
    payload = {
        "dataset": spec.dataset,
        "setting": [spec.setting.kind, float(spec.setting.parameter),
                    int(spec.setting.samples_per_client)],
        "config": config,
        "method": method_name,
        "overrides": spec.method_overrides.get(method_name, {}),
        "encoder": [spec.encoder, int(spec.encoder_width),
                    [int(dim) for dim in spec.encoder_hidden_dims]],
        "dataset_kwargs": spec.dataset_kwargs,
        "seed": int(spec.seed),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()).hexdigest()
    return digest[:16]


def run_experiment(spec: ExperimentSpec, verbose: bool = False,
                   backend: Optional[str] = None,
                   workers: Optional[int] = None,
                   client_batch: Optional[int] = None,
                   checkpoint_dir: Union[str, Path, None] = None,
                   resume: bool = False,
                   checkpoint_every: int = 1,
                   session_hook: Optional[Callable[[str, TrainingSession], None]]
                   = None) -> ExperimentOutcome:
    """Run every method of ``spec`` on identical data partitions.

    ``backend``/``workers`` override the spec's execution engine (see
    :mod:`repro.fl.execution`); results are identical across backends, only
    wall-clock time changes.

    ``checkpoint_dir`` enables round-level checkpointing: each method's
    :class:`~repro.fl.session.TrainingSession` writes its serialized
    :class:`~repro.fl.session.ServerState` to
    ``<checkpoint_dir>/<method>.json`` (atomically) every
    ``checkpoint_every`` completed rounds.  With ``resume=True`` an
    existing checkpoint is loaded first, so a killed run recomputes only
    the remaining rounds — and, because resume is bitwise exact, returns
    the same outcome the uninterrupted run would have.  ``session_hook``
    receives ``(method_name, session)`` right before training starts —
    the seam for attaching custom callbacks (eval cadence, early
    stopping, history streaming).
    """
    if backend is not None or workers is not None or client_batch is not None:
        spec = replace(spec, config=spec.config.with_overrides(
            **({"backend": backend} if backend is not None else {}),
            **({"workers": workers} if workers is not None else {}),
            **({"client_batch": client_batch} if client_batch is not None
               else {}),
        ))
    dataset = make_dataset(spec.dataset, seed=spec.seed, **spec.dataset_kwargs)
    partition_rng = np.random.default_rng(spec.seed + 1)
    partitions = make_partitions(
        dataset.train.labels, spec.config.num_clients, spec.setting, partition_rng
    )
    encoder_factory = make_encoder_factory(
        spec.encoder, dataset, width=spec.encoder_width,
        hidden_dims=tuple(spec.encoder_hidden_dims), seed=spec.seed + 42,
    )

    def novel_partition_fn(labels, num_clients, rng):
        novel_setting = replace(
            spec.setting,
            samples_per_client=min(
                spec.setting.samples_per_client, max(labels.shape[0] // num_clients, 4)
            ),
        )
        return make_partitions(labels, num_clients, novel_setting, rng)

    results: Dict[str, RunResult] = {}
    reports: Dict[str, FairnessReport] = {}
    novel_reports: Dict[str, FairnessReport] = {}
    for method_name in spec.methods:
        # Fresh clients per method: identical data, clean per-client stores.
        clients = build_federation(dataset, partitions,
                                   test_fraction=spec.config.test_fraction,
                                   seed=spec.seed + 2)
        novel_clients = build_novel_clients(
            dataset, spec.config.num_novel_clients, novel_partition_fn,
            test_fraction=spec.config.test_fraction, seed=spec.seed + 3,
        )
        algorithm = build_method(
            method_name, spec.config, dataset.num_classes, encoder_factory,
            **spec.method_overrides.get(method_name, {}),
        )
        session = TrainingSession(algorithm, clients, spec.config,
                                  novel_clients=novel_clients, verbose=verbose,
                                  context=spec_context(spec, method_name))
        if checkpoint_dir is not None:
            path = checkpoint_path_for(checkpoint_dir, method_name)
            if resume and path.is_file():
                session.load_checkpoint(path)
                if verbose and session.round_index > 0:
                    print(f"  [resume] {method_name} at round "
                          f"{session.round_index}/{spec.config.rounds}")
            session.add_callback(RoundCheckpointer(path, every=checkpoint_every))
        if session_hook is not None:
            session_hook(method_name, session)
        result = session.execute()
        results[method_name] = result
        reports[method_name] = fairness_report(result.accuracy_vector())
        if result.novel_accuracies:
            novel_reports[method_name] = fairness_report(
                result.accuracy_vector(novel=True)
            )
        if verbose:
            report = reports[method_name]
            print(f"  {method_name:20s} mean={report.mean:.4f} var={report.variance:.5f}")
    return ExperimentOutcome(spec=spec, results=results, reports=reports,
                             novel_reports=novel_reports)
