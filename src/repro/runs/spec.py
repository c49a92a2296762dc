"""Declarative sweep grids and content-hashed run keys.

A :class:`SweepSpec` names a grid of independent experiment cells —
method x dataset x :class:`~repro.eval.harness.NonIIDSetting` x seed x
override variant — exactly the structure of the paper's artifacts
(Table I is 3 methods x 4 regularizer toggles; Fig. 3 is 20 methods per
panel).  :meth:`SweepSpec.cells` expands the grid into :class:`RunKey`
objects in a deterministic order, and :func:`outcome_from_records` reads
one seed of a single-panel grid back from its cell records.

A :class:`RunKey` is the unit of work and the unit of storage: its
``fingerprint`` is a SHA-256 content hash of everything that determines
the cell's *result* — and nothing that doesn't.  Execution knobs
(``backend``/``workers``/``client_batch``) are excluded because the
engines are bitwise-deterministic, and the cosmetic ``variant`` label is
excluded because two labels with identical overrides denote the same
computation.  That is what makes resume safe: a killed sweep relaunched
under a different scheduler still recognizes every finished cell.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from dataclasses import asdict

from ..eval.harness import ExperimentOutcome, NonIIDSetting
from ..eval.metrics import fairness_report
from ..fl.config import AvailabilitySpec, FederatedConfig
from ..fl.history import RunResult
from .serialize import (
    canonical_json,
    config_from_jsonable,
    config_to_jsonable,
    setting_from_jsonable,
    setting_to_jsonable,
    to_jsonable,
)

__all__ = ["RunKey", "SweepVariant", "SweepSpec", "FINGERPRINT_LENGTH",
           "outcome_from_records"]

FINGERPRINT_LENGTH = 16
"""Hex digits kept from the SHA-256 digest (64 bits — ample for any grid)."""


@dataclass
class RunKey:
    """One experiment cell: a single method on a single workload and seed.

    ``overrides`` are the method's fully-merged keyword overrides (base
    sweep overrides + variant overrides); ``variant`` is the cosmetic
    label of the override point that produced them.

    ``extras`` carries executor-specific parameters that change the
    cell's *record* without changing the training run — the embedding
    figures put their t-SNE/sampling knobs here.  Extras are part of the
    fingerprint (two cells with different extras are different work),
    but an empty dict is omitted from the hashed payload so plain
    training cells keep the fingerprints they have always had.
    """

    dataset: str
    setting: NonIIDSetting
    method: str
    seed: int
    config: FederatedConfig
    variant: str = ""
    overrides: Dict = field(default_factory=dict)
    encoder: str = "mlp"
    encoder_width: int = 8
    encoder_hidden_dims: Tuple[int, ...] = (64, 32)
    dataset_kwargs: Dict = field(default_factory=dict)
    extras: Dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def semantic_payload(self) -> Dict:
        """Everything that determines the cell's result, JSON-typed.

        Execution knobs and the variant label are deliberately absent —
        see the module docstring.  ``extras`` appears only when
        non-empty, so pre-existing stores stay addressable.
        """
        payload = {
            "dataset": self.dataset,
            "setting": setting_to_jsonable(self.setting),
            "method": self.method,
            "seed": int(self.seed),
            "config": config_to_jsonable(self.config, include_execution=False),
            "overrides": to_jsonable(self.overrides),
            "encoder": self.encoder,
            "encoder_width": int(self.encoder_width),
            "encoder_hidden_dims": [int(dim) for dim in self.encoder_hidden_dims],
            "dataset_kwargs": to_jsonable(self.dataset_kwargs),
        }
        if self.extras:
            payload["extras"] = to_jsonable(self.extras)
        return payload

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256(canonical_json(self.semantic_payload()).encode())
        return digest.hexdigest()[:FINGERPRINT_LENGTH]

    def label(self) -> str:
        text = f"{self.dataset} {self.setting.label()} {self.method} seed={self.seed}"
        if self.variant:
            text += f" [{self.variant}]"
        return text

    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict:
        payload = self.semantic_payload()
        payload["variant"] = self.variant
        return payload

    @classmethod
    def from_jsonable(cls, payload: Dict) -> "RunKey":
        return cls(
            dataset=payload["dataset"],
            setting=setting_from_jsonable(payload["setting"]),
            method=payload["method"],
            seed=int(payload["seed"]),
            config=config_from_jsonable(payload["config"]),
            variant=payload.get("variant", ""),
            overrides=dict(payload.get("overrides", {})),
            encoder=payload.get("encoder", "mlp"),
            encoder_width=int(payload.get("encoder_width", 8)),
            encoder_hidden_dims=tuple(payload.get("encoder_hidden_dims", (64, 32))),
            dataset_kwargs=dict(payload.get("dataset_kwargs", {})),
            extras=dict(payload.get("extras", {})),
        )


@dataclass
class SweepVariant:
    """One point on the override axis of a sweep grid.

    ``overrides`` are merged *over* the sweep's base per-method overrides
    for whichever method the cell runs — Table I's four (L_n, L_p)
    toggles are four variants over the three Calibre methods.
    """

    label: str = ""
    overrides: Dict = field(default_factory=dict)


@dataclass
class SweepSpec:
    """A declarative grid of experiment cells.

    The grid is the cross product ``seeds x datasets x settings x
    availability x variants x methods``; :meth:`cells` expands it in
    exactly that nested order, which is the canonical ordering every
    report uses.  Each cell's config is reseeded to the cell's seed
    (``config.seed`` drives round sampling), so one ``SweepSpec`` covers
    multi-seed replication.

    ``availability`` is the population-plane axis: each point is ``None``
    (no availability model — the historical grid shape) or an
    :class:`~repro.fl.config.AvailabilitySpec` applied to the cell's
    config.  Like every semantic knob it hashes into the cell
    fingerprint; the default single-``None`` axis leaves all pre-existing
    fingerprints untouched.
    """

    name: str
    methods: Sequence[str]
    settings: Sequence[NonIIDSetting]
    datasets: Sequence[str] = ("cifar10",)
    seeds: Sequence[int] = (0,)
    config: Optional[FederatedConfig] = None
    variants: Sequence[SweepVariant] = (SweepVariant(),)
    availability: Sequence[Optional[AvailabilitySpec]] = (None,)
    method_overrides: Dict[str, Dict] = field(default_factory=dict)
    dataset_kwargs: Dict[str, Dict] = field(default_factory=dict)
    encoder: str = "mlp"
    encoder_width: int = 8
    encoder_hidden_dims: Sequence[int] = (64, 32)
    extras: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.methods = list(self.methods)
        self.settings = list(self.settings)
        self.datasets = list(self.datasets)
        self.seeds = [int(seed) for seed in self.seeds]
        self.variants = list(self.variants)
        if isinstance(self.availability, (AvailabilitySpec, dict)) \
                or self.availability is None:
            self.availability = [self.availability]
        self.availability = [
            AvailabilitySpec(**point) if isinstance(point, dict) else point
            for point in self.availability
        ]
        for point in self.availability:
            if point is not None and not isinstance(point, AvailabilitySpec):
                raise ValueError(
                    f"availability axis points must be None or "
                    f"AvailabilitySpec, got {point!r}")
        if self.config is None:
            self.config = FederatedConfig()
        if not self.name:
            raise ValueError("sweep name must be non-empty")
        for axis, label in ((self.methods, "methods"), (self.settings, "settings"),
                            (self.datasets, "datasets"), (self.seeds, "seeds"),
                            (self.variants, "variants"),
                            (self.availability, "availability")):
            if not axis:
                raise ValueError(f"sweep axis '{label}' must be non-empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")
        from ..eval.registry import available_methods

        unknown = [m for m in self.methods if m not in available_methods()]
        if unknown:
            raise KeyError(f"unknown methods {unknown}; "
                           f"available: {available_methods()}")
        # A repeated seed or method would list its cells twice, and a
        # repeated label would make two variants indistinguishable.
        for values, label in ((self.methods, "methods"), (self.seeds, "seeds"),
                              ([variant.label for variant in self.variants],
                               "variant labels")):
            if len(set(values)) != len(values):
                raise ValueError(f"{label} must be unique, got {values}")

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return (len(self.seeds) * len(self.datasets) * len(self.settings)
                * len(self.availability) * len(self.variants)
                * len(self.methods))

    def merged_overrides(self, method: str, variant: SweepVariant) -> Dict:
        return {**self.method_overrides.get(method, {}), **variant.overrides}

    def cells(self) -> List[RunKey]:
        """Expand the grid in canonical order (seed, dataset, setting,
        availability, variant, method) — the order is part of the
        subsystem's contract: reports index into it, and it never depends
        on completion order."""
        keys: List[RunKey] = []
        for seed in self.seeds:
            config = self.config.with_overrides(seed=seed)
            for dataset in self.datasets:
                kwargs = dict(self.dataset_kwargs.get(dataset, {}))
                for setting in self.settings:
                    for point in self.availability:
                        cell_config = (config if point is None else
                                       config.with_overrides(availability=point))
                        for variant in self.variants:
                            for method in self.methods:
                                keys.append(RunKey(
                                    dataset=dataset,
                                    setting=setting,
                                    method=method,
                                    seed=seed,
                                    config=cell_config,
                                    variant=variant.label,
                                    overrides=self.merged_overrides(method, variant),
                                    encoder=self.encoder,
                                    encoder_width=self.encoder_width,
                                    encoder_hidden_dims=tuple(self.encoder_hidden_dims),
                                    dataset_kwargs=kwargs,
                                    extras=dict(self.extras),
                                ))
        return keys

    def to_jsonable(self) -> Dict:
        payload = {
            "name": self.name,
            "methods": list(self.methods),
            "datasets": list(self.datasets),
            "settings": [setting_to_jsonable(s) for s in self.settings],
            "seeds": list(self.seeds),
            "config": config_to_jsonable(self.config, include_execution=False),
            "variants": [{"label": v.label, "overrides": to_jsonable(v.overrides)}
                         for v in self.variants],
            "method_overrides": to_jsonable(self.method_overrides),
            "dataset_kwargs": to_jsonable(self.dataset_kwargs),
            "encoder": self.encoder,
            "encoder_width": int(self.encoder_width),
            "encoder_hidden_dims": [int(d) for d in self.encoder_hidden_dims],
            "fingerprints": [key.fingerprint for key in self.cells()],
        }
        if self.availability != [None]:
            payload["availability"] = [
                None if point is None else asdict(point)
                for point in self.availability
            ]
        if self.extras:
            payload["extras"] = to_jsonable(self.extras)
        return payload


def outcome_from_records(sweep: SweepSpec, records: Sequence[Optional[Dict]],
                         seed: Optional[int] = None,
                         title: Optional[str] = None) -> ExperimentOutcome:
    """One seed of a single-panel sweep, reassembled from its cell records.

    The sweep must have exactly one dataset, setting, availability point,
    and variant (the Fig. 3/4 shape); ``seed`` defaults to the sweep's
    single seed and must be one of ``sweep.seeds`` otherwise.  ``records``
    are cell records, live from :func:`~repro.runs.run_sweep` or read back
    from a store; records of other seeds are skipped.  Fairness reports
    are *recomputed* from the accuracy vectors, so an outcome rebuilt from
    the store is bit-for-bit the one a live sweep yields.  ``title``
    defaults to the sweep's name.
    """
    if len(sweep.datasets) != 1 or len(sweep.settings) != 1 \
            or len(sweep.variants) != 1 or len(sweep.availability) != 1:
        raise ValueError(
            "outcome_from_records needs a single-panel sweep "
            f"(got {len(sweep.datasets)} datasets, {len(sweep.settings)} settings, "
            f"{len(sweep.availability)} availability points, "
            f"{len(sweep.variants)} variants)")
    if seed is None:
        if len(sweep.seeds) != 1:
            raise ValueError(f"pick one of seeds {sweep.seeds}")
        seed = sweep.seeds[0]
    elif seed not in sweep.seeds:
        raise ValueError(f"seed {seed} not in sweep seeds {sweep.seeds}")
    by_method: Dict[str, Dict] = {}
    for record in records:
        if record is None or record["key"]["seed"] != seed:
            continue
        method = record["key"]["method"]
        if method in by_method:
            # Two records of one method (say, two grids' records passed
            # together) would silently last-win into one outcome otherwise.
            raise ValueError(
                f"multiple records for method '{method}' at seed {seed}; "
                "pass exactly one record per method")
        by_method[method] = record
    missing = [method for method in sweep.methods if method not in by_method]
    if missing:
        raise KeyError(f"no stored records for methods {missing}; "
                       "run the sweep first (repro sweep)")
    results = {method: RunResult.from_json(by_method[method]["result"])
               for method in sweep.methods}
    return ExperimentOutcome(
        title=title or sweep.name,
        dataset=sweep.datasets[0],
        setting=sweep.settings[0],
        results=results,
        reports={method: fairness_report(result.accuracy_vector())
                 for method, result in results.items()},
        novel_reports={method: fairness_report(result.accuracy_vector(novel=True))
                       for method, result in results.items()
                       if result.novel_accuracies},
    )
