"""JSON serialization for the run store.

Everything the :mod:`repro.runs` subsystem persists goes through this
module: numpy-to-Python coercion, canonical (hash-stable) encodings, the
atomic write-then-rename primitive, and (de)serializers for the harness
types (:class:`~repro.eval.harness.ExperimentSpec`/``Outcome``,
:class:`~repro.fl.history.RunResult`, fairness reports).

Determinism contract
--------------------
Cell records must be *byte-identical* across reruns and schedulers, so
nothing written here may depend on wall-clock time, hostnames, process
ids (beyond temp-file names that are renamed away), or dict iteration
order: every encoder sorts keys, and floats round-trip exactly through
``repr`` (Python's ``json`` uses the shortest representation that parses
back to the same double).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..eval.harness import ExperimentOutcome, ExperimentSpec, NonIIDSetting
from ..eval.metrics import FairnessReport, fairness_report
from ..fl.config import (
    DEFAULT_OMITTED_FIELDS,
    EXECUTION_FIELDS,
    FINGERPRINTED_FIELDS,
    FederatedConfig,
)
from ..fl.history import RunResult
from ..ioutil import atomic_write_text

__all__ = [
    "RECORD_SCHEMA",
    "EXECUTION_FIELDS",
    "FINGERPRINTED_FIELDS",
    "DEFAULT_OMITTED_FIELDS",
    "SWEEP_FINGERPRINTED_FIELDS",
    "SWEEP_COSMETIC_FIELDS",
    "to_jsonable",
    "canonical_json",
    "encode_record",
    "atomic_write_text",
    "setting_to_jsonable",
    "setting_from_jsonable",
    "config_to_jsonable",
    "config_from_jsonable",
    "spec_to_jsonable",
    "spec_from_jsonable",
    "outcome_to_jsonable",
    "outcome_from_jsonable",
    "save_outcome",
    "load_outcome",
    "outcome_from_records",
]

RECORD_SCHEMA = 1
"""Version stamp written into every cell record and outcome file."""

RETIRED_FIELDS = ("shared_memory",)
"""Execution knobs removed from ``FederatedConfig``.  Run stores and outcome
files written before the removal still carry them; loading drops them, and
since execution knobs never reach a content hash, fingerprints and
checkpoint contexts are unchanged."""

SWEEP_FINGERPRINTED_FIELDS = (
    "methods", "settings", "datasets", "seeds", "config", "variants",
    "availability", "method_overrides", "dataset_kwargs", "encoder",
    "encoder_width", "encoder_hidden_dims", "extras",
)
"""``SweepSpec`` fields that flow into each expanded cell's hashed payload.
``variants`` is fingerprinted through its *overrides*; the cosmetic variant
labels are excluded by :meth:`~repro.runs.spec.RunKey.semantic_payload`."""

SWEEP_COSMETIC_FIELDS = ("name",)
"""``SweepSpec`` fields that never reach a fingerprint (labels only).
With :data:`SWEEP_FINGERPRINTED_FIELDS` this classifies every spec field —
enforced by the FPR002 invariant rule."""


def to_jsonable(value):
    """Recursively coerce numpy scalars/arrays (and tuples) to JSON types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return value


def canonical_json(payload) -> str:
    """The hash-stable encoding: sorted keys, no whitespace, exact floats."""
    return json.dumps(to_jsonable(payload), sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def encode_record(record: Dict) -> str:
    """The on-disk encoding: sorted keys, indented for greppability."""
    return json.dumps(to_jsonable(record), sort_keys=True, indent=2) + "\n"


# ``atomic_write_text`` moved to :mod:`repro.ioutil` (session checkpoints
# share the same write-then-rename discipline); re-exported here for
# compatibility via the import above.


# ----------------------------------------------------------------------
# Harness-type serializers
# ----------------------------------------------------------------------
def setting_to_jsonable(setting: NonIIDSetting) -> Dict:
    # ``parameter`` is coerced to float so quantity settings hash the same
    # whether built with 2 or 2.0.
    return {
        "kind": setting.kind,
        "parameter": float(setting.parameter),
        "samples_per_client": int(setting.samples_per_client),
    }


def setting_from_jsonable(payload: Dict) -> NonIIDSetting:
    return NonIIDSetting(payload["kind"], float(payload["parameter"]),
                         int(payload["samples_per_client"]))


_OMITTED_DEFAULTS = {
    field.name: field.default for field in dataclass_fields(FederatedConfig)
    if field.name in DEFAULT_OMITTED_FIELDS
}


def config_to_jsonable(config: FederatedConfig, include_execution: bool = True) -> Dict:
    payload = to_jsonable(asdict(config))
    if not include_execution:
        for name in EXECUTION_FIELDS:
            payload.pop(name, None)
    # Population-plane knobs serialize only when set: a default-valued
    # knob must keep old fingerprints/checkpoint contexts byte-stable.
    # (asdict turns a set AvailabilitySpec into a dict != None, so it
    # survives; config_from_jsonable coerces it back.)
    for name, default in _OMITTED_DEFAULTS.items():
        if name in payload and payload[name] == default:
            payload.pop(name)
    return payload


def config_from_jsonable(payload: Dict) -> FederatedConfig:
    # Execution fields may be absent (canonical form); defaults fill them in.
    return FederatedConfig(**{name: value for name, value in payload.items()
                              if name not in RETIRED_FIELDS})


def spec_to_jsonable(spec: ExperimentSpec) -> Dict:
    return {
        "dataset": spec.dataset,
        "setting": setting_to_jsonable(spec.setting),
        "config": config_to_jsonable(spec.config),
        "methods": list(spec.methods),
        "encoder": spec.encoder,
        "encoder_width": int(spec.encoder_width),
        "encoder_hidden_dims": [int(dim) for dim in spec.encoder_hidden_dims],
        "dataset_kwargs": to_jsonable(spec.dataset_kwargs),
        "method_overrides": to_jsonable(spec.method_overrides),
        "seed": int(spec.seed),
        "name": spec.name,
    }


def spec_from_jsonable(payload: Dict) -> ExperimentSpec:
    return ExperimentSpec(
        dataset=payload["dataset"],
        setting=setting_from_jsonable(payload["setting"]),
        config=config_from_jsonable(payload["config"]),
        methods=list(payload["methods"]),
        encoder=payload.get("encoder", "mlp"),
        encoder_width=int(payload.get("encoder_width", 8)),
        encoder_hidden_dims=tuple(payload.get("encoder_hidden_dims", (64, 32))),
        dataset_kwargs=dict(payload.get("dataset_kwargs", {})),
        method_overrides={k: dict(v)
                          for k, v in payload.get("method_overrides", {}).items()},
        seed=int(payload.get("seed", 0)),
        name=payload.get("name", ""),
    )


def outcome_to_jsonable(outcome: ExperimentOutcome) -> Dict:
    payload = {
        "schema": RECORD_SCHEMA,
        "spec": spec_to_jsonable(outcome.spec),
        "results": {name: result.to_json()
                    for name, result in outcome.results.items()},
        "reports": {name: to_jsonable(report.as_dict())
                    for name, report in outcome.reports.items()},
    }
    if outcome.novel_reports:
        payload["novel_reports"] = {name: to_jsonable(report.as_dict())
                                    for name, report in outcome.novel_reports.items()}
    return payload


def outcome_from_jsonable(payload: Dict) -> ExperimentOutcome:
    return ExperimentOutcome(
        spec=spec_from_jsonable(payload["spec"]),
        results={name: RunResult.from_json(result)
                 for name, result in payload["results"].items()},
        reports={name: FairnessReport.from_dict(report)
                 for name, report in payload["reports"].items()},
        novel_reports={name: FairnessReport.from_dict(report)
                       for name, report in payload.get("novel_reports", {}).items()},
    )


def save_outcome(outcome: ExperimentOutcome, path: Union[str, Path]) -> Path:
    """Persist one ``ExperimentOutcome`` as JSON (``repro run --out``)."""
    return atomic_write_text(path, encode_record(outcome_to_jsonable(outcome)))


def load_outcome(path: Union[str, Path]) -> ExperimentOutcome:
    with open(path) as stream:
        return outcome_from_jsonable(json.load(stream))


def outcome_from_records(spec: ExperimentSpec,
                         records: Sequence[Optional[Dict]]) -> ExperimentOutcome:
    """Reassemble a multi-method ``ExperimentOutcome`` from cell records.

    ``records`` are store records (one per method of ``spec``); fairness
    reports are *recomputed* from the stored accuracy vectors rather than
    read back, so an outcome rebuilt from the store is bit-for-bit what
    :func:`~repro.eval.harness.run_experiment` would have returned.
    """
    results: Dict[str, RunResult] = {}
    reports: Dict[str, FairnessReport] = {}
    novel_reports: Dict[str, FairnessReport] = {}
    missing: List[str] = []
    by_method: Dict[str, Dict] = {}
    for record in records:
        if record is None:
            continue
        method = record["key"]["method"]
        if method in by_method:
            # Records spanning seeds/variants would silently last-win into
            # one outcome otherwise — make the caller slice first.
            raise ValueError(
                f"multiple records for method '{method}'; pass exactly one "
                "record per method (filter by seed/variant before assembling)")
        by_method[method] = record
    for method in spec.methods:
        record = by_method.get(method)
        if record is None:
            missing.append(method)
            continue
        result = RunResult.from_json(record["result"])
        results[method] = result
        reports[method] = fairness_report(result.accuracy_vector())
        if result.novel_accuracies:
            novel_reports[method] = fairness_report(result.accuracy_vector(novel=True))
    if missing:
        raise KeyError(f"no stored records for methods {missing}; "
                       f"run the sweep first (repro sweep)")
    return ExperimentOutcome(spec=spec, results=results, reports=reports,
                             novel_reports=novel_reports)
