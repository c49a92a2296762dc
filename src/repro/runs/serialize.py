"""JSON serialization for the run store.

Everything the :mod:`repro.runs` subsystem persists goes through this
module: numpy-to-Python coercion, canonical (hash-stable) encodings, the
atomic write-then-rename primitive, and (de)serializers for the settings
and federated configs that cell keys carry.

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
from typing import Dict, List, Union

import numpy as np

from ..eval.harness import NonIIDSetting
from ..fl.config import (
    DEFAULT_OMITTED_FIELDS,
    EXECUTION_FIELDS,
    FINGERPRINTED_FIELDS,
    FederatedConfig,
)
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
]

RECORD_SCHEMA = 1
"""Version stamp written into every cell record."""

RETIRED_FIELDS = ("shared_memory",)
"""Execution knobs removed from ``FederatedConfig``.  Cell records written
before the removal still carry them; loading drops them, and since
execution knobs never reach a content hash, fingerprints and checkpoint
contexts are unchanged."""

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


def encode_record(record: Union[Dict, List[Dict]]) -> str:
    """The on-disk encoding: sorted keys, indented for greppability.

    A list of records (``repro run --out``) encodes the same way."""
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
