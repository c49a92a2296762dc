"""Fixture corpus for FPR001/FPR002 (fingerprint field classification).

These are project-level rules, so each case builds a minimal in-memory
project: FPR001 reads the config dataclass and its classification tuples
from one module, FPR002 the sweep dataclass and the serialize module.
"""

from pathlib import Path

from repro.analysis import Project
from repro.analysis.project import parse_snippet
from repro.analysis.registry import RULES

from .helpers import rule_ids

CONFIG_REL = "src/repro/fl/config.py"
SPEC_REL = "src/repro/runs/spec.py"
SERIALIZE_REL = "src/repro/runs/serialize.py"


def _project(*sources):
    return Project(root=Path("."), files=[parse_snippet(rel, text)
                                          for rel, text in sources])


def _check(rule_id, *sources):
    return list(RULES[rule_id].check_project(_project(*sources)))


CONFIG_TWO_FIELDS = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class FederatedConfig:\n"
    "    rounds: int = 5\n"
    "    backend: str = 'serial'\n"
)


class TestFpr001ConfigClassification:
    def test_flags_unclassified_field(self):
        found = _check(
            "FPR001",
            (CONFIG_REL, CONFIG_TWO_FIELDS.replace(
                "    backend: str = 'serial'\n",
                "    backend: str = 'serial'\n    shiny_new_knob: int = 0\n")
             + "FINGERPRINTED_FIELDS = ('rounds',)\n"
               "EXECUTION_FIELDS = ('backend',)\n"),
        )
        assert rule_ids(found) == ["FPR001"]
        assert "shiny_new_knob" in found[0].message

    def test_flags_stale_entry(self):
        found = _check(
            "FPR001",
            (CONFIG_REL, CONFIG_TWO_FIELDS
             + "FINGERPRINTED_FIELDS = ('rounds', 'renamed_away')\n"
               "EXECUTION_FIELDS = ('backend',)\n"),
        )
        assert rule_ids(found) == ["FPR001"]
        assert "renamed_away" in found[0].message

    def test_flags_double_classification(self):
        found = _check(
            "FPR001",
            (CONFIG_REL, CONFIG_TWO_FIELDS
             + "FINGERPRINTED_FIELDS = ('rounds', 'backend')\n"
               "EXECUTION_FIELDS = ('backend',)\n"),
        )
        assert rule_ids(found) == ["FPR001"]
        assert "both" in found[0].message

    def test_flags_missing_surface(self):
        # A tuple declared anywhere but beside the dataclass does not count.
        found = _check(
            "FPR001",
            (CONFIG_REL, CONFIG_TWO_FIELDS + "EXECUTION_FIELDS = ('backend',)\n"),
            (SERIALIZE_REL, "FINGERPRINTED_FIELDS = ('rounds',)\n"),
        )
        assert rule_ids(found) == ["FPR001"]
        assert "FINGERPRINTED_FIELDS" in found[0].message
        assert "repro.fl.config" in found[0].message

    def test_near_miss_fully_classified(self):
        found = _check(
            "FPR001",
            (CONFIG_REL, CONFIG_TWO_FIELDS
             + "FINGERPRINTED_FIELDS = ('rounds',)\n"
               "EXECUTION_FIELDS = ('backend',)\n"),
        )
        assert found == []

    def test_near_miss_partial_tree(self):
        # Fixture projects for other rule families never define the
        # config module; the rule must stay silent, not crash.
        assert _check("FPR001", (SERIALIZE_REL, "X = 1\n")) == []


class TestFpr002SweepClassification:
    SPEC = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class SweepSpec:\n"
        "    methods: tuple = ()\n"
        "    name: str = ''\n"
    )

    def test_flags_unclassified_field(self):
        found = _check(
            "FPR002",
            (SPEC_REL, self.SPEC.replace(
                "    name: str = ''\n",
                "    name: str = ''\n    notes: str = ''\n")),
            (SERIALIZE_REL,
             "SWEEP_FINGERPRINTED_FIELDS = ('methods',)\n"
             "SWEEP_COSMETIC_FIELDS = ('name',)\n"),
        )
        assert rule_ids(found) == ["FPR002"]
        assert "notes" in found[0].message

    def test_near_miss_fully_classified(self):
        found = _check(
            "FPR002",
            (SPEC_REL, self.SPEC),
            (SERIALIZE_REL,
             "SWEEP_FINGERPRINTED_FIELDS = ('methods',)\n"
             "SWEEP_COSMETIC_FIELDS = ('name',)\n"),
        )
        assert found == []
