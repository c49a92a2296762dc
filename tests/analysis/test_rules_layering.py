"""Fixture corpus for LAY001/LAY002 (import layering)."""

from .helpers import rule_diagnostics, rule_ids


class TestLay001LayerMap:
    def test_flags_upward_import(self):
        # repro.nn is a leaf: importing the FL stack inverts the layering.
        found = rule_diagnostics("LAY001", "src/repro/nn/layers_fix.py", (
            "from repro.fl.client import ClientData\n"
        ))
        assert rule_ids(found) == ["LAY001"]
        assert "repro.nn may not import repro.fl" in found[0].message

    def test_flags_relative_upward_import(self):
        found = rule_diagnostics("LAY001", "src/repro/data/loaders_fix.py", (
            "from ..fl.client import ClientData\n"
        ))
        assert rule_ids(found) == ["LAY001"]

    def test_flags_unclassified_package(self):
        found = rule_diagnostics("LAY001", "src/repro/brandnew/thing.py", (
            "x = 1\n"
        ))
        assert rule_ids(found) == ["LAY001"]
        assert "not classified" in found[0].message

    def test_near_miss_allowed_edge(self):
        found = rule_diagnostics("LAY001", "src/repro/fl/client_fix.py", (
            "from repro.nn.tensor import Tensor\n"
            "from ..data.partition import stratified_split\n"
        ))
        assert found == []

    def test_near_miss_intra_package_import(self):
        found = rule_diagnostics("LAY001", "src/repro/fl/server_fix.py", (
            "from .client import ClientData\n"
        ))
        assert found == []


class TestLay002StdlibOnly:
    def test_flags_numpy_in_ioutil(self):
        found = rule_diagnostics("LAY002", "src/repro/ioutil.py", (
            "import numpy as np\n"
        ))
        assert rule_ids(found) == ["LAY002"]
        assert "numpy" in found[0].message

    def test_flags_third_party_in_analysis(self):
        found = rule_diagnostics(
            "LAY002", "src/repro/analysis/rules/extra_fix.py",
            "import yaml\n")
        assert rule_ids(found) == ["LAY002"]

    def test_near_miss_stdlib_imports(self):
        found = rule_diagnostics("LAY002", "src/repro/ioutil.py", (
            "from __future__ import annotations\n"
            "import json\n"
            "import os\n"
            "from pathlib import Path\n"
        ))
        assert found == []

    def test_near_miss_numpy_outside_stdlib_only_scope(self):
        found = rule_diagnostics("LAY002", "src/repro/fl/client_fix.py", (
            "import numpy as np\n"
        ))
        assert found == []

    def test_flags_scipy_in_data(self):
        # numpy is the one runtime dependency: scipy is a test reference.
        found = rule_diagnostics("LAY002", "src/repro/data/synthetic_fix.py", (
            "from scipy import ndimage\n"
        ))
        assert rule_ids(found) == ["LAY002"]
        assert "repro.data may import only the stdlib and numpy" in found[0].message
        assert "scipy" in found[0].message

    def test_flags_lazy_third_party_import_in_function(self):
        found = rule_diagnostics("LAY002", "src/repro/viz/render_fix.py", (
            "def render():\n"
            "    import matplotlib.pyplot as plt\n"
            "    return plt\n"
        ))
        assert rule_ids(found) == ["LAY002"]
        assert "matplotlib.pyplot" in found[0].message

    def test_near_miss_numpy_in_data(self):
        found = rule_diagnostics("LAY002", "src/repro/data/synthetic_fix.py", (
            "import numpy as np\n"
            "from numpy.lib.stride_tricks import sliding_window_view\n"
            "from ..arrays import pack_columns\n"
        ))
        assert found == []

    def test_flags_numpy_in_telemetry(self):
        # The stdlib-only packages do not get numpy back.
        found = rule_diagnostics("LAY002", "src/repro/telemetry/spans_fix.py", (
            "import numpy as np\n"
        ))
        assert rule_ids(found) == ["LAY002"]
        assert "repro.telemetry is stdlib-only" in found[0].message
