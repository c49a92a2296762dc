"""Fixture corpus for PKL001 (picklable execution payloads)."""

from .helpers import rule_diagnostics, rule_ids


class TestPkl001UnpicklablePayload:
    def test_flags_lambda_member(self):
        found = rule_diagnostics("PKL001", "src/repro/ssl/method_fix.py", (
            "class Method:\n"
            "    def __init__(self):\n"
            "        self.transform = lambda x: x * 2\n"
        ))
        assert rule_ids(found) == ["PKL001"]
        assert "lambda" in found[0].message

    def test_flags_local_function_member(self):
        found = rule_diagnostics("PKL001", "src/repro/ssl/method_fix.py", (
            "class Method:\n"
            "    def __init__(self):\n"
            "        def helper(x):\n"
            "            return x\n"
            "        self.helper = helper\n"
        ))
        assert rule_ids(found) == ["PKL001"]

    def test_flags_open_handle_and_lock(self):
        found = rule_diagnostics("PKL001", "src/repro/fl/population/plane_fix.py", (
            "import threading\n"
            "class Plane:\n"
            "    def __init__(self, path):\n"
            "        self.stream = open(path)\n"
            "        self.lock = threading.Lock()\n"
        ))
        assert sorted(rule_ids(found)) == ["PKL001", "PKL001"]

    def test_near_miss_getstate_opt_out(self):
        found = rule_diagnostics("PKL001", "src/repro/fl/population/plane_fix.py", (
            "import threading\n"
            "class Plane:\n"
            "    def __init__(self, path):\n"
            "        self.lock = threading.Lock()\n"
            "    def __getstate__(self):\n"
            "        return {}\n"
        ))
        assert found == []

    def test_near_miss_module_level_callable(self):
        # A module-level function pickles by reference - that's the fix.
        found = rule_diagnostics("PKL001", "src/repro/ssl/method_fix.py", (
            "def double(x):\n"
            "    return x * 2\n"
            "class Method:\n"
            "    def __init__(self):\n"
            "        self.transform = double\n"
        ))
        assert found == []

    def test_near_miss_out_of_scope_module(self):
        found = rule_diagnostics("PKL001", "src/repro/runs/scheduler_fix.py", (
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self.job = lambda: None\n"
        ))
        assert found == []
