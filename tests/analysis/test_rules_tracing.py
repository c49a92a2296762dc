"""Fixture corpus for TRC001/TRC002 (trace/replay taping restrictions)."""

from .helpers import rule_diagnostics, rule_ids


class TestTrc001TapedRegion:
    def test_flags_item_in_taped_region(self):
        found = rule_diagnostics("TRC001", "src/repro/baselines/m_fix.py", (
            "def record(template, leaves, x):\n"
            "    with patched_parameters(template, leaves):\n"
            "        loss = template.compute(x)\n"
            "        value = loss.item()\n"
            "    return value\n"
        ))
        assert rule_ids(found) == ["TRC001"]
        assert ".item()" in found[0].message

    def test_flags_bool_mask_and_backward(self):
        found = rule_diagnostics("TRC001", "src/repro/baselines/m_fix.py", (
            "def record(template, leaves, x, labels, k):\n"
            "    with no_grad(), patched_parameters(template, leaves):\n"
            "        positives = x[labels == k]\n"
            "        loss = template.compute(positives)\n"
            "        loss.backward()\n"
        ))
        assert sorted(rule_ids(found)) == ["TRC001", "TRC001"]

    def test_near_miss_item_outside_region(self):
        found = rule_diagnostics("TRC001", "src/repro/baselines/m_fix.py", (
            "def record(template, leaves, x):\n"
            "    with patched_parameters(template, leaves):\n"
            "        loss = template.compute(x)\n"
            "    return loss.item()\n"
        ))
        assert found == []

    def test_near_miss_integer_indexing_in_region(self):
        found = rule_diagnostics("TRC001", "src/repro/baselines/m_fix.py", (
            "def record(template, leaves, x, order):\n"
            "    with patched_parameters(template, leaves):\n"
            "        shuffled = x[order]\n"
            "        first = x[0]\n"
        ))
        assert found == []


class TestTrc002CohortUpdate:
    def test_flags_item_in_cohort_update(self):
        found = rule_diagnostics("TRC002", "src/repro/baselines/m_fix.py", (
            "class Method:\n"
            "    def cohort_update(self, clients, state, round_index):\n"
            "        loss = self._loss(clients)\n"
            "        self.last = loss.item()\n"
        ))
        assert rule_ids(found) == ["TRC002"]

    def test_flags_bool_mask_in_cohort_update(self):
        found = rule_diagnostics("TRC002", "src/repro/baselines/m_fix.py", (
            "class Method:\n"
            "    def cohort_update(self, clients, state, round_index):\n"
            "        good = state[state > 0]\n"
            "        return good\n"
        ))
        assert rule_ids(found) == ["TRC002"]

    def test_near_miss_backward_is_legal(self):
        # Replay drives real tensors: backward in cohort_update is fine.
        found = rule_diagnostics("TRC002", "src/repro/baselines/m_fix.py", (
            "class Method:\n"
            "    def cohort_update(self, clients, state, round_index):\n"
            "        loss = self._loss(clients)\n"
            "        loss.backward()\n"
        ))
        assert found == []

    def test_near_miss_item_in_other_method(self):
        found = rule_diagnostics("TRC002", "src/repro/baselines/m_fix.py", (
            "class Method:\n"
            "    def local_update(self, client, state):\n"
            "        return self._loss(client).item()\n"
        ))
        assert found == []


class TestTrc002PlannedLoss:
    def test_flags_item_in_planned_loss(self):
        found = rule_diagnostics("TRC002", "src/repro/core/m_fix.py", (
            "class Method:\n"
            "    def planned_loss(self, outputs, plan):\n"
            "        terms = {'l_c': outputs.loss.item()}\n"
            "        return outputs.loss, terms\n"
        ))
        assert rule_ids(found) == ["TRC002"]
        assert "planned_loss" in found[0].message

    def test_flags_bool_mask_in_planned_loss(self):
        found = rule_diagnostics("TRC002", "src/repro/core/m_fix.py", (
            "class Method:\n"
            "    def planned_loss(self, outputs, plan):\n"
            "        kept = outputs.h_e[plan['counts'] > 0]\n"
            "        return kept.sum(), {}\n"
        ))
        assert rule_ids(found) == ["TRC002"]

    def test_flags_float_over_data(self):
        found = rule_diagnostics("TRC002", "src/repro/core/m_fix.py", (
            "class Method:\n"
            "    def planned_loss(self, outputs, plan):\n"
            "        shift = float(outputs.loss.data.max())\n"
            "        return outputs.loss - shift, {}\n"
        ))
        assert rule_ids(found) == ["TRC002"]
        assert "float() over .data" in found[0].message

    def test_flags_int_over_data(self):
        found = rule_diagnostics("TRC002", "src/repro/core/m_fix.py", (
            "class Method:\n"
            "    def planned_loss(self, outputs, plan):\n"
            "        clusters = int(plan['counts'].data.sum())\n"
            "        return outputs.loss / clusters, {}\n"
        ))
        assert rule_ids(found) == ["TRC002"]

    def test_near_miss_float_of_config_value(self):
        # Instance configuration is the same for every client: not a
        # per-client value pulled out of a tensor.
        found = rule_diagnostics("TRC002", "src/repro/core/m_fix.py", (
            "class Method:\n"
            "    def planned_loss(self, outputs, plan):\n"
            "        return outputs.loss * float(self.alpha), {}\n"
        ))
        assert found == []
