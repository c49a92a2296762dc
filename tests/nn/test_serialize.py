"""Tests and property-based tests for state-dict algebra (the FL wire format)."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.serialize import (
    clone_state,
    interpolate_states,
    merge_states,
    split_state,
    state_add,
    state_distance,
    state_scale,
    state_sub,
    weighted_average,
)


def make_state(seed=0, scale=1.0):
    generator = np.random.default_rng(seed)
    return OrderedDict(
        [
            ("encoder.conv.weight", generator.standard_normal((4, 3, 3, 3)) * scale),
            ("encoder.bn.running_mean", generator.standard_normal(4) * scale),
            ("head.weight", generator.standard_normal((10, 4)) * scale),
            ("head.bias", generator.standard_normal(10) * scale),
        ]
    )


class TestBasicAlgebra:
    def test_clone_is_deep(self):
        state = make_state()
        cloned = clone_state(state)
        cloned["head.bias"][...] = 0.0
        assert not np.allclose(state["head.bias"], 0.0)

    def test_add_sub_inverse(self):
        a, b = make_state(1), make_state(2)
        recovered = state_sub(state_add(a, b), b)
        for name in a:
            np.testing.assert_allclose(recovered[name], a[name], atol=1e-12)

    def test_scale(self):
        state = make_state(3)
        doubled = state_scale(state, 2.0)
        np.testing.assert_allclose(doubled["head.weight"], 2.0 * state["head.weight"])

    def test_mismatched_keys_raise(self):
        a = make_state()
        b = make_state()
        del b["head.bias"]
        with pytest.raises(KeyError):
            state_add(a, b)

    def test_norm_and_distance(self):
        a, b = make_state(4), make_state(5)
        assert state_distance(a, a) == 0.0
        flat = np.concatenate([(a[name] - b[name]).ravel() for name in a])
        assert state_distance(a, b) == pytest.approx(np.linalg.norm(flat))


class TestWeightedAverage:
    def test_equal_weights_is_mean(self):
        a, b = make_state(1), make_state(2)
        avg = weighted_average([a, b], [1.0, 1.0])
        np.testing.assert_allclose(avg["head.bias"], (a["head.bias"] + b["head.bias"]) / 2)

    def test_weights_normalized(self):
        a, b = make_state(1), make_state(2)
        avg1 = weighted_average([a, b], [1.0, 3.0])
        avg2 = weighted_average([a, b], [0.25, 0.75])
        np.testing.assert_allclose(avg1["head.weight"], avg2["head.weight"], atol=1e-12)

    def test_identical_states_fixed_point(self):
        a = make_state(5)
        avg = weighted_average([a, clone_state(a), clone_state(a)], [0.2, 0.3, 0.5])
        for name in a:
            np.testing.assert_allclose(avg[name], a[name], atol=1e-12)

    def test_degenerate_weight_rejected(self):
        a = make_state()
        with pytest.raises(ValueError):
            weighted_average([a], [0.0])
        with pytest.raises(ValueError):
            weighted_average([a], [-1.0])
        with pytest.raises(ValueError):
            weighted_average([], [])
        with pytest.raises(ValueError):
            weighted_average([a, a], [1.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_average_within_hull(self, weights):
        states = [make_state(seed) for seed in range(len(weights))]
        avg = weighted_average(states, weights)
        for name in states[0]:
            stacked = np.stack([s[name] for s in states])
            assert np.all(avg[name] <= stacked.max(axis=0) + 1e-9)
            assert np.all(avg[name] >= stacked.min(axis=0) - 1e-9)


class TestSplitMerge:
    def test_split_by_prefix(self):
        state = make_state()
        encoder, rest = split_state(state, "encoder")
        assert set(encoder) == {"encoder.conv.weight", "encoder.bn.running_mean"}
        assert set(rest) == {"head.weight", "head.bias"}

    def test_prefix_does_not_match_substring(self):
        state = OrderedDict([("headliner.weight", np.zeros(2)), ("head.weight", np.ones(2))])
        head, rest = split_state(state, "head")
        assert set(head) == {"head.weight"}
        assert set(rest) == {"headliner.weight"}

    def test_merge_inverse_of_split(self):
        state = make_state()
        encoder, rest = split_state(state, "encoder")
        merged = merge_states(encoder, rest)
        assert set(merged) == set(state)

    def test_merge_duplicate_raises(self):
        state = make_state()
        with pytest.raises(KeyError):
            merge_states(state, state)


class TestInterpolate:
    def test_endpoints(self):
        a, b = make_state(1), make_state(2)
        np.testing.assert_allclose(
            interpolate_states(a, b, 0.0)["head.bias"], a["head.bias"], atol=1e-12
        )
        np.testing.assert_allclose(
            interpolate_states(a, b, 1.0)["head.bias"], b["head.bias"], atol=1e-12
        )

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_alpha(self, alpha):
        a, b = make_state(3), make_state(4)
        mixed = interpolate_states(a, b, alpha)
        for name in a:
            np.testing.assert_allclose(
                mixed[name], (1 - alpha) * a[name] + alpha * b[name], atol=1e-10
            )
