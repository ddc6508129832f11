"""Tests for the from-scratch CART regression tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cart import RegressionTree


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)

    def test_fit_validates_shapes(self):
        tree = RegressionTree()
        with pytest.raises(ValueError):
            tree.fit([], [])
        with pytest.raises(ValueError):
            tree.fit([[1.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            tree.fit([[1.0], [1.0, 2.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            tree.fit([[], []], [1.0, 2.0])

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict([1.0])

    def test_predict_validates_width(self):
        tree = RegressionTree(min_samples_leaf=1).fit([[1.0], [2.0]], [0.0, 1.0])
        with pytest.raises(ValueError):
            tree.predict([1.0, 2.0])


class TestFitting:
    def test_constant_target_predicts_constant(self):
        tree = RegressionTree().fit([[float(i)] for i in range(30)], [5.0] * 30)
        assert tree.predict([3.0]) == 5.0
        assert tree.n_leaves == 1  # no split improves a constant target

    def test_perfect_step_function(self):
        x = [[float(i)] for i in range(40)]
        y = [0.0 if i < 20 else 1.0 for i in range(40)]
        tree = RegressionTree(min_samples_leaf=2).fit(x, y)
        assert tree.predict([5.0]) == pytest.approx(0.0)
        assert tree.predict([35.0]) == pytest.approx(1.0)
        assert tree.depth >= 1

    def test_selects_informative_feature(self):
        """Feature 1 carries the signal; feature 0 is noise."""
        rng = random.Random(0)
        x = [[rng.random(), rng.random()] for _ in range(200)]
        y = [1.0 if row[1] > 0.5 else 0.0 for row in x]
        tree = RegressionTree(max_depth=1, min_samples_leaf=5).fit(x, y)
        assert tree.root.feature == 1
        assert tree.root.threshold == pytest.approx(0.5, abs=0.08)

    def test_max_depth_respected(self):
        rng = random.Random(1)
        x = [[rng.random()] for _ in range(300)]
        y = [row[0] for row in x]
        tree = RegressionTree(max_depth=3, min_samples_leaf=1).fit(x, y)
        assert tree.depth <= 3

    def test_min_samples_leaf_respected(self):
        x = [[float(i)] for i in range(10)]
        y = [0.0] * 5 + [1.0] * 5
        tree = RegressionTree(max_depth=10, min_samples_leaf=5).fit(x, y)
        # Only one split possible: 5 | 5.
        assert tree.n_leaves <= 2

    def test_approximates_linear_function(self):
        x = [[i / 100.0] for i in range(100)]
        y = [2.0 * row[0] for row in x]
        tree = RegressionTree(max_depth=6, min_samples_leaf=2).fit(x, y)
        errors = [abs(tree.predict(row) - 2.0 * row[0]) for row in x]
        assert max(errors) < 0.2


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-10, 10), st.floats(0, 1)), min_size=4, max_size=80
    )
)
def test_property_prediction_within_target_range(data):
    """Leaf means can never leave the convex hull of the targets."""
    x = [[a] for a, _ in data]
    y = [b for _, b in data]
    tree = RegressionTree(min_samples_leaf=2).fit(x, y)
    lo, hi = min(y), max(y)
    for row in x:
        assert lo - 1e-9 <= tree.predict(row) <= hi + 1e-9
