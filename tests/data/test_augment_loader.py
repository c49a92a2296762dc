"""Tests for augmentations and minibatch iteration."""

import numpy as np
import pytest

from repro.data import (
    ColorJitter,
    Compose,
    GaussianNoise,
    RandomCrop,
    RandomGrayscale,
    RandomHorizontalFlip,
    TwoViewAugment,
    batch_iterator,
    default_ssl_augment,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def batch(seed=0, n=6, c=3, h=8, w=8):
    return rng(seed).standard_normal((n, c, h, w))


class TestAugmentations:
    def test_random_crop_preserves_shape(self):
        x = batch()
        out = RandomCrop(2)(x, rng(1))
        assert out.shape == x.shape

    def test_random_crop_changes_content(self):
        x = batch(1)
        out = RandomCrop(3)(x, rng(2))
        assert not np.allclose(out, x)

    def test_random_crop_validates_padding(self):
        with pytest.raises(ValueError):
            RandomCrop(0)

    def test_flip_probability_zero_is_identity(self):
        x = batch(2)
        np.testing.assert_array_equal(RandomHorizontalFlip(0.0)(x, rng(0)), x)

    def test_flip_probability_one_reverses_width(self):
        x = batch(3)
        out = RandomHorizontalFlip(1.0)(x, rng(0))
        np.testing.assert_array_equal(out, x[:, :, :, ::-1])

    def test_flip_is_involution(self):
        x = batch(4)
        out = RandomHorizontalFlip(1.0)(RandomHorizontalFlip(1.0)(x, rng(0)), rng(1))
        np.testing.assert_array_equal(out, x)

    def test_color_jitter_zero_strength_identity(self):
        x = batch(5)
        np.testing.assert_allclose(ColorJitter(0.0)(x, rng(0)), x)

    def test_color_jitter_changes_channels_independently(self):
        x = np.ones((2, 3, 4, 4))
        out = ColorJitter(0.5)(x, rng(3))
        channel_means = out.mean(axis=(2, 3))
        assert np.std(channel_means) > 0.01

    def test_color_jitter_validates_strength(self):
        with pytest.raises(ValueError):
            ColorJitter(-0.1)

    def test_grayscale_collapses_channels(self):
        x = batch(6)
        out = RandomGrayscale(1.0)(x, rng(0))
        np.testing.assert_allclose(out[:, 0], out[:, 1])
        np.testing.assert_allclose(out[:, 1], out[:, 2])

    def test_grayscale_probability_zero_identity(self):
        x = batch(7)
        np.testing.assert_array_equal(RandomGrayscale(0.0)(x, rng(0)), x)

    def test_gaussian_noise_magnitude(self):
        x = np.zeros((4, 3, 8, 8))
        out = GaussianNoise(0.1)(x, rng(1))
        assert 0.05 < out.std() < 0.2

    def test_compose_order(self):
        x = batch(8)
        composed = Compose([RandomHorizontalFlip(1.0), RandomHorizontalFlip(1.0)])
        np.testing.assert_array_equal(composed(x, rng(0)), x)

    def test_ssl_augment_stack(self):
        stack = default_ssl_augment(strength=0.3, crop_padding=1,
                                    noise_sigma=0.02).augment.transforms
        assert [type(t) for t in stack] == [
            RandomCrop, RandomHorizontalFlip, ColorJitter, RandomGrayscale,
            GaussianNoise]
        crop, _, jitter, _, noise = stack
        assert (crop.padding, jitter.strength, noise.sigma) == (1, 0.3, 0.02)

    def test_two_views_differ(self):
        x = batch(9)
        view_a, view_b = default_ssl_augment()(x, rng(4))
        assert view_a.shape == x.shape
        assert not np.allclose(view_a, view_b)

    def test_two_view_wrapper(self):
        two = TwoViewAugment(Compose([]))
        x = batch(11)
        a, b = two(x, rng(0))
        np.testing.assert_array_equal(a, x)
        np.testing.assert_array_equal(b, x)


class TestBatchIterator:
    def test_covers_everything(self):
        batches = list(batch_iterator(10, 3, shuffle=False))
        merged = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(merged), np.arange(10))

    def test_drop_last(self):
        batches = list(batch_iterator(10, 3, shuffle=False, drop_last=True))
        assert [len(b) for b in batches] == [3, 3, 3]

    def test_shuffle_deterministic_with_rng(self):
        a = list(batch_iterator(10, 4, shuffle=True, rng=rng(5)))
        b = list(batch_iterator(10, 4, shuffle=True, rng=rng(5)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_shuffled_epochs_differ(self):
        # Training loops share one generator across epochs: each epoch
        # draws a fresh permutation, never a replay of the last one.
        generator = rng(0)
        first = np.concatenate(list(batch_iterator(32, 8, shuffle=True, rng=generator)))
        second = np.concatenate(list(batch_iterator(32, 8, shuffle=True, rng=generator)))
        np.testing.assert_array_equal(np.sort(first), np.arange(32))
        np.testing.assert_array_equal(np.sort(second), np.arange(32))
        assert not np.array_equal(first, second)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_iterator(10, 0, shuffle=False))

