"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    DataSplit,
    SyntheticImageDataset,
    make_cifar10_like,
    make_cifar100_like,
    make_stl10_like,
)
from repro.data.synthetic import _gaussian_wrap
from repro.eval.harness import make_dataset
from repro.experiments.settings import SCALED_DATASET_KWARGS


class TestDataSplit:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            DataSplit(np.zeros((4, 3, 8)), np.zeros(4))
        with pytest.raises(ValueError):
            DataSplit(np.zeros((4, 3, 8, 8)), np.zeros(5))

    def test_subset(self):
        split = DataSplit(np.arange(4 * 3 * 2 * 2, dtype=float).reshape(4, 3, 2, 2),
                          np.array([0, 1, 0, 1]))
        sub = split.subset(np.array([1, 3]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.labels, [1, 1])

    def test_num_classes_ignores_unlabeled(self):
        split = DataSplit(np.zeros((3, 1, 2, 2)), np.array([-1, 2, 0]))
        assert split.num_classes == 3


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = SyntheticImageDataset(num_classes=4, image_size=8, train_per_class=5,
                                  test_per_class=2, seed=7)
        b = SyntheticImageDataset(num_classes=4, image_size=8, train_per_class=5,
                                  test_per_class=2, seed=7)
        np.testing.assert_array_equal(a.train.images, b.train.images)
        np.testing.assert_array_equal(a.train.labels, b.train.labels)

    def test_different_seeds_differ(self):
        a = SyntheticImageDataset(num_classes=4, image_size=8, seed=1)
        b = SyntheticImageDataset(num_classes=4, image_size=8, seed=2)
        assert not np.allclose(a.train.images, b.train.images)

    def test_split_sizes(self):
        dataset = SyntheticImageDataset(num_classes=5, image_size=8, train_per_class=7,
                                        test_per_class=3, unlabeled_size=11, seed=0)
        assert len(dataset.train) == 35
        assert len(dataset.test) == 15
        assert len(dataset.unlabeled) == 11
        assert np.all(dataset.unlabeled.labels == -1)

    def test_balanced_labels(self):
        dataset = SyntheticImageDataset(num_classes=5, image_size=8, train_per_class=6, seed=0)
        counts = np.bincount(dataset.train.labels, minlength=5)
        np.testing.assert_array_equal(counts, np.full(5, 6))

    def test_class_structure_is_learnable(self):
        """A nearest-class-prototype rule on raw pixels must beat chance by a
        wide margin — otherwise no downstream experiment is meaningful."""
        dataset = SyntheticImageDataset(num_classes=5, image_size=8, train_per_class=40,
                                        test_per_class=20, seed=3)
        train_x = dataset.train.images.reshape(len(dataset.train), -1)
        test_x = dataset.test.images.reshape(len(dataset.test), -1)
        centroids = np.stack([
            train_x[dataset.train.labels == k].mean(axis=0) for k in range(5)
        ])
        distances = ((test_x[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        acc = (predictions == dataset.test.labels).mean()
        assert acc > 0.6, f"synthetic data not separable enough: {acc:.3f}"

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticImageDataset(num_classes=4, image_size=2)
        with pytest.raises(ValueError):
            SyntheticImageDataset(num_classes=10, num_superclasses=3)

    @pytest.mark.parametrize("field, value", [
        ("smoothness", -1.0), ("noise_level", -0.1), ("shift_range", -1),
        ("color_jitter", -0.5), ("class_sep", -1.2), ("unlabeled_size", -1),
        ("test_per_class", -1), ("train_per_class", 0), ("channels", 0),
    ])
    def test_rejects_out_of_range_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticImageDataset(num_classes=4, image_size=8, **{field: value})

    def test_zero_smoothness_is_white_noise(self):
        # sigma 0 skips the filter, as scipy does: each prototype is its
        # noise draw rescaled to unit variance.
        dataset = SyntheticImageDataset(num_classes=3, image_size=6, train_per_class=1,
                                        test_per_class=1, smoothness=0, class_sep=1.0,
                                        seed=5)
        rng = np.random.default_rng(5)
        for prototype in dataset._prototypes:
            noise = rng.standard_normal((3, 6, 6))
            np.testing.assert_array_equal(prototype, noise / noise.std())

    def test_render_gather_equals_per_sample_roll(self):
        # The reference the one-gather renderer replaced: each prototype
        # rolled by its sample's shift, on the same draws in the same order.
        dataset = SyntheticImageDataset(num_classes=3, image_size=5, train_per_class=2,
                                        test_per_class=1, shift_range=7, seed=4)
        labels = np.array([2, 0, 1, 1, 5, 0, 3])
        rng = np.random.default_rng(11)
        shifts = rng.integers(-7, 8, size=(7, 2))
        gains = 1.0 + 0.35 * rng.uniform(-1.0, 1.0, size=(7, 3, 1, 1))
        biases = 0.35 * rng.uniform(-1.0, 1.0, size=(7, 3, 1, 1))
        noise = 0.35 * rng.standard_normal((7, 3, 5, 5))
        rolled = np.stack([
            np.roll(dataset._prototypes[label % 3], tuple(shift), axis=(1, 2))
            for label, shift in zip(labels, shifts)
        ])
        expected = rolled * gains + biases + noise
        got = dataset.sample(labels, seed=11).images
        assert got.tobytes() == expected.tobytes()

    def test_sample_renders_fresh_split(self):
        dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=0)
        labels = np.array([0, 1, 2, 3, 0])
        extra = dataset.sample(labels, seed=99)
        assert len(extra) == 5
        np.testing.assert_array_equal(extra.labels, labels)
        again = dataset.sample(labels, seed=99)
        np.testing.assert_array_equal(extra.images, again.images)


class TestFactories:
    def test_cifar10_like(self):
        dataset = make_cifar10_like(image_size=8, train_per_class=4, test_per_class=2, seed=0)
        assert dataset.num_classes == 10
        assert dataset.train.num_classes == 10
        assert len(dataset.unlabeled) == 0

    def test_cifar100_like_superclass_structure(self):
        dataset = make_cifar100_like(image_size=8, train_per_class=2, test_per_class=1,
                                     num_classes=20, seed=0)
        assert dataset.num_classes == 20
        # Fine classes within a superclass must be more similar than across.
        prototypes = dataset._prototypes.reshape(20, -1)
        per_super = 5
        within, across = [], []
        for i in range(20):
            for j in range(i + 1, 20):
                sim = float(
                    prototypes[i] @ prototypes[j]
                    / (np.linalg.norm(prototypes[i]) * np.linalg.norm(prototypes[j]))
                )
                if i // per_super == j // per_super:
                    within.append(sim)
                else:
                    across.append(sim)
        assert np.mean(within) > np.mean(across) + 0.2

    def test_cifar100_like_names_the_default_superclass_count(self):
        # 11 classes: the default max(11 // 5, 1) = 2 superclasses does
        # not divide them, and the caller never set num_superclasses.
        with pytest.raises(ValueError) as error:
            make_cifar100_like(image_size=8, train_per_class=2,
                               test_per_class=1, num_classes=11)
        assert str(error.value) == (
            "num_classes=11 is not divisible by the default "
            "num_superclasses=2 (max(num_classes // 5, 1)); pass "
            "num_superclasses explicitly")
        # Passing it explicitly builds the set, or names both values.
        dataset = make_cifar100_like(image_size=8, train_per_class=2,
                                     test_per_class=1, num_classes=11,
                                     num_superclasses=11)
        assert dataset.num_classes == 11
        with pytest.raises(ValueError, match="num_classes=11 must be "
                                             "divisible by num_superclasses=3"):
            make_cifar100_like(image_size=8, train_per_class=2,
                               test_per_class=1, num_classes=11,
                               num_superclasses=3)

    def test_stl10_like_has_unlabeled_pool(self):
        dataset = make_stl10_like(image_size=8, train_per_class=3, test_per_class=2,
                                  unlabeled_size=50, seed=0)
        assert len(dataset.unlabeled) == 50
        assert dataset.unlabeled.labels.max() == -1


class TestGaussianKernel:
    """``_gaussian_wrap`` is scipy's periodic Gaussian filter, bit for bit.

    scipy is a test-only reference: the package itself imports numpy alone.
    sigma 3 and 5 give radii 12 and 20, at or above most sizes here, so
    the kernel wraps around the field more than once.
    """

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("sigma", [0, 0.5, 1, 2, 3, 5])
    @pytest.mark.parametrize("size", [4, 5, 8, 12, 16, 32])
    def test_matches_scipy_bitwise(self, size, sigma, channels):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng([size, channels, int(10 * sigma)])
        for _ in range(3):
            field = rng.standard_normal((channels, size, size))
            expected = ndimage.gaussian_filter(field, sigma=(0, sigma, sigma), mode="wrap")
            got = _gaussian_wrap(field, sigma)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def _split_digest(*splits: DataSplit) -> str:
    digest = hashlib.sha256()
    for split in splits:
        digest.update(np.ascontiguousarray(split.images).tobytes())
        digest.update(np.ascontiguousarray(split.labels).tobytes())
    return digest.hexdigest()


_FACTORIES = {"cifar10": make_cifar10_like, "cifar100": make_cifar100_like,
              "stl10": make_stl10_like}

# sha256 of every split's image and label bytes, recorded with scipy's
# gaussian_filter and the per-sample np.roll renderer.  Every result digest
# in the repo sits downstream of these bytes.
GOLDEN_DIGESTS = {
    ("scaled", "cifar10", 0): "25d0b37424735695f485f26fda9aa7868b284c8a50ceb61d70188121a6731cea",
    ("scaled", "cifar100", 0): "8020faf6e2f4c4c3b35ba2e38a9713469d92f0938d5aafaaab115a728f01af00",
    ("scaled", "stl10", 0): "c4bcd24c575a877724a917e53a183ab6365943ab0ee960f465dbd5ef9e918f3b",
    ("scaled", "cifar10", 1): "819021d59322e73ab24921e1b39c3114063f3ea155750956b8f5e55e1570a1da",
    ("scaled", "cifar100", 1): "397dfb0037339b4289634401e4b84c033efbe511deea23a88b98c5c038d0b8e6",
    ("scaled", "stl10", 1): "81720980bb692b2dc6e724c215a3a6bc9564b5b98182577aff5a22e2d95c5c0e",
    ("default", "cifar10", 0): "a0a736b0e5eb13ddc76d20333e1e9d4cd2345f9ef8916046a33bb908ed02b648",
    ("default", "cifar100", 0): "63f1c7b68f12877707feee53ad5f0065262de25cc21f53114b1a85a95bd5cf20",
    ("default", "stl10", 0): "8b1a003ad219413957217bcea70a08309c44295f5871c28fede17a3255cb7af1",
    ("default", "cifar10", 1): "d01bbbfc49fc49f7a6337a76469eb38f934ac1434c92b6a2bafcde20eeb7de13",
    ("default", "cifar100", 1): "6ec64a849b1b89667419fb2be93972c202310d60adfa59a496c23f8ae0aca460",
    ("default", "stl10", 1): "c719fbcb7cab76a12792177e9811c5f5807c95ace1dea1ff0bbe80e52c2d608f",
    ("sample", "cifar10", 0): "ec1a6f8ec0f8b248c0a8886bfe0a2877cada2c818f10e68a94530bdab0844f7d",
    ("sample", "cifar100", 0): "9f7cfce67bb2037b04f0af9be0fb66399c4c86c79d9500a2cd66fcedef446c6e",
    ("sample", "cifar10", 1): "8eb7a5ef7ce185729f39de358e06ca836d39e2661e85046ceb643e7d9a38df51",
    ("sample", "cifar100", 1): "e859fec04c74bf5acea73e160405ff1deaf83c90267adbb79bc254a66e1a0695",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("kind, name, seed", sorted(GOLDEN_DIGESTS),
                             ids=lambda value: str(value))
    def test_dataset_bytes_unchanged(self, kind, name, seed):
        if kind == "default":
            dataset = _FACTORIES[name](seed=seed)
        else:
            dataset = make_dataset(name, seed=seed, **SCALED_DATASET_KWARGS[name])
        if kind == "sample":
            labels = np.arange(37) % dataset.num_classes
            got = _split_digest(dataset.sample(labels, seed=seed + 100))
        else:
            got = _split_digest(dataset.train, dataset.test, dataset.unlabeled)
        assert got == GOLDEN_DIGESTS[kind, name, seed]
