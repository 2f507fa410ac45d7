"""Mask-comparison metrics: windowed Betti error, matched-component error, VOI."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topokit.grid import label_components
from topokit.metrics import (
    DEFAULT_WINDOW,
    betti_error,
    betti_matching_error,
    compute_metrics,
    variation_of_information,
    window_count,
)


def random_mask(rng, shape=(8, 8), density=0.4):
    return rng.uniform(size=shape) < density


def dense_table_voi(pred, gt) -> float:
    """VOI from a dense (pred components + 1) x (gt components + 1) table of joint counts."""
    x = label_components(pred, 4).labels.ravel().astype(np.int64)
    y = label_components(gt, 4).labels.ravel().astype(np.int64)
    stride = int(y.max()) + 1
    joint = np.bincount(x * stride + y)
    nij = joint[joint > 0].astype(np.float64)
    ni = np.bincount(x).astype(np.float64)
    nj = np.bincount(y).astype(np.float64)
    keys = np.flatnonzero(joint)
    return float(np.sum((nij / x.size) * np.log((ni[keys // stride] * nj[keys % stride]) / (nij * nij))))


class TestBettiError:
    def test_single_window_difference(self):
        pred = np.zeros((5, 5), dtype=bool)
        pred[0, 0] = pred[2, 2] = pred[4, 4] = True      # three isolated pixels
        gt = np.zeros((5, 5), dtype=bool)
        gt[0, 4] = gt[4, 0] = True                       # two isolated pixels
        assert betti_error(pred, gt) == 1.0

    def test_two_windows_average(self):
        pred = np.zeros((4, 8), dtype=bool)
        pred[1, 1] = pred[1, 2] = True                   # left window: one blob
        pred[0, 4] = pred[2, 4] = pred[0, 6] = True      # right window: three
        gt = np.zeros((4, 8), dtype=bool)
        assert betti_error(pred, gt, window_size=4) == 2.0

    def test_identical_masks_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mask = random_mask(rng)
            assert betti_error(mask, mask) == 0.0
            assert betti_error(mask, mask, window_size=3) == 0.0

    def test_trailing_partial_windows_count(self):
        pred = np.zeros((5, 5), dtype=bool)
        pred[4, 4] = True                                # lives in the 2x2 corner window
        gt = np.zeros((5, 5), dtype=bool)
        assert betti_error(pred, gt, window_size=3) == pytest.approx(0.25)

    def test_window_count(self):
        assert window_count((32, 32), 256) == 1
        assert window_count((10, 10), 4) == 9
        assert window_count((8, 8), 8) == 1
        assert window_count((9, 8), 8) == 2
        assert window_count((5, 5), 3) == 4

    def test_rejects_bad_window(self):
        mask = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="window_size"):
            betti_error(mask, mask, window_size=0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            betti_error(np.zeros((2, 2), dtype=bool), np.zeros((2, 3), dtype=bool))


class TestBettiMatchingError:
    def test_two_versus_one_with_single_overlap(self):
        pred = [[1, 0, 1]]
        gt = [[1, 1, 1]]
        assert betti_matching_error(pred, gt) == 1
        assert betti_matching_error(gt, pred) == 1

    def test_disjoint_single_components(self):
        assert betti_matching_error([[1, 0, 0]], [[0, 0, 1]]) == 2

    def test_identical_masks_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mask = random_mask(rng)
            assert betti_matching_error(mask, mask) == 0

    def test_both_empty(self):
        empty = np.zeros((3, 3), dtype=bool)
        assert betti_matching_error(empty, empty) == 0

    def test_one_empty(self):
        empty = np.zeros((3, 3), dtype=bool)
        pred = np.eye(3, dtype=bool)                     # three isolated pixels, 4-conn
        assert betti_matching_error(pred, empty) == 3
        assert betti_matching_error(empty, pred) == 3

    def test_symmetry_random(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = random_mask(rng), random_mask(rng)
            assert betti_matching_error(a, b) == betti_matching_error(b, a)

    def test_one_component_split_in_two(self):
        # a U-shape in gt read as two components by a pred that misses the base
        gt = np.array([[1, 0, 1], [1, 1, 1]], dtype=bool)
        pred = np.array([[1, 0, 1], [0, 0, 0]], dtype=bool)
        # both pred components overlap the single gt component; only one can match
        assert betti_matching_error(pred, gt) == 1


class TestVariationOfInformation:
    def test_two_by_two_half_split(self):
        pred = [[1, 1], [0, 0]]
        gt = [[1, 1], [1, 1]]
        assert variation_of_information(pred, gt) == pytest.approx(
            math.log(2), abs=1e-9
        )

    def test_identical_masks_exact_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mask = random_mask(rng)
            assert variation_of_information(mask, mask) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a, b = random_mask(rng), random_mask(rng)
            va, vb = variation_of_information(a, b), variation_of_information(b, a)
            assert abs(va - vb) <= 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b, c = (random_mask(rng) for _ in range(3))
            vac = variation_of_information(a, c)
            vab = variation_of_information(a, b)
            vbc = variation_of_information(b, c)
            assert vac <= vab + vbc + 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = random_mask(rng), random_mask(rng)
            assert variation_of_information(a, b) >= 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(1, 40), st.floats(0, 1), st.floats(0, 1),
           st.integers(0, 2**32 - 1))
    def test_bits_equal_a_dense_joint_table(self, h, w, pred_density, gt_density, seed):
        rng = np.random.default_rng(seed)
        pred, gt = random_mask(rng, (h, w), pred_density), random_mask(rng, (h, w), gt_density)
        assert variation_of_information(pred, gt).hex() == dense_table_voi(pred, gt).hex()

    def test_memory_grows_with_the_pixels_not_the_component_pairs(self):
        rng = np.random.default_rng(1)
        pred, gt = random_mask(rng, (256, 256), 0.5), random_mask(rng, (256, 256), 0.5)
        variation_of_information(pred[:2, :2], gt[:2, :2])  # scipy's import is not measured
        tracemalloc.start()
        try:
            variation_of_information(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 4.4k components per mask: a dense table of their pairs takes 148 MiB.
        assert peak <= 16 * 2**20

    def test_component_structure_matters(self):
        # same foreground pixel count, different component structure
        joined = np.array([[1, 1, 1, 1]], dtype=bool)
        split = np.array([[1, 1, 0, 1]], dtype=bool)
        assert variation_of_information(joined, joined) == 0.0
        assert variation_of_information(joined, split) > 0.0


class TestComputeMetrics:
    def test_identity_all_zero(self):
        rng = np.random.default_rng(7)
        mask = random_mask(rng, shape=(12, 12))
        report = compute_metrics(mask, mask)
        assert report.betti_error == 0.0
        assert report.betti_matching_error == 0
        assert report.voi == 0.0
        assert report.window_size == DEFAULT_WINDOW
        assert report.window_count == 1

    def test_window_plumbing(self):
        mask = np.zeros((10, 10), dtype=bool)
        report = compute_metrics(mask, mask, window_size=4)
        assert report.window_size == 4
        assert report.window_count == 9

    def test_matches_individual_functions(self):
        rng = np.random.default_rng(8)
        a, b = random_mask(rng, (9, 9)), random_mask(rng, (9, 9))
        report = compute_metrics(a, b, window_size=5)
        assert report.betti_error == betti_error(a, b, window_size=5)
        assert report.betti_matching_error == betti_matching_error(a, b)
        assert report.voi == variation_of_information(a, b)

    def test_accepts_integer_arrays(self):
        report = compute_metrics([[1, 0], [0, 2]], [[1, 0], [0, 5]])
        assert report.betti_matching_error == 0
        assert report.voi == 0.0
