"""Pixel and topological losses, analytic gradients, finite-difference check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topokit.losses import (
    NOISE_DIAGONAL,
    cross_entropy_gradient,
    cross_entropy_loss,
    dice_gradient,
    dice_loss,
    finite_difference_check,
    supervised_gradient,
    supervised_loss,
    topo_loss_and_gradient,
)

from _support import random_distinct_grid


class TestCrossEntropy:
    def test_half_versus_one(self):
        assert cross_entropy_loss([[0.5]], [[1.0]]) == pytest.approx(math.log(2), abs=1e-15)

    def test_clamp_floor(self):
        assert cross_entropy_loss([[0.0]], [[1.0]]) == pytest.approx(
            16.11809565095832, abs=1e-12
        )

    def test_identity_binary_is_tiny(self):
        pred = [[1.0, 0.0], [0.0, 1.0]]
        assert cross_entropy_loss(pred, pred) < 1e-6

    def test_mean_over_pixels(self):
        one = cross_entropy_loss([[0.5]], [[1.0]])
        four = cross_entropy_loss([[0.5] * 4], [[1.0] * 4])
        assert four == pytest.approx(one, abs=1e-15)

    def test_gradient_closed_form(self):
        grad = cross_entropy_gradient([[0.5, 0.25]], [[1.0, 0.0]])
        # (s - t) / (s (1 - s)) / N
        assert grad[0, 0] == pytest.approx((0.5 - 1.0) / 0.25 / 2, abs=1e-12)
        assert grad[0, 1] == pytest.approx((0.25 - 0.0) / (0.25 * 0.75) / 2, abs=1e-12)

    def test_gradient_zero_under_clamp(self):
        grad = cross_entropy_gradient([[0.0, 1.0]], [[1.0, 1.0]])
        assert grad[0, 0] == 0.0
        assert grad[0, 1] == 0.0

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.2, 0.8, (3, 3))
        tgt = rng.uniform(0.0, 1.0, (3, 3))
        grad = cross_entropy_gradient(pred, tgt)
        h = 1e-7
        for px in range(pred.size):
            plus, minus = pred.copy(), pred.copy()
            plus.flat[px] += h
            minus.flat[px] -= h
            fd = (cross_entropy_loss(plus, tgt) - cross_entropy_loss(minus, tgt)) / (2 * h)
            assert grad.flat[px] == pytest.approx(fd, rel=1e-5)


class TestDice:
    def test_frozen_value(self):
        # 1 - (2*1.5 + 1e-6) / (1.5 + 3 + 1e-6) = 1500000 / 4500001
        assert dice_loss([[0.5, 0.5, 0.5]], [[1, 1, 1]]) == pytest.approx(
            1500000 / 4500001, abs=1e-15
        )

    def test_identity_binary_near_zero(self):
        mask = [[1, 0], [1, 1]]
        assert dice_loss(np.array(mask, dtype=float), mask) < 1e-6

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.2, 0.8, (3, 3))
        mask = rng.uniform(size=(3, 3)) < 0.5
        grad = dice_gradient(pred, mask)
        h = 1e-7
        for px in range(pred.size):
            plus, minus = pred.copy(), pred.copy()
            plus.flat[px] += h
            minus.flat[px] -= h
            fd = (dice_loss(plus, mask) - dice_loss(minus, mask)) / (2 * h)
            assert grad.flat[px] == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestSupervised:
    def test_frozen_combination(self):
        value = supervised_loss([[0.5, 0.5, 0.5]], [[1, 1, 1]], 0.5, 0.5)
        expected = 0.5 * math.log(2) + 0.5 * (1500000 / 4500001)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_gradient_is_weighted_sum(self):
        rng = np.random.default_rng(7)
        pred = rng.uniform(0.2, 0.8, (2, 3))
        mask = rng.uniform(size=(2, 3)) < 0.5
        got = supervised_gradient(pred, mask, 0.25, 0.75)
        want = 0.25 * cross_entropy_gradient(pred, mask.astype(float)) \
            + 0.75 * dice_gradient(pred, mask)
        assert np.allclose(got, want, atol=1e-15)


class TestTopoConsistency:
    def test_matched_dot_example(self):
        student = [[0.3, 0.8, 0.1]]
        teacher = [[0.2, 0.9, 0.1]]
        report, grad = topo_loss_and_gradient(student, teacher, phi=0.2)
        assert report.cons_loss == pytest.approx(0.02, abs=1e-15)
        assert report.rem_loss == 0.0
        assert report.topo_loss == pytest.approx(0.02, abs=1e-15)
        assert grad.tolist() == [pytest.approx([0.2, -0.2, 0.0], abs=1e-15)]

    def test_diagonal_match_example(self):
        student = [[0.4, 0.9, 0.1]]
        teacher = [[0.1, 0.1, 0.1]]
        report, grad = topo_loss_and_gradient(student, teacher, phi=0.45)
        assert report.cons_loss == pytest.approx(0.125, abs=1e-15)
        assert grad.tolist() == [pytest.approx([-0.5, 0.5, 0.0], abs=1e-15)]

    def test_noise_removal_example(self):
        grid = [[0.4, 0.45, 0.1]]
        report, grad = topo_loss_and_gradient(grid, grid, phi=0.2)
        assert report.rem_loss == pytest.approx(0.3625, abs=1e-15)
        assert report.cons_loss == 0.0
        assert grad.tolist() == [pytest.approx([0.8, 0.9, 0.0], abs=1e-15)]

    def test_noise_diagonal_mode(self):
        grid = [[0.4, 0.45, 0.1]]
        report, grad = topo_loss_and_gradient(grid, grid, phi=0.2, noise_mode=NOISE_DIAGONAL)
        assert report.rem_loss == pytest.approx(0.5 * 0.05**2, abs=1e-15)
        assert grad.tolist() == [pytest.approx([-0.05, 0.05, 0.0], abs=1e-12)]

    def test_essential_noise_contributes_birth_only(self):
        grid = [[0.4, 0.45, 0.1]]
        report, grad = topo_loss_and_gradient(grid, grid, phi=1.0)
        # every dot is noise at phi=1; essential adds only birth^2 = 0.01
        assert report.rem_loss == pytest.approx(0.4**2 + 0.45**2 + 0.1**2, abs=1e-15)
        assert grad[0, 2] == pytest.approx(0.2, abs=1e-15)

    def test_essential_noise_diagonal_mode_uses_constant_death(self):
        grid = [[0.4, 0.45, 0.1]]
        report, grad = topo_loss_and_gradient(grid, grid, phi=1.0, noise_mode=NOISE_DIAGONAL)
        expected = 0.5 * (0.05**2 + 0.9**2)
        assert report.rem_loss == pytest.approx(expected, abs=1e-15)
        assert grad[0, 2] == pytest.approx(-0.9, abs=1e-15)

    def test_identity_has_zero_cons_and_gradient(self):
        rng = np.random.default_rng(11)
        grid = random_distinct_grid(rng, 5, 5)
        report, grad = topo_loss_and_gradient(grid, grid, phi=0.0)
        assert report.cons_loss == 0.0
        assert report.rem_loss == 0.0  # phi=0 and distinct values: no noise dots
        assert not grad.any()

    def test_unmatched_teacher_dot_costs_but_no_gradient(self):
        student = [[0.1, 0.1, 0.1]]          # essential only
        teacher = [[0.1, 0.9, 0.2]]          # essential + one extra signal dot
        report, grad = topo_loss_and_gradient(student, teacher, phi=0.5)
        assert report.cons_loss == 0.0
        assert report.matching.cost > 0.0
        assert not grad.any()

    def test_gradient_support_at_critical_pixels_only(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            student = random_distinct_grid(rng, 6, 6)
            teacher = random_distinct_grid(rng, 6, 6)
            report, grad = topo_loss_and_gradient(student, teacher, phi=0.3)
            critical = set()
            for part in (report.student_decomposition.signal,
                         report.student_decomposition.noise):
                for dot in part.dots:
                    critical.add(dot.birth_pixel)
                    if dot.death_pixel is not None:
                        critical.add(dot.death_pixel)
            assert set(np.flatnonzero(grad.ravel())) <= critical

    def test_loss_nonnegative_and_additive(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            student = rng.uniform(0.0, 1.0, (5, 5))
            teacher = rng.uniform(0.0, 1.0, (5, 5))
            report, _ = topo_loss_and_gradient(student, teacher)
            assert report.cons_loss >= 0.0
            assert report.rem_loss >= 0.0
            assert report.topo_loss == pytest.approx(
                report.cons_loss + report.rem_loss, abs=1e-15
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            topo_loss_and_gradient([[0.1, 0.2]], [[0.1], [0.2]])

    def test_bad_noise_mode_rejected(self):
        with pytest.raises(ValueError):
            topo_loss_and_gradient([[0.1, 0.2]], [[0.1, 0.2]], noise_mode="melt")

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_hypothesis_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        student = rng.uniform(0.0, 1.0, (4, 4))
        teacher = rng.uniform(0.0, 1.0, (4, 4))
        report, _ = topo_loss_and_gradient(student, teacher, phi=float(rng.uniform(0, 1)))
        assert report.topo_loss >= 0.0


class TestFiniteDifferenceCheck:
    def test_random_grids_pass_tightly(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            student = random_distinct_grid(rng, 6, 6)
            teacher = random_distinct_grid(rng, 6, 6)
            err = finite_difference_check(student, teacher, phi=0.3, h=1e-5)
            assert err < 1e-3
            assert err < 1e-6  # quadratic loss: central differences are near-exact

    def test_both_noise_modes(self):
        rng = np.random.default_rng(23)
        student = random_distinct_grid(rng, 5, 5)
        teacher = random_distinct_grid(rng, 5, 5)
        err = finite_difference_check(student, teacher, phi=0.5,
                                      noise_mode=NOISE_DIAGONAL)
        assert err < 1e-6

    def test_zero_loss_neighborhood_gives_zero_error(self):
        # student == teacher and no noise dots: the loss is identically zero
        # around the current point, so both gradient estimates vanish.
        student = [[0.1, 0.9, 0.2]]
        err = finite_difference_check(student, student, phi=0.05, h=1e-5)
        assert err == 0.0

    def test_rejects_nonpositive_h(self):
        grid = [[0.1, 0.9]]
        with pytest.raises(ValueError):
            finite_difference_check(grid, grid, h=0.0)

    def test_rejects_h_straddling_value_gaps(self):
        grid = [[0.1, 0.10001]]
        with pytest.raises(ValueError, match="gap"):
            finite_difference_check(grid, grid, h=1e-4)

    def test_rejects_tied_values(self):
        grid = [[0.4, 0.4, 0.9]]
        with pytest.raises(ValueError, match="gap"):
            finite_difference_check(grid, grid, h=1e-5)

    def test_rejects_values_near_boundary(self):
        grid = [[0.0, 0.5]]
        with pytest.raises(ValueError, match="boundary"):
            finite_difference_check(grid, grid, h=1e-5)
