"""Pixel and topological losses, analytic gradients, finite-difference check."""

import functools
import hashlib
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topokit.grid import GridFormatError
from topokit.losses import (
    NOISE_DIAGONAL,
    _sum_in_order,
    cross_entropy_loss_and_gradient,
    dice_loss_and_gradient,
    finite_difference_check,
    supervised_loss_and_gradient,
    topo_loss_and_gradient,
)
from topokit.scenarios import noise_removal_grid, perturbed_student_logits, three_basin_teacher
from topokit.trainer import (
    LabeledSupervision,
    TrainConfig,
    likelihood_to_logits,
    run_simulation,
    write_trace_csv,
)

from _support import random_distinct_grid


def _ce_loss(prediction, target):
    return cross_entropy_loss_and_gradient(prediction, target)[0]


def _dice_loss(prediction, target_mask):
    return dice_loss_and_gradient(prediction, target_mask)[0]


class TestCrossEntropy:
    def test_half_versus_one(self):
        assert _ce_loss([[0.5]], [[1.0]]) == pytest.approx(math.log(2), abs=1e-15)

    def test_clamp_floor(self):
        assert _ce_loss([[0.0]], [[1.0]]) == pytest.approx(
            16.11809565095832, abs=1e-12
        )

    def test_identity_binary_is_tiny(self):
        pred = [[1.0, 0.0], [0.0, 1.0]]
        assert _ce_loss(pred, pred) < 1e-6

    def test_mean_over_pixels(self):
        one = _ce_loss([[0.5]], [[1.0]])
        four = _ce_loss([[0.5] * 4], [[1.0] * 4])
        assert four == pytest.approx(one, abs=1e-15)

    def test_gradient_closed_form(self):
        _, grad = cross_entropy_loss_and_gradient([[0.5, 0.25]], [[1.0, 0.0]])
        # (s - t) / (s (1 - s)) / N
        assert grad[0, 0] == pytest.approx((0.5 - 1.0) / 0.25 / 2, abs=1e-12)
        assert grad[0, 1] == pytest.approx((0.25 - 0.0) / (0.25 * 0.75) / 2, abs=1e-12)

    def test_gradient_zero_under_clamp(self):
        _, grad = cross_entropy_loss_and_gradient([[0.0, 1.0]], [[1.0, 1.0]])
        assert grad[0, 0] == 0.0
        assert grad[0, 1] == 0.0

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.2, 0.8, (3, 3))
        tgt = rng.uniform(0.0, 1.0, (3, 3))
        _, grad = cross_entropy_loss_and_gradient(pred, tgt)
        h = 1e-7
        for px in range(pred.size):
            plus, minus = pred.copy(), pred.copy()
            plus.flat[px] += h
            minus.flat[px] -= h
            fd = (_ce_loss(plus, tgt) - _ce_loss(minus, tgt)) / (2 * h)
            assert grad.flat[px] == pytest.approx(fd, rel=1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cross_entropy_loss_and_gradient([[0.1, 0.2]], [[0.1], [0.2]])


class TestDice:
    def test_frozen_value(self):
        # 1 - (2*1.5 + 1e-6) / (1.5 + 3 + 1e-6) = 1500000 / 4500001
        assert _dice_loss([[0.5, 0.5, 0.5]], [[1, 1, 1]]) == pytest.approx(
            1500000 / 4500001, abs=1e-15
        )

    def test_identity_binary_near_zero(self):
        mask = [[1, 0], [1, 1]]
        assert _dice_loss(np.array(mask, dtype=float), mask) < 1e-6

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.2, 0.8, (3, 3))
        mask = rng.uniform(size=(3, 3)) < 0.5
        _, grad = dice_loss_and_gradient(pred, mask)
        h = 1e-7
        for px in range(pred.size):
            plus, minus = pred.copy(), pred.copy()
            plus.flat[px] += h
            minus.flat[px] -= h
            fd = (_dice_loss(plus, mask) - _dice_loss(minus, mask)) / (2 * h)
            assert grad.flat[px] == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestSupervised:
    def test_frozen_combination(self):
        value, _ = supervised_loss_and_gradient([[0.5, 0.5, 0.5]], [[1, 1, 1]], 0.5, 0.5)
        expected = 0.5 * math.log(2) + 0.5 * (1500000 / 4500001)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_gradient_is_weighted_sum(self):
        rng = np.random.default_rng(7)
        pred = rng.uniform(0.2, 0.8, (2, 3))
        mask = rng.uniform(size=(2, 3)) < 0.5
        value, got = supervised_loss_and_gradient(pred, mask, 0.25, 0.75)
        ce, ce_grad = cross_entropy_loss_and_gradient(pred, mask.astype(float))
        dice, dice_grad = dice_loss_and_gradient(pred, mask)
        assert value == 0.25 * ce + 0.75 * dice
        assert np.array_equal(got, 0.25 * ce_grad + 0.75 * dice_grad)


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
                critical.update(part.birth_px.tolist())
                critical.update(part.death_px[~part.essential].tolist())
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

    def test_fortran_ordered_grids_get_the_same_gradient(self):
        rng = np.random.default_rng(12)
        student, teacher = random_distinct_grid(rng, 6, 8), random_distinct_grid(rng, 6, 8)
        report, grad = topo_loss_and_gradient(student, teacher, phi=0.3)
        f_report, f_grad = topo_loss_and_gradient(np.asfortranarray(student),
                                                  np.asfortranarray(teacher), phi=0.3)
        assert grad.any()
        assert np.array_equal(f_grad, grad)
        assert f_report.topo_loss == report.topo_loss

    @pytest.mark.parametrize("student, teacher, noise_mode, error, message", [
        ([0.1, 0.2], [[0.1, 0.2]], "squared-values", ValueError,
         "likelihood grid must be a nonempty 2D array, got shape (2,)"),
        ([[0.1, 0.2], [0.3, 0.4]], [[0.1, 0.2], [np.nan, 0.4]], "squared-values", GridFormatError,
         "value nan at pixel 2 is outside [0, 1]"),
        ([[0.1, 0.2]], [[0.1], [0.2]], "squared-values", ValueError,
         "shape mismatch: (1, 2) vs (2, 1)"),
        ([[0.1, 0.2]], [[0.1, 0.2]], "melt", ValueError,
         "noise_mode must be one of ('squared-values', 'diagonal'), got 'melt'"),
    ], ids=["1d-student", "nan-teacher", "shape-mismatch", "bad-noise-mode"])
    def test_single_fault_type_and_message(self, student, teacher, noise_mode, error, message):
        with pytest.raises(ValueError) as exc:
            topo_loss_and_gradient(student, teacher, noise_mode=noise_mode)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_hypothesis_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        student = rng.uniform(0.0, 1.0, (4, 4))
        teacher = rng.uniform(0.0, 1.0, (4, 4))
        report, _ = topo_loss_and_gradient(student, teacher, phi=float(rng.uniform(0, 1)))
        assert report.topo_loss >= 0.0


def _reduce_in_order(*columns):
    """The reference sum: a Python reduce over 0.0, then each dot's entries in column order."""
    return functools.reduce(operator.add, np.array(columns).T.ravel().tolist(), 0.0)


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 5e-324]),
                     st.floats(-1e300, 1e300, allow_nan=False))


class TestSumInOrder:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.lists(_ENTRIES, min_size=k, max_size=k), max_size=12))))
    @example((1, []))
    @example((3, []))
    @example((1, [[-0.0]]))
    @example((2, [[-0.0, -0.0], [-0.0, 0.0]]))
    @example((3, [[1e16, 1.0, -1e16], [1.0, -1e16, 1e16]]))
    def test_equals_the_python_reduce_bit_for_bit(self, case):
        """Sequential from 0.0, so the signs of zero sums and the order of roundings agree."""
        k, dots = case  # k columns, one row of k entries per dot
        columns = [np.array([dot[j] for dot in dots], dtype=np.float64) for j in range(k)]
        got, want = _sum_in_order(*columns), _reduce_in_order(*columns)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


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


def _frozen_pair(name):
    """Seeded (student, teacher) grids: distinct values, six-level ties, a smooth field."""
    rng = np.random.default_rng({"distinct-9x8": 101, "ties6-8x7": 102, "smooth-12x12": 103}[name])
    if name == "distinct-9x8":
        return random_distinct_grid(rng, 9, 8), random_distinct_grid(rng, 9, 8)
    if name == "ties6-8x7":
        return rng.integers(0, 6, (8, 7)) / 5.0, rng.integers(0, 6, (8, 7)) / 5.0
    y, x = np.mgrid[0:12, 0:12]
    smooth = 0.5 + 0.4 * np.sin(y / 2.3) * np.cos(x / 1.7)
    return smooth, np.clip(smooth + rng.normal(0.0, 0.05, smooth.shape), 0.0, 1.0)


def _trace_digest(trace):
    blob = repr(trace.records).encode() + trace.final_student.tobytes() + trace.final_teacher.tobytes()
    return hashlib.sha256(blob).hexdigest()


def _frozen_trace(scenario):
    if scenario == "noise-removal":
        config = TrainConfig(steps=50, learning_rate=0.1, ema_decay=0.0, lambda_u2=1.0,
                             ramp_k=0.0, noise_mode=NOISE_DIAGONAL)
        return run_simulation(likelihood_to_logits(noise_removal_grid()), config)
    teacher = three_basin_teacher()
    labeled = LabeledSupervision(teacher < 0.5, 0.3, 0.7) if "labeled" in scenario else None
    config = TrainConfig(steps=50, learning_rate=0.5, strong_noise_sigma=0.5, labeled=labeled,
                         topo_on_perturbed=scenario.endswith("topo-on-perturbed"))
    return run_simulation(perturbed_student_logits(teacher, sigma=0.5, seed=7), config,
                          likelihood_to_logits(teacher))


# SHA-256 of the gradient's bytes followed by repr((cons, rem)), at phi = 0.3, and of
# 50-step traces (repr of every StepRecord, then the final student and teacher bytes),
# recorded with the loss loop that visited one dot at a time. They pin the order of
# every floating-point addition in the loss and its gradient.
FROZEN_LOSS_DIGESTS = {
    "distinct-9x8/diagonal/sublevel/4": "da5ce20d412a15930aa41f3a7f7ce495558c761956d57f9dc9d5e6608ccc943b",
    "distinct-9x8/diagonal/sublevel/8": "44c0b7e32b12d2a81a9c0cb966a82140ecff718e0483b30dd12382d9f6dfe2c7",
    "distinct-9x8/diagonal/superlevel/4": "57ce52c1a26dc90be32f6388119ddabf50aec516ba56f74121d079e4a0627b9d",
    "distinct-9x8/diagonal/superlevel/8": "57d6c98cc799d9e933b83b3445477b0088b6a602dfe2225b584f9f6c6aecdc42",
    "distinct-9x8/squared-values/sublevel/4": "062b1e37170732946d69f2b341c8c39412ed7d92698080aac8927beff1a77ff0",
    "distinct-9x8/squared-values/sublevel/8": "d8455c711b7799bf8312c7027653f85ae926ae1f13ecf8a609301571ca0990af",
    "distinct-9x8/squared-values/superlevel/4": "74755cdc7ec053f37e7f74ad5556af75066ab09246411f9f717b436dc713f4b8",
    "distinct-9x8/squared-values/superlevel/8": "02c970b152041eacec39465756a82c60f8261e979980e844869a3cc5c83d8d57",
    "smooth-12x12/diagonal/sublevel/4": "0d02d7011995955b8d66143981ed6d9a0058d944d1c1f91e3671a60af568eae9",
    "smooth-12x12/diagonal/sublevel/8": "9eb4e5a597809ebee22b6339b672831e4b84660a0476ac98bd1951a84fd1076d",
    "smooth-12x12/diagonal/superlevel/4": "fd5e1f582006914e5f22b5c1e99d89baf19958b2d40df91c967965d177f1ba3d",
    "smooth-12x12/diagonal/superlevel/8": "232211d0d0ef0caff5c2055e264ad1920afecb7ea4ae3879bb98c603581ec3e2",
    "smooth-12x12/squared-values/sublevel/4": "8317c5bf06e91c6b4bdef019015b9c55f71b7a85f27151d92b699f22a9b0c34a",
    "smooth-12x12/squared-values/sublevel/8": "60f4d8f65fae6baa5a11d34279f1034c3597f0895e26ee96b39abc41389f731c",
    "smooth-12x12/squared-values/superlevel/4": "fd5e1f582006914e5f22b5c1e99d89baf19958b2d40df91c967965d177f1ba3d",
    "smooth-12x12/squared-values/superlevel/8": "232211d0d0ef0caff5c2055e264ad1920afecb7ea4ae3879bb98c603581ec3e2",
    "ties6-8x7/diagonal/sublevel/4": "4fe99accb6afd6bb653b37e13c7eb3f0aa88a6b2c7112cffc860d19f9d1ece7c",
    "ties6-8x7/diagonal/sublevel/8": "81119b1b736eb694e060cae4ac82d087672e31b8ca8431b4f9953cd1f71c46ef",
    "ties6-8x7/diagonal/superlevel/4": "82b2c44fe50fc892dd977f18dd15916b7b10cecc05d8115422be4429a5a21b05",
    "ties6-8x7/diagonal/superlevel/8": "06c52bda396a7c5d0072a8ba0192cc8798719413c871e1a150d1de7495204b95",
    "ties6-8x7/squared-values/sublevel/4": "617aa824c7f4156eec27f5c23fb74533ec3e8a5368725e48462fa15bbbd0d11b",
    "ties6-8x7/squared-values/sublevel/8": "5e7b85e5c2e25219c090260fd25a088f8aa6ace105f398cacec71eaae8e67e9b",
    "ties6-8x7/squared-values/superlevel/4": "541c76acecda9a378cced08dcf4c368c2d9443afe087119c20f355fc410484d0",
    "ties6-8x7/squared-values/superlevel/8": "2a0efec29a21b9475fef67f5cf45eac6e519f74908bb435f3caf744b33a3651f",
}
FROZEN_TRACE_DIGESTS = {
    "noise-removal": "149e682a3b643c3b58c50070ce3d1774b1bd5187b93aed2aa4b80d0f30c0afad",
    "three-basins": "c27c940e9984535b9962902f4945de4b379242b07162c72a22da99e73689f18d",
}
# The same for three-basins traces with the supervised term, recorded with the loss module
# that computed each pixel loss and its gradient in separate functions.
FROZEN_SUPERVISED_TRACE_DIGESTS = {
    "three-basins/labeled": "39fba665894b0f44c41f50999b154fe12f1bb302b3278af3198f15a124cd8099",
    "three-basins/labeled/topo-on-perturbed":
        "a6db8af36ff8a5b866c086f106b1f5fe75cf0970a541823a4d11b16a5bcee4f3",
}
# SHA-256 of write_trace_csv's file for the same two traces, recorded with the writer
# that formatted each row with format_real in Python.
FROZEN_TRACE_CSV_DIGESTS = {
    "noise-removal": "bacadd618fa05e02acf07c5ca3a5b65b8587e9725c1b48b6089cfdfdab77531c",
    "three-basins": "2f45c9e3aa0cc2510b0a92e38a2ea54cc529fd8b37aeb3ae3ecf889c37d84a28",
}


class TestFrozenBytes:
    @pytest.mark.parametrize("case", sorted(FROZEN_LOSS_DIGESTS))
    def test_loss_and_gradient_digest(self, case):
        name, mode, direction, connectivity = case.split("/")
        student, teacher = _frozen_pair(name)
        report, grad = topo_loss_and_gradient(student, teacher, 0.3, direction,
                                              int(connectivity), mode)
        blob = grad.tobytes() + repr((report.cons_loss, report.rem_loss)).encode()
        assert hashlib.sha256(blob).hexdigest() == FROZEN_LOSS_DIGESTS[case]

    @pytest.mark.parametrize("scenario", sorted(FROZEN_TRACE_DIGESTS))
    def test_trainer_trace_digest(self, scenario):
        assert _trace_digest(_frozen_trace(scenario)) == FROZEN_TRACE_DIGESTS[scenario]

    @pytest.mark.parametrize("scenario", sorted(FROZEN_SUPERVISED_TRACE_DIGESTS))
    def test_supervised_trace_digest(self, scenario):
        assert _trace_digest(_frozen_trace(scenario)) == FROZEN_SUPERVISED_TRACE_DIGESTS[scenario]

    @pytest.mark.parametrize("scenario", sorted(FROZEN_TRACE_CSV_DIGESTS))
    def test_trainer_trace_csv_digest(self, scenario, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(_frozen_trace(scenario), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_TRACE_CSV_DIGESTS[scenario]
