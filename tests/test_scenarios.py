"""Synthetic likelihood grids used by the experiments and the end-to-end tests."""

import numpy as np
import pytest
from scipy.special import expit

from topokit.diagram import decompose
from topokit.grid import SUBLEVEL, label_components, threshold
from topokit.persistence import compute_diagram
from topokit.scenarios import (
    DENT_COUNT,
    GRID_SIZE,
    noise_removal_grid,
    perturbed_student_logits,
    three_basin_teacher,
)
from topokit.trainer import likelihood_to_logits


class TestNoiseRemovalGrid:
    def test_dot_inventory(self):
        grid = noise_removal_grid()
        assert grid.shape == (GRID_SIZE, GRID_SIZE)
        assert grid.min() >= 0.0 and grid.max() <= 1.0
        diagram = compute_diagram(grid)
        assert len(diagram) == 3 + DENT_COUNT
        assert diagram.birth[diagram.essential].tolist() == [pytest.approx(0.03, abs=1e-12)]
        assert diagram.death[diagram.essential].tolist() == [1.0]

    def test_decomposition_at_default_threshold(self):
        dec = decompose(compute_diagram(noise_removal_grid()), 0.7)
        assert len(dec.signal) == 3
        assert len(dec.noise) == DENT_COUNT
        noise_pers = sorted(round(p, 12) for p in dec.noise.persistence.tolist())
        assert noise_pers == pytest.approx(
            [0.111, 0.112, 0.113, 0.114, 0.115, 0.116, 0.117, 0.118, 0.119, 0.12],
            abs=1e-12,
        )
        signal_pers = sorted(dec.signal.persistence.tolist())
        assert signal_pers == pytest.approx([0.874, 0.879, 0.97], abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(noise_removal_grid(), noise_removal_grid())


class TestThreeBasinTeacher:
    def test_dot_inventory(self):
        grid = three_basin_teacher()
        assert grid.shape == (GRID_SIZE, GRID_SIZE)
        diagram = compute_diagram(grid)
        assert len(diagram) == 3
        pers = sorted(diagram.persistence.tolist())
        assert pers == pytest.approx([0.878, 0.882, 0.95], abs=1e-12)
        dec = decompose(diagram, 0.7)
        assert len(dec.signal) == 3
        assert len(dec.noise) == 0

    def test_half_threshold_mask_has_three_components(self):
        mask = threshold(three_basin_teacher(), 0.5, SUBLEVEL)
        labeled = label_components(mask, 4)
        assert labeled.count == 3
        assert int(mask.sum()) == 75

    def test_deterministic(self):
        assert np.array_equal(three_basin_teacher(), three_basin_teacher())


class TestPerturbedStudentLogits:
    def test_deterministic_given_seed(self):
        teacher = three_basin_teacher()
        a = perturbed_student_logits(teacher)
        b = perturbed_student_logits(teacher)
        assert np.array_equal(a, b)
        c = perturbed_student_logits(teacher, seed=8)
        assert not np.array_equal(a, c)

    def test_zero_sigma_recovers_teacher(self):
        teacher = three_basin_teacher()
        logits = perturbed_student_logits(teacher, sigma=0.0)
        assert np.allclose(expit(logits), teacher, atol=1e-9)
        assert np.array_equal(logits, likelihood_to_logits(teacher))

    def test_noise_scale(self):
        teacher = three_basin_teacher()
        clean = likelihood_to_logits(teacher)
        noisy = perturbed_student_logits(teacher, sigma=0.5, seed=7)
        residual = noisy - clean
        assert 0.3 < residual.std() < 0.7
        assert abs(residual.mean()) < 0.1
