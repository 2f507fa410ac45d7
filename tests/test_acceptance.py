"""Acceptance gate: ten end-to-end checks, one pass/fail line each under -v.

Each test states its tolerance and (where applicable) runtime budget inline.
Random inputs are seeded so every run exercises the same cases.
"""

import math
import time

import numpy as np
import pytest

from topokit.diagram import decompose
from topokit.grid import SUBLEVEL, label_components, threshold
from topokit.losses import NOISE_DIAGONAL, finite_difference_check
from topokit.matching import match_diagrams
from topokit.metrics import (
    betti_error,
    betti_matching_error,
    variation_of_information,
)
from topokit.persistence import compute_diagram
from topokit.scenarios import (
    noise_removal_grid,
    perturbed_student_logits,
    three_basin_teacher,
)
from topokit.trainer import (
    TrainConfig,
    likelihood_to_logits,
    run_simulation,
    write_trace_csv,
)

from _support import (
    betti_curve,
    brute_bottleneck,
    brute_wasserstein,
    diagram_from_pairs,
    oracle_diagram,
    random_diagram_pairs,
)


def _distinct_uniform_grid(rng, shape):
    while True:
        values = rng.uniform(0.0, 1.0, shape)
        if np.unique(values).size == values.size:
            return values


def _dot_multiset(diagram):
    return sorted(zip(diagram.birth.tolist(), diagram.death.tolist()))


# -- consistency-training run shared by criteria 8 and 10 ---------------------

CONSISTENCY_CONFIG = TrainConfig(
    steps=1000,
    learning_rate=0.5,
    ema_decay=0.999,
    phi=0.7,
    lambda_u2=0.002,
    ramp_k=0.1,
    strong_noise_sigma=0.5,
    seed=0,
)


def _run_consistency_training():
    teacher = three_basin_teacher()
    student0 = perturbed_student_logits(teacher, sigma=0.5, seed=7)
    trace = run_simulation(student0, CONSISTENCY_CONFIG, likelihood_to_logits(teacher))
    return teacher, trace


@pytest.fixture(scope="module")
def consistency_run():
    return _run_consistency_training()


def test_criterion_01_diagram_matches_oracle_on_1000_grids():
    # exact multiset equality of (birth, death) pairs; budget 30 s
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        grid = _distinct_uniform_grid(rng, (8, 8))
        fast = compute_diagram(grid)
        slow = oracle_diagram(grid)
        assert _dot_multiset(fast) == _dot_multiset(slow)
    assert time.perf_counter() - start < 30.0


def test_criterion_02_betti_curve_matches_component_counts():
    # exact equality at every distinct threshold of each grid; budget 30 s
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    for trial in range(200):
        if trial % 2 == 0:
            grid = rng.uniform(0.0, 1.0, (8, 8))
        else:
            grid = np.round(rng.uniform(0.0, 1.0, (8, 8)), 1)  # deliberate ties
        diagram = compute_diagram(grid)
        for c in np.unique(grid):
            mask = threshold(grid, c, SUBLEVEL)
            assert label_components(mask, 4).count == betti_curve(diagram, c)
    assert time.perf_counter() - start < 30.0


def test_criterion_03_quad_grid_finite_dot():
    diagram = compute_diagram(np.array([[0.42, 0.46, 0.30, 0.90]]))
    finite = ~diagram.essential
    assert list(zip(diagram.birth[finite].tolist(), diagram.death[finite].tolist())) == [(0.42, 0.46)]


def test_criterion_04_wasserstein_metric_axioms_and_brute_force():
    # identity exact; symmetry/triangle within 1e-9 on 200 triples;
    # solver equals exhaustive matching whenever both diagrams hold <= 6 dots;
    # budget 60 s
    rng = np.random.default_rng(104)
    start = time.perf_counter()

    for _ in range(20):
        diagram = diagram_from_pairs(random_diagram_pairs(rng, 4))
        for p in (1.0, 2.0, math.inf):
            assert match_diagrams(diagram, diagram, p).cost == 0.0

    for _ in range(200):
        a, b, c = (diagram_from_pairs(random_diagram_pairs(rng, 4)) for _ in range(3))
        dab = match_diagrams(a, b, 2.0).cost
        dba = match_diagrams(b, a, 2.0).cost
        dbc = match_diagrams(b, c, 2.0).cost
        dac = match_diagrams(a, c, 2.0).cost
        assert abs(dab - dba) <= 1e-9
        assert dac <= dab + dbc + 1e-9

    for _ in range(150):
        n = int(rng.integers(0, 4))
        m = int(rng.integers(0, 7 - n))
        left = random_diagram_pairs(rng, 3)[:n]
        right = random_diagram_pairs(rng, 3)[:m]
        dl, dr = diagram_from_pairs(left), diagram_from_pairs(right)
        for p in (1.0, 2.0):
            assert match_diagrams(dl, dr, p).cost == pytest.approx(
                brute_wasserstein(left, right, p), abs=1e-12
            )
        assert match_diagrams(dl, dr, math.inf).cost == pytest.approx(
            brute_bottleneck(left, right), abs=1e-12
        )
    assert time.perf_counter() - start < 60.0


def test_criterion_05_bottleneck_stability_under_perturbation():
    # sup-norm perturbation by eps = 0.01 moves the diagram by at most eps
    rng = np.random.default_rng(105)
    eps = 0.01
    for _ in range(100):
        grid = rng.uniform(0.0, 1.0, (16, 16))
        noisy = np.clip(grid + rng.uniform(-eps, eps, grid.shape), 0.0, 1.0)
        distance = match_diagrams(
            compute_diagram(grid), compute_diagram(noisy), math.inf
        ).cost
        assert distance <= eps + 1e-9


def _gapped_grid(rng, shape=(6, 6), min_gap=1e-3):
    # continuous values, resampled until every pairwise gap clears min_gap;
    # continuous draws avoid the exact matching-cost ties a shared value
    # lattice would create, which would put kinks at the evaluation point
    n = shape[0] * shape[1]
    while True:
        values = np.sort(rng.uniform(0.05, 0.95, n))
        if np.diff(values).min() >= min_gap:
            return rng.permutation(values).reshape(shape)


def test_criterion_06_analytic_gradient_matches_central_differences():
    # max relative error < 1e-3 at every critical pixel, h = 1e-5
    rng = np.random.default_rng(106)
    for trial in range(50):
        student = _gapped_grid(rng)
        teacher = _gapped_grid(rng)
        phi = (0.2, 0.5, 0.7)[trial % 3]
        err = finite_difference_check(student, teacher, phi=phi, h=1e-5)
        assert err < 1e-3


def test_criterion_07_noise_removal_flattens_all_dents():
    # the 32x32 scenario starts with 3 deep minima and 10 shallow dents;
    # driving only the removal term at eta = 0.1 must leave no dot of
    # persistence > 1e-3 beyond the 3 deep ones within 500 steps; budget 60 s
    start = time.perf_counter()
    grid = noise_removal_grid()
    before = decompose(compute_diagram(grid), 0.7)
    assert len(before.signal) == 3
    assert len(before.noise) == 10
    assert (before.noise.persistence < 0.7).all()

    config = TrainConfig(
        steps=500,
        learning_rate=0.1,
        ema_decay=0.0,        # teacher tracks the student: no consistency pull
        phi=0.7,
        lambda_u2=1.0,        # removal term only, at full weight
        ramp_k=0.0,           # no pixel-consistency term
        strong_noise_sigma=0.0,
        noise_mode=NOISE_DIAGONAL,
        seed=0,
    )
    trace = run_simulation(likelihood_to_logits(grid), config)
    assert all(r.cons_loss == 0.0 for r in trace.records)

    after = decompose(compute_diagram(trace.final_student), 0.7)
    assert len(after.signal) == 3
    assert not (after.noise.persistence > 1e-3).any()
    assert time.perf_counter() - start < 60.0


def test_criterion_08_consistency_training_keeps_three_components(consistency_run):
    teacher, trace = consistency_run
    reference = threshold(teacher, 0.5, SUBLEVEL)
    assert label_components(reference, 4).count == 3

    mask = threshold(trace.final_student, 0.5, SUBLEVEL)
    assert label_components(mask, 4).count == 3
    assert betti_error(mask, reference) == 0.0   # single global window


def test_criterion_09_mask_metric_axioms():
    rng = np.random.default_rng(109)
    for _ in range(100):
        mask = rng.uniform(size=(8, 8)) < 0.4
        assert betti_error(mask, mask) == 0.0
        assert betti_matching_error(mask, mask) == 0
        assert variation_of_information(mask, mask) == 0.0

    for _ in range(100):
        a = rng.uniform(size=(8, 8)) < 0.4
        b = rng.uniform(size=(8, 8)) < 0.4
        assert abs(variation_of_information(a, b)
                   - variation_of_information(b, a)) <= 1e-9

    for _ in range(100):
        a, b, c = (rng.uniform(size=(8, 8)) < 0.4 for _ in range(3))
        vac = variation_of_information(a, c)
        vab = variation_of_information(a, b)
        vbc = variation_of_information(b, c)
        assert vac <= vab + vbc + 1e-9

    half_split = variation_of_information([[1, 1], [0, 0]], [[1, 1], [1, 1]])
    assert abs(half_split - math.log(2)) <= 1e-9


def test_criterion_10_trace_is_byte_identical_across_reruns(consistency_run, tmp_path):
    _, first_trace = consistency_run
    _, second_trace = _run_consistency_training()
    first_path = tmp_path / "first.csv"
    second_path = tmp_path / "second.csv"
    write_trace_csv(first_trace, first_path)
    write_trace_csv(second_trace, second_path)
    assert first_path.read_bytes() == second_path.read_bytes()
    assert first_path.read_bytes().startswith(b"step,")
