"""Teacher-student training loop: ramp, EMA, determinism, trace output."""

import csv
import math

import numpy as np
import pytest
from scipy.special import expit

from topokit.diagram import decompose
from topokit.losses import NOISE_DIAGONAL
from topokit.persistence import compute_diagram
from topokit.trainer import (
    TRACE_CSV_HEADER,
    LabeledSupervision,
    TrainConfig,
    ema_update,
    likelihood_to_logits,
    ramp_up_weight,
    run_simulation,
    write_trace_csv,
)

from _support import random_distinct_grid


class TestRampUpWeight:
    def test_frozen_endpoints(self):
        assert ramp_up_weight(0, 100, 0.1) == pytest.approx(
            6.737946999085467e-4, abs=1e-18
        )
        assert ramp_up_weight(100, 100, 0.1) == 0.1
        assert ramp_up_weight(1, 1, 0.1) == 0.1

    def test_monotone_nondecreasing(self):
        values = [ramp_up_weight(t, 50, 0.3) for t in range(51)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_zero_k(self):
        assert ramp_up_weight(17, 40, 0.0) == 0.0

    def test_midpoint_value(self):
        assert ramp_up_weight(50, 100, 1.0) == pytest.approx(
            math.exp(-5.0 * 0.25), abs=1e-15
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="total_steps"):
            ramp_up_weight(0, 0, 0.1)
        with pytest.raises(ValueError, match="outside"):
            ramp_up_weight(-1, 10, 0.1)
        with pytest.raises(ValueError, match="outside"):
            ramp_up_weight(11, 10, 0.1)


class TestEmaUpdate:
    def test_frozen_value(self):
        out = ema_update([[0.5]], [[0.7]], 0.999)
        assert out[0, 0] == pytest.approx(0.5002, abs=1e-15)

    def test_alpha_zero_copies_student(self):
        student = [[1.25, -3.5]]
        assert ema_update([[9.0, 9.0]], student, 0.0).tolist() == student

    def test_contraction_rate(self):
        teacher = np.array([[2.0]])
        student = np.array([[-1.0]])
        alpha = 0.9
        t = teacher.copy()
        for _ in range(10):
            t = ema_update(t, student, alpha)
        expected = student + alpha**10 * (teacher - student)
        assert t[0, 0] == pytest.approx(expected[0, 0], rel=1e-12)

    def test_rejects_bad_alpha_and_shapes(self):
        with pytest.raises(ValueError, match="alpha"):
            ema_update([[0.0]], [[0.0]], 1.0)
        with pytest.raises(ValueError, match="alpha"):
            ema_update([[0.0]], [[0.0]], -0.1)
        with pytest.raises(ValueError, match="shape"):
            ema_update([[0.0]], [[0.0, 1.0]], 0.5)


class TestLikelihoodToLogits:
    def test_round_trip(self):
        grid = np.array([[0.01, 0.25], [0.5, 0.99]])
        back = expit(likelihood_to_logits(grid))
        assert np.allclose(back, grid, atol=1e-12)

    def test_saturated_values_clip_to_finite(self):
        logits = likelihood_to_logits([[0.0, 1.0]])
        assert np.isfinite(logits).all()
        assert logits[0, 1] == pytest.approx(-logits[0, 0], abs=1e-9)
        assert logits[0, 1] == pytest.approx(math.log((1 - 1e-6) / 1e-6), abs=1e-9)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        TrainConfig(steps=1).validate()

    @pytest.mark.parametrize("kwargs", [
        {"steps": 0},
        {"steps": 5, "learning_rate": 0.0},
        {"steps": 5, "ema_decay": 1.0},
        {"steps": 5, "ema_decay": -0.2},
        {"steps": 5, "phi": -0.1},
        {"steps": 5, "lambda_u2": -1.0},
        {"steps": 5, "ramp_k": -0.5},
        {"steps": 5, "strong_noise_sigma": -1.0},
        {"steps": 5, "noise_mode": "melt"},
    ] + [
        {"steps": 5, name: bad}
        for name in ("learning_rate", "ema_decay", "phi", "lambda_u2", "ramp_k",
                     "strong_noise_sigma")
        for bad in (math.nan, math.inf, -math.inf)
    ] + [
        {"steps": 5, "labeled": LabeledSupervision(np.ones((2, 2)), **{name: bad})}
        for name in ("w1", "w2")
        for bad in (math.nan, math.inf, -math.inf)
    ])
    def test_rejected_configs(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()

    def test_run_rejects_bad_inputs(self):
        config = TrainConfig(steps=1)
        with pytest.raises(ValueError, match="2D"):
            run_simulation([0.1, 0.2], config)
        with pytest.raises(ValueError, match="teacher shape"):
            run_simulation([[0.1, 0.2]], config, teacher_init_logits=[[0.1]])
        labeled = TrainConfig(steps=1, labeled=LabeledSupervision(np.ones((3, 3))))
        with pytest.raises(ValueError, match="labeled mask"):
            run_simulation([[0.1, 0.2]], labeled)


class TestRunSimulation:
    def test_single_step_single_record(self):
        trace = run_simulation([[0.2, -0.4]], TrainConfig(steps=1))
        assert len(trace.records) == 1
        rec = trace.records[0]
        assert rec.step == 1
        assert rec.ramp_weight == 0.1          # ramp reaches k at the final step
        assert trace.final_student.shape == (1, 2)

    def test_steps_are_sequential(self):
        trace = run_simulation([[0.2, -0.4]], TrainConfig(steps=5))
        assert [r.step for r in trace.records] == [1, 2, 3, 4, 5]
        for tau, rec in enumerate(trace.records, start=1):
            assert rec.ramp_weight == ramp_up_weight(tau, 5, 0.1)

    def test_fixed_point_on_binary_teacher(self):
        # student == teacher, near-binary values, no topo pull: gradients vanish
        # and the pixel loss sits at the entropy floor of the saturated sigmoid.
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        config = TrainConfig(steps=50, lambda_u2=0.0)
        trace = run_simulation(logits, config)
        assert 0.0 < trace.records[0].pixel_loss < 1e-3
        drift = np.abs(trace.final_student - expit(logits)).max()
        assert drift < 1e-12

    def test_teacher_contracts_toward_constant_student(self):
        # with every loss weight at zero the student never moves, so the
        # teacher relaxes toward it at exactly ema_decay per step
        student = np.full((2, 2), 0.5)
        teacher0 = np.full((2, 2), -1.5)
        config = TrainConfig(steps=20, lambda_u2=0.0, ramp_k=0.0, ema_decay=0.9)
        trace = run_simulation(student, config, teacher_init_logits=teacher0)
        expected = expit(student + 0.9**20 * (teacher0 - student))
        assert np.allclose(trace.final_teacher, expected, atol=1e-12)
        assert np.array_equal(trace.final_student, expit(student))

    def test_first_record_matches_direct_topo_computation(self):
        rng = np.random.default_rng(31)
        grid = random_distinct_grid(rng, 6, 6)
        student = likelihood_to_logits(grid)
        teacher = likelihood_to_logits(random_distinct_grid(rng, 6, 6))
        config = TrainConfig(steps=1, phi=0.4)
        trace = run_simulation(student, config, teacher_init_logits=teacher)
        dec = decompose(compute_diagram(expit(student)), 0.4)
        rec = trace.records[0]
        assert rec.signal_dots == len(dec.signal.dots)
        assert rec.noise_dots == len(dec.noise.dots)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(37)
        init = rng.normal(size=(5, 5))
        config = TrainConfig(steps=8, strong_noise_sigma=0.7, seed=123)
        a = run_simulation(init, config)
        b = run_simulation(init, config)
        assert a.records == b.records
        assert np.array_equal(a.final_student, b.final_student)
        assert np.array_equal(a.final_teacher, b.final_teacher)

    def test_seed_changes_noisy_run(self):
        rng = np.random.default_rng(41)
        init = rng.normal(size=(5, 5))
        a = run_simulation(init, TrainConfig(steps=8, strong_noise_sigma=0.7, seed=1))
        b = run_simulation(init, TrainConfig(steps=8, strong_noise_sigma=0.7, seed=2))
        assert not np.array_equal(a.final_student, b.final_student)

    def test_topo_on_perturbed_changes_topo_input(self):
        rng = np.random.default_rng(43)
        init = likelihood_to_logits(random_distinct_grid(rng, 6, 6))
        base = dict(steps=3, strong_noise_sigma=1.0, seed=5, lambda_u2=0.01)
        clean = run_simulation(init, TrainConfig(**base))
        noisy = run_simulation(init, TrainConfig(**base, topo_on_perturbed=True))
        assert clean.records[0].rem_loss != noisy.records[0].rem_loss

    def test_labeled_term_pulls_toward_mask(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2] = True
        init = np.zeros((4, 4))                # likelihood 0.5 everywhere
        config = TrainConfig(steps=60, learning_rate=2.0, lambda_u2=0.0,
                             ramp_k=0.0, labeled=LabeledSupervision(mask))
        trace = run_simulation(init, config)
        before = np.abs(expit(init) - mask).mean()
        after = np.abs(trace.final_student - mask).mean()
        assert after < before - 0.1

    def test_diagonal_noise_mode_accepted(self):
        rng = np.random.default_rng(47)
        init = likelihood_to_logits(random_distinct_grid(rng, 5, 5))
        trace = run_simulation(
            init, TrainConfig(steps=2, noise_mode=NOISE_DIAGONAL, phi=1.0)
        )
        assert trace.records[0].rem_loss > 0.0
        assert trace.records[0].cons_loss == 0.0


class TestTraceCsv:
    def test_header_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(53)
        init = likelihood_to_logits(random_distinct_grid(rng, 5, 5))
        trace = run_simulation(init, TrainConfig(steps=4, strong_noise_sigma=0.3))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(TRACE_CSV_HEADER)
        assert len(lines) == 1 + len(trace.records)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for rec, row in zip(trace.records, rows):
            assert int(row["step"]) == rec.step
            assert int(row["signal_dots"]) == rec.signal_dots
            assert int(row["noise_dots"]) == rec.noise_dots
            for name in ("ramp_weight", "pixel_loss", "cons_loss", "rem_loss"):
                assert float(row[name]) == pytest.approx(
                    getattr(rec, name), rel=1e-8, abs=1e-12
                )

    def test_rewrite_is_byte_identical(self, tmp_path):
        init = [[0.3, -0.6], [1.2, 0.1]]
        trace = run_simulation(init, TrainConfig(steps=3, strong_noise_sigma=0.2))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_trace_csv(trace, first)
        write_trace_csv(trace, second)
        assert first.read_bytes() == second.read_bytes()
