"""Desk-scale teacher-student simulator on likelihood grids.

The student is a raw logit grid whose likelihood is its sigmoid; the
teacher is an exponential moving average of the student logits. Each step
optimizes

    total = [supervised]  + ramp(tau) * CE(strong student, teacher)
                          + lambda_u2 * (consistency + removal)

by plain gradient descent on the student logits, with the strong view
formed by additive Gaussian logit noise and the weak (teacher) view left
unperturbed. Gradients are analytic, chained through the sigmoid
(df/dlogit = f(1-f)); the teacher is never differentiated through.
Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .diagram import DEFAULT_PHI
from .grid import REAL_FORMAT, as_mask, save_csv_table
from .losses import (
    NOISE_MODES,
    NOISE_SQUARED,
    cross_entropy_loss_and_gradient,
    supervised_loss_and_gradient,
    topo_loss_and_gradient,
)


@dataclass(frozen=True)
class LabeledSupervision:
    """Ground-truth mask and weights for the optional supervised term."""

    mask: np.ndarray
    w1: float = 0.5
    w2: float = 0.5


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    learning_rate: float = 0.1
    ema_decay: float = 0.999
    phi: float = DEFAULT_PHI
    lambda_u2: float = 0.002
    ramp_k: float = 0.1
    strong_noise_sigma: float = 0.0
    noise_mode: str = NOISE_SQUARED
    seed: int = 0
    topo_on_perturbed: bool = False
    labeled: LabeledSupervision | None = None

    def validate(self) -> None:
        values = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]
        if self.labeled is not None:
            values += [("labeled.w1", self.labeled.w1), ("labeled.w2", self.labeled.w2)]
        for name, value in values:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must be in [0, 1), got {self.ema_decay}")
        if self.phi < 0.0:
            raise ValueError(f"phi must be nonnegative, got {self.phi}")
        if self.lambda_u2 < 0.0:
            raise ValueError(f"lambda_u2 must be nonnegative, got {self.lambda_u2}")
        if self.ramp_k < 0.0:
            raise ValueError(f"ramp_k must be nonnegative, got {self.ramp_k}")
        if self.strong_noise_sigma < 0.0:
            raise ValueError(f"strong_noise_sigma must be nonnegative, got {self.strong_noise_sigma}")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}")


@dataclass(frozen=True)
class StepRecord:
    step: int
    ramp_weight: float
    pixel_loss: float
    cons_loss: float
    rem_loss: float
    signal_dots: int
    noise_dots: int


TRACE_CSV_HEADER = [f.name for f in fields(StepRecord)]


@dataclass
class TrainTrace:
    records: list[StepRecord] = field(default_factory=list)
    final_student: np.ndarray | None = None  # likelihoods, not logits
    final_teacher: np.ndarray | None = None


def ramp_up_weight(tau: int, total_steps: int, k: float) -> float:
    """k * exp(-5 * (1 - tau/total)^2); reaches k exactly at tau = total."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= tau <= total_steps:
        raise ValueError(f"step index {tau} outside [0, {total_steps}]")
    frac = 1.0 - tau / total_steps
    return k * math.exp(-5.0 * frac * frac)


def ema_update(teacher_logits, student_logits, alpha: float) -> np.ndarray:
    """teacher <- alpha * teacher + (1 - alpha) * student, elementwise."""
    teacher = np.asarray(teacher_logits, dtype=np.float64)
    student = np.asarray(student_logits, dtype=np.float64)
    if teacher.shape != student.shape:
        raise ValueError(f"shape mismatch: {teacher.shape} vs {student.shape}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return alpha * teacher + (1.0 - alpha) * student


@np.errstate(over="ignore", invalid="ignore")  # a diverging run raises instead
def run_simulation(student_init_logits, config: TrainConfig,
                   teacher_init_logits=None) -> TrainTrace:
    """Run the full loop; the teacher starts as a copy of the student unless given."""
    from scipy.special import expit

    config.validate()
    theta_s = np.array(student_init_logits, dtype=np.float64)
    if theta_s.ndim != 2 or theta_s.size == 0:
        raise ValueError(f"student logits must be a nonempty 2D array, got {theta_s.shape}")
    if teacher_init_logits is None:
        theta_t = theta_s.copy()
    else:
        theta_t = np.array(teacher_init_logits, dtype=np.float64)
        if theta_t.shape != theta_s.shape:
            raise ValueError(f"teacher shape {theta_t.shape} != student shape {theta_s.shape}")
    if config.labeled is not None and as_mask(config.labeled.mask).shape != theta_s.shape:
        raise ValueError("labeled mask shape does not match the student grid")

    rng = np.random.default_rng(config.seed)
    trace = TrainTrace()
    for tau in range(1, config.steps + 1):
        f_teacher = expit(theta_t)
        f_clean = expit(theta_s)
        f_strong = f_clean
        if config.strong_noise_sigma > 0.0:
            f_strong = expit(theta_s + rng.normal(0.0, config.strong_noise_sigma, theta_s.shape))

        lam1 = ramp_up_weight(tau, config.steps, config.ramp_k)
        pixel, pixel_grad = cross_entropy_loss_and_gradient(f_strong, f_teacher)
        grad = lam1 * pixel_grad * f_strong * (1.0 - f_strong)

        topo_in = f_strong if config.topo_on_perturbed else f_clean
        report, topo_grad = topo_loss_and_gradient(
            topo_in, f_teacher, config.phi, noise_mode=config.noise_mode
        )
        grad += config.lambda_u2 * topo_grad * topo_in * (1.0 - topo_in)

        if config.labeled is not None:
            sup = config.labeled
            _, sup_grad = supervised_loss_and_gradient(f_clean, sup.mask, sup.w1, sup.w2)
            grad += sup_grad * f_clean * (1.0 - f_clean)

        theta_s = theta_s - config.learning_rate * grad
        if not np.isfinite(theta_s).all():
            raise ValueError(f"student logits are not finite after step {tau}: the run diverged")
        theta_t = ema_update(theta_t, theta_s, config.ema_decay)
        dec = report.student_decomposition
        trace.records.append(StepRecord(
            step=tau,
            ramp_weight=lam1,
            pixel_loss=pixel,
            cons_loss=report.cons_loss,
            rem_loss=report.rem_loss,
            signal_dots=len(dec.signal),
            noise_dots=len(dec.noise),
        ))
    trace.final_student = expit(theta_s)
    trace.final_teacher = expit(theta_t)
    return trace


def write_trace_csv(trace: TrainTrace, path) -> None:
    table = np.array([[getattr(r, name) for name in TRACE_CSV_HEADER] for r in trace.records],
                     dtype=object).reshape(-1, len(TRACE_CSV_HEADER))  # object: ints stay ints
    formats = ["%d" if f.type == "int" else REAL_FORMAT for f in fields(StepRecord)]
    save_csv_table(table, path, formats, ",".join(TRACE_CSV_HEADER))


def likelihood_to_logits(grid, clip: float = 1e-6) -> np.ndarray:
    """Inverse sigmoid with clipping away from 0 and 1."""
    g = np.clip(np.asarray(grid, dtype=np.float64), clip, 1.0 - clip)
    return np.log(g / (1.0 - g))
