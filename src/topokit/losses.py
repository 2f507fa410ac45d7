"""Loss terms, each one call returning (loss, gradient), and a gradient check.

The pixel terms are cross_entropy_loss_and_gradient, dice_loss_and_gradient
and supervised_loss_and_gradient, their weighted sum against a mask. The
topological losses (topo_loss_and_gradient) compare the student likelihood
against a fixed teacher likelihood through their persistence diagrams:

* signal consistency: student dots with persistence above the threshold are
  matched to the teacher's signal dots (exact 2-Wasserstein matching) and
  their birth/death values, which live at the student's critical pixels,
  are pulled toward the matched targets; a diagonal match pulls a dot
  toward its own diagonal projection ((b+d)/2, (b+d)/2),
* noise removal: student dots at or below the threshold have their critical
  values pushed toward zero (default), or collapsed onto the diagonal when
  noise_mode="diagonal".

Essential dots carry no death pixel and contribute only their birth term.
Gradients are exact partial derivatives with respect to the student values,
supported only on critical pixels; contributions at a shared pixel add up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import DEFAULT_PHI, DecomposedDiagram, decompose
from .grid import SUBLEVEL, as_likelihood, as_mask
from .matching import DIAGONAL, DiagramMatching, match_diagrams
from .persistence import _run_starts, compute_diagrams

CE_CLAMP = 1e-7
DICE_EPS = 1e-6
NOISE_SQUARED = "squared-values"
NOISE_DIAGONAL = "diagonal"
NOISE_MODES = (NOISE_SQUARED, NOISE_DIAGONAL)


@dataclass(frozen=True)
class TopoLossReport:
    """Loss values plus the structures they were computed from."""

    cons_loss: float
    rem_loss: float
    topo_loss: float
    matching: DiagramMatching
    student_decomposition: DecomposedDiagram
    teacher_decomposition: DecomposedDiagram


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def cross_entropy_loss_and_gradient(prediction, target) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy, prediction clamped to [1e-7, 1 - 1e-7], and its gradient.

    The gradient is d(mean CE)/d(prediction), zero wherever the clamp is active.
    """
    pred = as_likelihood(prediction)
    tgt = as_likelihood(target)
    _check_same_shape(pred, tgt)
    s = np.clip(pred, CE_CLAMP, 1.0 - CE_CLAMP)
    loss = float(np.mean(-(tgt * np.log(s) + (1.0 - tgt) * np.log1p(-s))))
    inside = (pred > CE_CLAMP) & (pred < 1.0 - CE_CLAMP)
    grad = (s - tgt) / (s * (1.0 - s)) / pred.size
    return loss, np.where(inside, grad, 0.0)


def dice_loss_and_gradient(prediction, target_mask) -> tuple[float, np.ndarray]:
    """Soft Dice loss 1 - (2|P.T| + eps) / (|P| + |T| + eps), eps = 1e-6, and its gradient."""
    pred = as_likelihood(prediction)
    mask = as_mask(target_mask).astype(np.float64)
    _check_same_shape(pred, mask)
    denom = pred.sum() + mask.sum() + DICE_EPS
    numer = 2.0 * float((pred * mask).sum()) + DICE_EPS
    return float(1.0 - numer / denom), -(2.0 * mask * denom - numer) / (denom * denom)


def supervised_loss_and_gradient(prediction, target_mask, w1: float = 0.5,
                                 w2: float = 0.5) -> tuple[float, np.ndarray]:
    """w1 * cross entropy + w2 * Dice against a binary mask, and its gradient."""
    mask = as_mask(target_mask)
    ce, ce_grad = cross_entropy_loss_and_gradient(prediction, mask.astype(np.float64))
    dice, dice_grad = dice_loss_and_gradient(prediction, mask)
    return w1 * ce + w2 * dice, w1 * ce_grad + w2 * dice_grad


def topo_loss_and_gradient(student, teacher, phi: float = DEFAULT_PHI,
                           direction: str = SUBLEVEL, connectivity: int = 4,
                           noise_mode: str = NOISE_SQUARED):
    """One shared pass returning (TopoLossReport, gradient grid)."""
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {noise_mode!r}")
    diagrams = compute_diagrams((student, teacher), direction, connectivity)
    dec_s, dec_t = (decompose(d, phi) for d in diagrams)
    matching = match_diagrams(dec_s.signal, dec_t.signal, p=2.0)
    signal, noise, teacher_signal = dec_s.signal, dec_s.noise, dec_t.signal

    # Each signal dot is pulled to its matched teacher dot, or else to its diagonal projection.
    # The essential dot has no death term: its death difference is zeroed, which leaves
    # every sum unchanged, and its death pixel, -1, lands in a spare last gradient slot.
    li, ri = matching.pairs[(matching.pairs != DIAGONAL).all(axis=1)].T
    tb = 0.5 * (signal.birth + signal.death)
    td = tb.copy()
    tb[li], td[li] = teacher_signal.birth[ri], teacher_signal.death[ri]
    db, dd = signal.birth - tb, (signal.death - td) * (signal.death_px >= 0)
    cons = _sum_in_order(db * db, dd * dd)
    if noise_mode == NOISE_SQUARED:
        b, d = noise.birth, noise.death * (noise.death_px >= 0)
        rem = _sum_in_order(b * b, d * d)
        steps = 2.0 * np.concatenate((db, dd, b, d))
    else:
        gap = noise.death - noise.birth  # death is a constant for essential dots
        rem = _sum_in_order(0.5 * gap * gap)
        steps = np.concatenate((2.0 * np.concatenate((db, dd)), -gap, gap))

    # Birth pixels are distinct minima and no death pixel is one, so adding births first and
    # deaths after meets each pixel's contributions in dot order, signal before noise.
    grad = np.zeros(np.size(student) + 1)
    pixels = (signal.birth_px, signal.death_px, noise.birth_px, noise.death_px)
    np.add.at(grad, np.concatenate(pixels), steps)
    report = TopoLossReport(cons, rem, cons + rem, matching, dec_s, dec_t)
    return report, grad[:-1].reshape(np.shape(student))


def _sum_in_order(*columns: np.ndarray) -> float:
    """0.0 plus each dot's entries in column order, dot after dot (np.sum would add pairwise)."""
    entries = np.zeros(1 + len(columns) * len(columns[0]))  # accumulate adds them one at a time
    entries[1:].reshape(-1, len(columns)).T[...] = columns
    return float(np.add.accumulate(entries)[-1])


def finite_difference_check(student, teacher, phi: float = DEFAULT_PHI,
                            h: float = 1e-5, direction: str = SUBLEVEL,
                            connectivity: int = 4,
                            noise_mode: str = NOISE_SQUARED) -> float:
    """Max relative error between central differences and the analytic gradient.

    Probes every critical pixel of the student diagram. h must be small
    enough that perturbing any single pixel by +-h cannot reorder pixel
    values or push them out of [0, 1]; otherwise the critical pixels would
    move and the comparison would be meaningless.
    """
    s = as_likelihood(student)
    t = as_likelihood(teacher)
    _check_same_shape(s, t)
    h = float(h)
    if not h > 0.0:  # also rejects NaN, which would pass every check below
        raise ValueError(f"step h must be positive, got {h}")
    min_gap = float(np.diff(np.sort(s, axis=None)).min(initial=np.inf))  # 0.0 at a tie
    if h >= 0.5 * min_gap:
        raise ValueError(f"h={h} too large for this grid: smallest value gap is {min_gap}")
    if float(s.min()) < h or float(s.max()) > 1.0 - h:
        raise ValueError(f"h={h} too large: values within h of the [0, 1] boundary")

    report, grad = topo_loss_and_gradient(s, t, phi, direction, connectivity, noise_mode)
    signal, noise = report.student_decomposition.signal, report.student_decomposition.noise
    critical = np.sort(np.concatenate([signal.birth_px, signal.death_px,
                                       noise.birth_px, noise.death_px]))
    critical = critical[_run_starts(critical)]  # np.unique would import numpy.ma

    def loss_at(values: np.ndarray) -> float:
        rep, _ = topo_loss_and_gradient(values, t, phi, direction, connectivity, noise_mode)
        return rep.topo_loss

    max_err = 0.0
    for px in critical[critical >= 0].tolist():
        plus = s.copy()
        plus.flat[px] += h
        minus = s.copy()
        minus.flat[px] -= h
        fd = (loss_at(plus) - loss_at(minus)) / (2.0 * h)
        an = float(grad.flat[px])
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        max_err = max(max_err, err)
    return max_err
