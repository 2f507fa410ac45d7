"""Output checks, computed apart from topokit with numpy and scipy.

Each check takes what one call wrote and returns True when it is right; any
exception counts as a failure of that call.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
from scipy import ndimage
from scipy.special import xlogy

STRUCTURE = {4: ndimage.generate_binary_structure(2, 1), 8: np.ones((3, 3), dtype=bool)}


def read_diagram(text: str) -> np.ndarray:
    """(birth, death, essential) rows of a diagram CSV."""
    head, _, body = text.partition("\n")
    if head != "birth,death,birth_px,death_px,essential":
        raise ValueError(f"bad diagram header {head!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", usecols=(0, 1, 4), ndmin=2)


def _thresholds(values: np.ndarray) -> list:
    """Midpoints between neighbouring grid levels at a few quantiles.

    Diagram CSVs hold 9 significant digits, so a threshold sits well clear
    of every grid value; each mask is still one exact level set.
    """
    levels = np.unique(values)
    picks = []
    for q in (0.02, 0.2, 0.5, 0.8, 0.98):
        i = int(q * (len(levels) - 1))
        while i + 2 < len(levels) and levels[i + 1] - levels[i] < 1e-7:
            i += 1
        picks.append((levels[i] + levels[i + 1]) / 2)
    return picks


def betti_matches(values: np.ndarray, diagram: np.ndarray, direction: str,
                  connectivity: int) -> bool:
    """Dots alive at c equal scipy's component count of the c-threshold mask."""
    birth, death, essential = diagram.T
    if int(essential.sum()) != 1:
        return False
    for c in _thresholds(values):
        if direction == "sublevel":
            alive = (birth <= c) & ((c < death) | (essential == 1))
            mask = values <= c
        else:
            alive = (birth >= c) & ((c > death) | (essential == 1))
            mask = values >= c
        if int(alive.sum()) != ndimage.label(mask, STRUCTURE[connectivity])[1]:
            return False
    return True


def split_matches(whole: str, signal: str, noise: str, phi: float, stdout: str) -> bool:
    """Signal rows plus noise rows are exactly the whole diagram's rows."""
    rows = lambda text: text.splitlines()[1:]  # noqa: E731
    if sorted(rows(signal) + rows(noise)) != sorted(rows(whole)):
        return False
    sig, noi = read_diagram(signal), read_diagram(noise)
    counts = json.loads(stdout)
    return (np.abs(sig[:, 1] - sig[:, 0]) > phi).all() and \
        (np.abs(noi[:, 1] - noi[:, 0]) <= phi).all() and \
        counts["signal_dots"] == len(sig) and counts["noise_dots"] == len(noi)


def close(a: float, b: float, rel: float = 1e-8) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def loss_matches(stdout: str, grad_csv: str, student: np.ndarray, teacher: np.ndarray) -> bool:
    out = json.loads(stdout)
    s = np.clip(student, 1e-7, 1 - 1e-7)
    ce = float(np.mean(-(teacher * np.log(s) + (1 - teacher) * np.log1p(-s))))
    grad = np.loadtxt(io.StringIO(grad_csv), delimiter=",", ndmin=2)
    return all(math.isfinite(v) for v in out.values()) and \
        close(out["topo"], out["cons"] + out["rem"]) and close(out["pixel_ce"], ce, 1e-7) and \
        grad.shape == student.shape and np.count_nonzero(grad) > 0


def _labels(mask: np.ndarray) -> tuple[np.ndarray, int]:
    return ndimage.label(mask, STRUCTURE[4])


def _entropy(counts: np.ndarray) -> float:
    n = counts.sum()
    return float(-xlogy(counts, counts / n).sum() / n)


def metrics_match(stdout: str, pred: np.ndarray, gt: np.ndarray, window: int = 256) -> bool:
    """Windowed Betti error and VOI recomputed; the matching error bounded."""
    out = json.loads(stdout)
    diffs = []
    for r in range(0, pred.shape[0], window):
        for c in range(0, pred.shape[1], window):
            win = (slice(r, r + window), slice(c, c + window))
            diffs.append(abs(_labels(pred[win])[1] - _labels(gt[win])[1]))
    (lp, np_), (lg, ng) = _labels(pred), _labels(gt)
    joint = np.bincount((lp.astype(np.int64) * (ng + 1) + lg).ravel())
    voi = 2 * _entropy(joint) - _entropy(np.bincount(lp.ravel())) - \
        _entropy(np.bincount(lg.ravel()))
    return close(out["betti_error"], float(np.mean(diffs)), 1e-8) and \
        close(out["voi"], voi, 1e-7) and out["window_count"] == len(diffs) and \
        0 <= out["betti_matching_error"] <= np_ + ng


def matching_matches(stdout: str, pairs_csv: str, left: np.ndarray, right: np.ndarray,
                     p: float) -> bool:
    """Each dot matched once; the pairs' cost gives the printed distance."""
    pairs = np.loadtxt(io.StringIO(pairs_csv), delimiter=",", skiprows=1, dtype=np.int64,
                       ndmin=2)
    li, ri = pairs[:, 0], pairs[:, 1]
    if sorted(li[li >= 0]) != list(range(len(left))) or \
            sorted(ri[ri >= 0]) != list(range(len(right))) or ((li < 0) & (ri < 0)).any():
        return False
    both = (li >= 0) & (ri >= 0)
    diff = left[li[both]] - right[ri[both]]
    lonely = np.concatenate([left[li[ri < 0]], right[ri[li < 0]]])
    gap = np.abs(lonely[:, 1] - lonely[:, 0])
    if math.isinf(p):
        cost = max(np.abs(diff).max(initial=0.0), (gap / 2).max(initial=0.0))
    else:
        terms = np.concatenate([np.sqrt((diff * diff).sum(axis=1)), gap / math.sqrt(2)])
        cost = float((terms ** p).sum() ** (1 / p))
    return close(json.loads(stdout)["distance"], cost, 1e-8)
