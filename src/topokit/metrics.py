"""Topology-aware evaluation metrics between binary masks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ComponentLabeling, _scipy_extension, as_mask, label_components

DEFAULT_WINDOW = 256


@dataclass(frozen=True)
class MetricReport:
    betti_error: float
    betti_matching_error: int
    voi: float
    window_size: int
    window_count: int


def _check_pair(pred, gt):
    pred = as_mask(pred)
    gt = as_mask(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    return pred, gt


def betti_error(pred, gt, window_size: int = DEFAULT_WINDOW) -> float:
    """Mean absolute component-count difference over non-overlapping windows.

    Windows tile the grid with stride equal to window_size; trailing partial
    windows are included.
    """
    pred, gt = _check_pair(pred, gt)
    window_size = int(window_size)
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    h, w = pred.shape
    diffs = []
    for r0 in range(0, h, window_size):
        for c0 in range(0, w, window_size):
            win = (slice(r0, r0 + window_size), slice(c0, c0 + window_size))
            bp = label_components(pred[win], 4).count
            bg = label_components(gt[win], 4).count
            diffs.append(abs(bp - bg))
    return float(np.mean(diffs))


def window_count(shape: tuple[int, int], window_size: int) -> int:
    h, w = shape
    return math.ceil(h / window_size) * math.ceil(w / window_size)


def betti_matching_error(pred, gt) -> int:
    """Unmatched-component count under overlap-induced bipartite matching.

    Components of the pixelwise intersection induce edges between the
    prediction component and the ground-truth component containing them
    (equivalently: an edge per co-occurring label pair). With M the maximum
    bipartite matching, the error is (|pred| - |M|) + (|gt| - |M|).
    """
    pred, gt = _check_pair(pred, gt)
    return _matching_error(label_components(pred, 4), label_components(gt, 4))


def _matching_error(lp: ComponentLabeling, lg: ComponentLabeling) -> int:
    from scipy.sparse import csr_matrix

    maximum_bipartite_matching = _scipy_extension(
        "scipy.sparse.csgraph", "_matching").maximum_bipartite_matching
    inter = (lp.labels > 0) & (lg.labels > 0)
    if not inter.any():
        return lp.count + lg.count
    stride = lg.count + 1
    edges = np.unique(lp.labels[inter].astype(np.int64) * stride + lg.labels[inter])
    biadj = csr_matrix(
        (np.ones(edges.size, dtype=np.uint8), (edges // stride - 1, edges % stride - 1)),
        shape=(lp.count, lg.count),
    )
    match = maximum_bipartite_matching(biadj, perm_type="row")
    matched = int((match >= 0).sum())
    return (lp.count - matched) + (lg.count - matched)


def variation_of_information(pred, gt) -> float:
    """H(X|Y) + H(Y|X) in nats between the two mask clusterings.

    Each mask partitions the pixels into its 4-connected foreground
    components plus the entire background as one extra cluster.
    """
    pred, gt = _check_pair(pred, gt)
    return _voi(label_components(pred, 4), label_components(gt, 4))


def _voi(lp: ComponentLabeling, lg: ComponentLabeling) -> float:
    x = lp.labels.ravel().astype(np.int64)
    y = lg.labels.ravel().astype(np.int64)
    n = x.size
    stride = int(y.max()) + 1
    keys, nij = np.unique(x * stride + y, return_counts=True)  # only pairs that occur
    nij = nij.astype(np.float64)
    ni = np.bincount(x).astype(np.float64)
    nj = np.bincount(y).astype(np.float64)
    # VOI = sum_ij p_ij * ln(n_i * n_j / n_ij^2); exactly 0 for identical inputs.
    ni_of = ni[keys // stride]
    nj_of = nj[keys % stride]
    return float(np.sum((nij / n) * np.log((ni_of * nj_of) / (nij * nij))))


def compute_metrics(pred, gt, window_size: int = DEFAULT_WINDOW) -> MetricReport:
    pred, gt = _check_pair(pred, gt)
    lp, lg = label_components(pred, 4), label_components(gt, 4)
    return MetricReport(
        betti_error=betti_error(pred, gt, window_size),
        betti_matching_error=_matching_error(lp, lg),
        voi=_voi(lp, lg),
        window_size=int(window_size),
        window_count=window_count(pred.shape, int(window_size)),
    )
