"""Optimal matchings between persistence diagrams.

For finite order p >= 1 this is the p-Wasserstein matching: the standard
augmented square assignment problem where each dot may also pair with its
diagonal projection, solved exactly. Dot-to-dot costs use the Euclidean
2-norm in the (birth, death) plane; the distance from a dot to the diagonal
is |death - birth| / sqrt(2).

For p = infinity the cost is the bottleneck distance, computed by binary
search over candidate distances with a bipartite feasibility matching. The
bottleneck ground metric is the Chebyshev (max) norm, the convention under
which the diagram of a perturbed grid stays within the perturbation bound;
the diagonal gap is then |death - birth| / 2.

Essential dots participate like any other dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .persistence import PersistenceDiagram

DIAGONAL = -1
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DiagramMatching:
    """Pairs of (left index, right index), DIAGONAL = -1 for the diagonal.

    Every left and every right dot appears in exactly one pair; purely
    diagonal pairs are dropped. cost is the matched W_p distance (the
    maximum pair distance when p is infinite).
    """

    pairs: tuple[tuple[int, int], ...]
    cost: float
    p: float


def match_diagrams(left: PersistenceDiagram, right: PersistenceDiagram,
                   p: float = 2.0) -> DiagramMatching:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"order p must be >= 1 (math.inf for bottleneck), got {p}")
    lpts = np.array([[d.birth, d.death] for d in left.dots], dtype=np.float64).reshape(-1, 2)
    rpts = np.array([[d.birth, d.death] for d in right.dots], dtype=np.float64).reshape(-1, 2)
    for side, pts in (("left", lpts), ("right", rpts)):
        if not np.isfinite(pts).all():
            i = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
            raise ValueError(f"{side} dot {i} has a non-finite birth or death: "
                             f"({pts[i, 0]!r}, {pts[i, 1]!r})")
    if lpts.shape[0] == 0 and rpts.shape[0] == 0:
        return DiagramMatching((), 0.0, p)
    if math.isinf(p):
        pairs, cost = _bottleneck(lpts, rpts)
    else:
        pairs, cost = _wasserstein(lpts, rpts, p)
    return DiagramMatching(pairs, cost, p)


def _pairs_from_assignment(rows, cols, n: int, m: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    for r, c in zip(rows, cols):
        if r < n and c < m:
            pairs.append((int(r), int(c)))
        elif r < n:
            pairs.append((int(r), DIAGONAL))
        elif c < m:
            pairs.append((DIAGONAL, int(c)))
    return tuple(pairs)


def _wasserstein(lpts: np.ndarray, rpts: np.ndarray, p: float):
    from scipy.optimize import linear_sum_assignment

    n, m = lpts.shape[0], rpts.shape[0]
    size = n + m
    cost = np.full((size, size), np.inf)
    if n and m:
        diff = lpts[:, None, :] - rpts[None, :, :]
        cost[:n, :m] = np.sqrt((diff * diff).sum(axis=2)) ** p
    if n:
        gap_l = np.abs(lpts[:, 1] - lpts[:, 0]) / _SQRT2
        cost[np.arange(n), m + np.arange(n)] = gap_l ** p
    if m:
        gap_r = np.abs(rpts[:, 1] - rpts[:, 0]) / _SQRT2
        cost[n + np.arange(m), np.arange(m)] = gap_r ** p
    cost[n:, m:] = 0.0
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    return _pairs_from_assignment(rows, cols, n, m), float(total ** (1.0 / p))


def _bottleneck(lpts: np.ndarray, rpts: np.ndarray):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n, m = lpts.shape[0], rpts.shape[0]
    size = n + m
    if n and m:
        cheb = np.abs(lpts[:, None, :] - rpts[None, :, :]).max(axis=2)
    else:
        cheb = np.zeros((n, m))
    gap_l = np.abs(lpts[:, 1] - lpts[:, 0]) / 2.0
    gap_r = np.abs(rpts[:, 1] - rpts[:, 0]) / 2.0
    candidates = np.unique(np.concatenate([[0.0], cheb.ravel(), gap_l, gap_r]))

    def matching_at(d: float):
        adj = np.zeros((size, size), dtype=np.uint8)
        if n and m:
            adj[:n, :m] = cheb <= d
        if n:
            adj[np.arange(n), m + np.arange(n)] = gap_l <= d
        if m:
            adj[n + np.arange(m), np.arange(m)] = gap_r <= d
        adj[n:, m:] = 1
        row_of_col = maximum_bipartite_matching(csr_matrix(adj), perm_type="row")
        if int((row_of_col >= 0).sum()) != size:
            return None
        return row_of_col

    lo, hi = 0, len(candidates) - 1  # the largest candidate is always feasible
    best = matching_at(float(candidates[hi]))
    while lo < hi:
        mid = (lo + hi) // 2
        found = matching_at(float(candidates[mid]))
        if found is None:
            lo = mid + 1
        else:
            best, hi = found, mid
    cost = float(candidates[hi])
    rows = [int(best[c]) for c in range(size)]
    return _pairs_from_assignment(rows, range(size), n, m), cost
