"""Optimal matchings between persistence diagrams.

For finite order p >= 1 this is the p-Wasserstein matching: the standard
augmented square assignment problem where each dot may also pair with its
diagonal projection, solved exactly. Dot-to-dot costs use the Euclidean
2-norm in the (birth, death) plane; the distance from a dot to the diagonal
is |death - birth| / sqrt(2).

For p = infinity the cost is the bottleneck distance. Its ground metric is the
Chebyshev (max) norm, the convention under which the diagram of a perturbed
grid stays within the perturbation bound; the diagonal gap is then
|death - birth| / 2. The cost is the least dot-to-dot distance or gap d at
which the augmented graph, copies joined to each other at 0, holds a perfect
matching (Efrat, Itai & Katz, Algorithmica 2001). Binary search finds it
between the largest of each dot's least distance to the other side's dots or
the diagonal, and the largest gap. A probe tests the n x m dot graph alone:
each dot farther than d from the diagonal must be matched within d, and by the
Mendelsohn-Dulmage theorem a matching covering such left dots and one covering
such right dots combine into one; every other dot goes to the diagonal.
Hopcroft-Karp then runs once on the whole augmented graph at d, so the pairs
are those of that graph's matching, whatever the search that found d.

Memory: W_p holds one dense (n+m)^2 float64 matrix, and one n x m temporary while it is
built. The bottleneck holds nothing of size (n+m)^2: the n x m Chebyshev block, the two
gap vectors, and a final graph that joins the copy-to-copy block implicitly.

Essential dots participate like any other dot. The matched pairs are one
read-only (k, 2) int64 array, in the row order DiagramMatching states.

W_p's solver is scipy's compiled linear_sum_assignment, loaded by
grid._scipy_extension without scipy.optimize's __init__, which imports scipy.linalg,
fft and special (0.4-0.6 s per process on a 2-core x86 box, where _lsap alone loads in
12-16 ms). The bottleneck's Hopcroft-Karp (Hopcroft & Karp, SIAM J. Comput. 1973) is
_hopcroft_karp below, in pure Python: it finds the matching scipy's
maximum_bipartite_matching finds, without the 0.15 s and 20 MiB import of scipy.sparse.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import _scipy_extension
from .persistence import PersistenceDiagram, _run_starts

DIAGONAL = -1
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)  # a generated == would take the truth value of an array
class DiagramMatching:
    """pairs: a read-only (k, 2) int64 array of (left index, right index), DIAGONAL = -1.

    Every dot is in exactly one row; purely diagonal pairs are dropped. W_p lists the
    left dots in index order, then the right dots sent to the diagonal; the bottleneck
    lists the right dots in column order, then the left dots sent to the diagonal. cost
    is the matched W_p distance (the maximum pair distance when p is infinite).
    """

    pairs: np.ndarray
    cost: float
    p: float


def match_diagrams(left: PersistenceDiagram, right: PersistenceDiagram,
                   p: float = 2.0) -> DiagramMatching:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"order p must be >= 1 (math.inf for bottleneck), got {p}")
    lpts = np.array((left.birth, left.death)).T
    rpts = np.array((right.birth, right.death)).T
    for side, pts in (("left", lpts), ("right", rpts)):
        if not np.isfinite(pts).all():
            i = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
            raise ValueError(f"{side} dot {i} has a non-finite birth or death: "
                             f"({float(pts[i, 0])!r}, {float(pts[i, 1])!r})")
    n, m = lpts.shape[0], rpts.shape[0]
    if (n + m) ** 2 * 8 > _MAX_MATRIX_BYTES:
        raise ValueError(f"matching {n} against {m} dots needs a {(n + m) ** 2 * 8}-byte "
                         f"distance matrix, over the {_MAX_MATRIX_BYTES}-byte limit")
    if n == 0 and m == 0:
        return DiagramMatching(_pairs_from_assignment(*np.empty((2, 0), np.int64), 0, 0), 0.0, p)
    if math.isinf(p):
        pairs, cost = _bottleneck(lpts, rpts)
    else:
        pairs, cost = _wasserstein(lpts, rpts, p)
    return DiagramMatching(pairs, cost, p)


def _pairs_from_assignment(rows: np.ndarray, cols: np.ndarray, n: int, m: int) -> np.ndarray:
    """The assigned (row, col) cells in order as pairs; a diagonal copy's index reads DIAGONAL."""
    keep = (rows < n) | (cols < m)  # a diagonal copy assigned to a diagonal copy is no pair
    pairs = np.array((rows[keep], cols[keep]), dtype=np.int64).T
    pairs[pairs >= (n, m)] = DIAGONAL
    pairs.setflags(write=False)
    return pairs


_MAX_MATRIX_BYTES = 1 << 30  # W_p's dense (n+m)^2 float64 matrix: n + m <= 11585
# The same bound caps the bottleneck's n x m block and its Python adjacency lists.


def _dot_block(lpts: np.ndarray, rpts: np.ndarray, chebyshev: bool, out=None) -> np.ndarray:
    """n x m dot distances, in out or new, with one temporary; bit-equal to the (n, m, 2) form."""
    near = np.subtract.outer(lpts[:, 0], rpts[:, 0], out=out)
    dd = np.subtract.outer(lpts[:, 1], rpts[:, 1])
    if chebyshev:
        return np.maximum(np.abs(near, out=near), np.abs(dd, out=dd), out=near)
    return np.sqrt(np.add(np.square(near, out=near), np.square(dd, out=dd), out=near), out=near)


def _augmented(lpts: np.ndarray, rpts: np.ndarray) -> np.ndarray:
    """(n+m)^2 Euclidean ground distances of W_p's augmented square assignment problem.

    Rows are left dots then right diagonal copies, columns right dots then
    left diagonal copies. A dot reaches every dot of the other side at the
    ground distance and its own diagonal copy at gap / sqrt(2); copies reach
    each other at 0; all else is inf.
    """
    n, m = lpts.shape[0], rpts.shape[0]
    dist = np.full((n + m, n + m), np.inf)
    _dot_block(lpts, rpts, False, out=dist[:n, :m])
    dist[np.arange(n), m + np.arange(n)] = np.abs(lpts[:, 1] - lpts[:, 0]) / _SQRT2
    dist[n + np.arange(m), np.arange(m)] = np.abs(rpts[:, 1] - rpts[:, 0]) / _SQRT2
    dist[n:, m:] = 0.0
    return dist


def _wasserstein(lpts: np.ndarray, rpts: np.ndarray, p: float):
    linear_sum_assignment = _scipy_extension("scipy.optimize", "_lsap").linear_sum_assignment
    n, m = len(lpts), len(rpts)
    cost = _augmented(lpts, rpts)
    # The largest finite cost: a dot-dot distance or a diagonal gap (views, no copies).
    top = float(max(cost[:n, :m].max(initial=0.0), np.diagonal(cost[:n, m:]).max(initial=0.0),
                    np.diagonal(cost[n:, :m]).max(initial=0.0)))
    scale = 1.0
    if top > 0.0 and not _power_is_normal(top, p):
        scale = top  # at a large p, top ** p under- or overflows: work in units of top
        cost /= scale
    cost **= p  # in place: a second (n+m)^2 matrix would double the peak memory
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    if total < sys.float_info.min and not np.array_equal(lpts, rpts):  # equal diagrams: exact 0
        del cost  # 0.0 or subnormal, as powers underflowed: recompute the assigned distances
        assigned = _augmented(lpts, rpts)[rows, cols]
        scale = float(assigned.max(initial=0.0))
        total = float(((assigned / scale) ** p).sum()) if scale > 0.0 else 0.0
    return _pairs_from_assignment(rows, cols, n, m), scale * float(total ** (1.0 / p))


def _power_is_normal(x: float, p: float) -> bool:
    try:
        return x ** p >= sys.float_info.min  # false for 0.0 and subnormals
    except OverflowError:
        return False


def _hopcroft_karp(adjacency: list, cols: int, block: tuple = ()) -> tuple:
    """A maximum bipartite matching: (column of each row, row of each column), -1 if none.

    adjacency[r] lists row r's columns in increasing order. block = (r0, c0) also joins
    every row from r0 on to every column from c0 on, after its listed columns, which lie
    below c0; those edges are never listed. It is the matching scipy's
    maximum_bipartite_matching finds on the whole graph: the greedy pass and the
    depth-first searches visit rows and columns in scipy's order, and the breadth-first
    layers are the same distances.
    """
    rows = len(adjacency)
    r0, c0 = block or (rows, cols)
    col_of, row_of, parent = [-1] * rows, [-1] * cols, [-1] * rows
    spare = c0  # no block column below it is free: a matched column stays matched

    def free_column(v: int) -> int:  # v's first free column, -1 if none
        nonlocal spare
        for b in adjacency[v]:
            if row_of[b] < 0:
                return b
        if v >= r0:
            while spare < cols and row_of[spare] >= 0:
                spare += 1
            if spare < cols:
                return spare
        return -1

    for a in range(rows):  # greedy: each row in turn takes its first free column
        b = free_column(a)
        if b >= 0:
            col_of[a], row_of[b] = b, a
    inf = rows + 1
    while True:
        # Layers: a row's breadth-first distance from the free rows along alternating
        # paths, whatever the visiting order, up to the first layer that meets a free
        # column (the bound). A layer with a block row meets every block column.
        # dist[-1] is read for a free column's row -1 and stays inf.
        roots = [a for a in range(rows) if col_of[a] < 0]
        dist, layer, seen, bound = [inf] * (rows + 1), roots, {-1, *roots}, 0
        while layer:
            for a in layer:
                dist[a] = bound
            bound += 1
            reached = set(map(row_of.__getitem__,
                              itertools.chain.from_iterable(map(adjacency.__getitem__, layer))))
            if max(layer) >= r0:
                reached.update(row_of[c0:])
            if -1 in reached:
                break
            layer = list(reached - seen)
            seen.update(layer)
        else:
            return col_of, row_of
        # The block's matched rows by layer, in column order. An augmenting path moves
        # only rows it visited, whose dist is then inf, so stale entries are dropped as met.
        in_block = {}
        for u in row_of[c0:]:
            if dist[u] < bound:
                in_block.setdefault(dist[u], []).append(u)
        # Depth-first from each free row in index order, the last row pushed first. Rows
        # at the bound's distance, left inf above, could end no path: none is pushed.
        for root in roots:
            stack = [root]
            while stack:
                v = stack.pop()
                level, dist[v] = dist[v] + 1, inf
                if level == bound:
                    b = free_column(v)
                    if b >= 0:
                        while v >= 0:  # augment back along the parent links
                            col_of[v], b = b, col_of[v]
                            row_of[col_of[v]] = v
                            v = parent[v]
                        break
                    continue
                pushed = [u for u in map(row_of.__getitem__, adjacency[v]) if dist[u] == level]
                if v >= r0 and level in in_block:
                    in_block[level] = [u for u in in_block[level] if dist[u] == level]
                    pushed += in_block[level]
                for u in pushed:
                    parent[u] = v
                stack += pushed


def _adjacency(mask: np.ndarray) -> list:
    """Each row's True columns in increasing order, as lists of ints."""
    ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    cells = np.flatnonzero(mask)
    cells = np.remainder(cells, mask.shape[1], out=cells).tolist()
    return [cells[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _bottleneck(lpts: np.ndarray, rpts: np.ndarray):
    n, m = len(lpts), len(rpts)
    near = _dot_block(lpts, rpts, True)  # its temporary freed: one n x m block from here on
    lgap, rgap = (np.abs(pts[:, 1] - pts[:, 0]) / 2.0 for pts in (lpts, rpts))
    # Every dot needs a dot or its diagonal copy within d; sending every dot there is feasible.
    lo = max(np.minimum(near.min(axis=1, initial=np.inf), lgap).max(initial=0.0),
             np.minimum(near.min(axis=0, initial=np.inf), rgap).max(initial=0.0))
    hi = max(lgap.max(initial=0.0), rgap.max(initial=0.0))
    # The optimum is a distinct entry in [lo, hi]; at lo == 0 some entry is 0, +0.0 as every
    # entry is an abs. np.unique would import numpy.ma (8-20 ms per process).
    candidates = np.concatenate([v[(v >= lo) & (v <= hi)] for v in (near, lgap, rgap)])
    candidates.sort()
    candidates = candidates[_run_starts(candidates)]

    def feasible(d: float) -> bool:  # every dot farther than d from the diagonal matched within d
        edges = near <= d
        return all(-1 not in _hopcroft_karp(_adjacency(graph), graph.shape[1])[0]
                   for graph in (edges[lgap > d], edges.T[rgap > d]))

    last = len(candidates) - 1  # candidates[last] is hi, feasible, never probed
    d = float(candidates[bisect.bisect_left(candidates, True, hi=last, key=feasible)])
    # The augmented graph at d: a left dot's close right dots, then its diagonal copy; a right
    # dot's copy, that dot if close, then every left dot's copy (the block, never listed).
    adjacency = _adjacency(near <= d)
    for i in np.flatnonzero(lgap <= d).tolist():
        adjacency[i].append(m + i)
    adjacency += [[j] if close else [] for j, close in enumerate((rgap <= d).tolist())]
    row_of_col = np.array(_hopcroft_karp(adjacency, n + m, (n, m))[1], np.int64)
    return _pairs_from_assignment(row_of_col, np.arange(n + m), n, m), d
