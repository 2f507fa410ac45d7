"""Shared test helpers: seeded grids, the component-count curve, the diagram, matching and
file-parser oracles."""

from __future__ import annotations

import bisect
import collections
import csv
import itertools
import math
import re
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from topokit.grid import SUBLEVEL, SUPERLEVEL, GridFormatError, as_likelihood
from topokit.matching import _pairs_from_assignment
from topokit.persistence import _SHIFTS, DIAGRAM_CSV_HEADER, PersistenceDiagram, PersistentDot, _run_starts

ORACLE_PIXEL_LIMIT = 400
_CHUNK = 1 << 14  # elements per tolist() call in walk_pair


def random_distinct_grid(rng, height: int, width: int,
                         lo: float = 0.05, hi: float = 0.95) -> np.ndarray:
    """Random permutation of an evenly spaced value ladder.

    Guarantees pairwise-distinct values with a known minimum gap of
    (hi - lo) / (height*width - 1), so finite-difference probes and
    perturbation bounds can be chosen safely.
    """
    n = height * width
    values = np.linspace(lo, hi, n)
    return rng.permutation(values).reshape(height, width)


def betti_curve(diagram: PersistenceDiagram, c: float) -> int:
    """Number of components of the sublevel mask at threshold c.

    Counts dots alive at c (birth <= c < death); the essential dot counts
    whenever birth <= c, which also covers c = 1. Sublevel diagrams only.
    """
    c = float(c)
    if not np.isfinite(c):
        raise ValueError(f"threshold must be finite, got {c}")
    alive = (diagram.birth <= c) & ((c < diagram.death) | diagram.essential)
    return int(np.count_nonzero(alive))


def oracle_diagram(grid, connectivity: int = 4) -> PersistenceDiagram:
    """Slow reference diagram via from-scratch relabeling (sublevel only).

    Replays the tie-broken filtration one pixel at a time, recomputing
    connected components of the inserted set with scipy labeling at every
    step and reading off birth and merge events. Independent of the
    union-find implementation; guarded to grids of at most 400 pixels.
    """
    values = as_likelihood(grid)
    if values.size > ORACLE_PIXEL_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_PIXEL_LIMIT} pixels, got {values.size}")
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity!r}")
    structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
    h, w = values.shape
    flat = values.ravel()
    order = np.argsort(flat, kind="stable").tolist()
    mask = np.zeros((h, w), dtype=bool)
    comps: dict[int, float] = {}  # birth pixel -> birth value
    dots: list[PersistentDot] = []

    for px in order:
        mask.flat[px] = True
        labeled, _ = ndimage.label(mask, structure=structure)
        lab = labeled.ravel()
        groups: dict[int, list[int]] = {}
        for bp in comps:
            groups.setdefault(int(lab[bp]), []).append(bp)
        for members in (m for _, m in sorted(groups.items()) if len(m) > 1):
            elder = min(members, key=lambda bp: (comps[bp], bp))
            for bp in members:
                if bp != elder:
                    dots.append(PersistentDot(comps[bp], float(flat[px]), bp, px))
                    del comps[bp]
        if int(lab[px]) not in groups:
            comps[px] = float(flat[px])

    (ess_px, ess_birth), = comps.items()
    dots.append(PersistentDot(ess_birth, 1.0, ess_px))
    return diagram_from_dots(dots)


def loop_diagram(grid, direction: str = SUBLEVEL, connectivity: int = 4) -> PersistenceDiagram:
    """Order-exact reference: the pixel-by-pixel union-find that compute_diagram replaces.

    Inserts every pixel in stable-argsort order into a forest over the grid plus
    a one-cell border, meets the roots of its inserted neighbours in offset order
    (up, down, left, right, then the diagonals), keeps the root with the smallest
    birth rank and kills the others in the order met. compute_diagram must give
    the same dots in the same order.
    """
    values = as_likelihood(grid)
    h, w = values.shape
    flat = values.ravel()
    order = np.argsort(-flat if direction == SUPERLEVEL else flat, kind="stable").tolist()
    flat_l = flat.tolist()
    fw = w + 2
    offsets = (-fw, fw, -1, 1, -fw - 1, -fw + 1, fw - 1, fw + 1)[:connectivity]
    parent = [-1] * (fw * (h + 2))  # -1 marks a cell not yet inserted
    birth = [0] * len(parent)  # at a root: the rank of its component's first pixel
    dots: list[PersistentDot] = []

    for i, px in enumerate(order):
        cell = px + 2 * (px // w) + fw + 1
        roots = []
        for q in offsets:
            q += cell
            if parent[q] >= 0:
                while parent[q] != q:  # find with path halving
                    parent[q] = parent[parent[q]]
                    q = parent[q]
                if q not in roots:
                    roots.append(q)
        if not roots:
            parent[cell] = cell
            birth[cell] = i
            continue
        elder = roots[0]
        if len(roots) > 1:
            elder = min(roots, key=birth.__getitem__)
            for q in roots:
                if q != elder:
                    bp = order[birth[q]]
                    dots.append(PersistentDot(flat_l[bp], flat_l[px], bp, px))
                    parent[q] = elder
        parent[cell] = elder

    ess_px = order[0]  # global minimum under the tie-broken order never dies
    dots.append(PersistentDot(flat_l[ess_px], 0.0 if direction == SUPERLEVEL else 1.0, ess_px))
    return diagram_from_dots(dots)


def walk_pair(order: np.ndarray, h: int, w: int, connectivity: int) -> tuple[np.ndarray, np.ndarray]:
    """Order oracle for persistence._pair at sizes loop_diagram cannot reach: the same
    arguments and result, from the same basins and deduped edges walked by a Python
    union-find.

    Birth and death pixels of every dot in emission order, the essential dots last.
    order lists the inserted cells of an h x w grid; the others rank after them and lie
    in no basin, like the border. Each component leaves an essential dot, death pixel
    -1, in basin order. Basins are numbered in their minima's rank order, so the elder
    of two components is the one whose root has the smaller number.
    """
    n = order.size
    rank = np.full(h * w, n, np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    rank = rank.reshape(h, w)
    shifts = _SHIFTS[:connectivity]
    frank = np.full((h + 2, w + 2), n, np.int32)  # the border ranks after every pixel
    frank[1:-1, 1:-1] = rank

    def around(framed, dr, dc):  # each pixel's neighbour at (dr, dc), as an h x w view
        return framed[1 + dr:h + 1 + dr, 1 + dc:w + 1 + dc]

    # Steepest descent: every rank points at its lowest-ranked lower neighbour, or at
    # itself at a minimum; pointer jumping then leads each rank to its basin's minimum.
    low = rank.copy()
    for dr, dc in shifts:
        np.minimum(low, around(frank, dr, dc), out=low)
    ptr = low.ravel()[order]
    is_min = ptr == np.arange(n, dtype=np.int32)
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    minima = np.flatnonzero(is_min)
    number = np.cumsum(is_min, dtype=np.int32) - 1
    basin = np.full(n + 1, -1, np.int32)  # rank -> basin number; rank n (not inserted) -> -1
    np.take(number, ptr, out=basin[:n])
    del low, is_min, nxt, ptr, number
    fbasin = np.full((h + 2, w + 2), -1, np.int32)  # the border is in no basin
    own = fbasin[1:-1, 1:-1]
    own[...] = basin[rank]

    # Every (pixel, lower neighbour in another basin) edge, keyed rank * connectivity
    # + offset index. Of the edges between two basins only the first in key order can
    # merge components: the later ones join components that are already one.
    foreign = np.empty((n, connectivity), np.int32)  # rows in rank order, -1: no edge
    for j, (dr, dc) in enumerate(shifts):
        nb = around(fbasin, dr, dc)
        foreign[:, j] = np.where((around(frank, dr, dc) < rank) & (nb != own), nb, -1).ravel()[order]
    is_edge = foreign >= 0
    b = foreign[is_edge]  # row-major: in key order
    r = np.repeat(np.arange(n, dtype=np.int32), is_edge.sum(axis=1, dtype=np.int32))
    del foreign, is_edge
    a = basin[r]
    pair = np.minimum(a, b).astype(np.int64)
    pair *= minima.size
    pair += np.maximum(a, b)
    del a
    by_pair = np.argsort(pair)
    first = np.minimum.reduceat(by_pair, _run_starts(pair[by_pair]))
    del pair, by_pair
    first.sort()
    r, b = r[first], b[first]

    # A pixel with two or more kept edges may kill several components at once, in the
    # order its neighbour scan meets their roots: it is marked a = -1 and scans the
    # basins of all its lower neighbours, in offset order.
    start = _run_starts(r)
    multi = np.diff(start, append=r.size) > 1
    r, b = r[start], b[start]
    a = basin[r]
    a[multi] = -1
    mr = r[multi]
    cell = order[mr]
    cell += 2 * (cell // w) + w + 3  # row-major index in the framed arrays
    scan = np.empty((mr.size, connectivity), np.int32)
    for j, (dr, dc) in enumerate(shifts):
        q = cell + dr * (w + 2) + dc
        scan[:, j] = np.where(frank.ravel()[q] < mr, fbasin.ravel()[q], -1)
    scans = (row for i in range(0, mr.size, _CHUNK) for row in scan[i:i + _CHUNK].tolist())

    parent = list(range(minima.size))
    dying: list[int] = []  # basin number of each killed component's root
    death: list[int] = []  # rank of the pixel that killed it
    for i in range(0, r.size, _CHUNK):
        for rk, x, y in zip(r[i:i + _CHUNK].tolist(), a[i:i + _CHUNK].tolist(),
                            b[i:i + _CHUNK].tolist()):
            if x < 0:
                roots = []
                for q in next(scans):
                    if q >= 0:
                        while parent[q] != q:  # find with path halving
                            parent[q] = parent[parent[q]]
                            q = parent[q]
                        if q not in roots:
                            roots.append(q)
                elder = min(roots)
                for q in roots:
                    if q != elder:
                        parent[q] = elder
                        dying.append(q)
                        death.append(rk)
                continue
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                if x > y:
                    x, y = y, x
                parent[y] = x
                dying.append(y)
                death.append(rk)

    killed = np.array(dying, dtype=np.int64)
    roots = np.flatnonzero(np.bincount(killed, minlength=minima.size) == 0)  # one per component
    death_px = np.append(order[np.array(death, dtype=np.int64)], np.full(roots.size, -1))
    return order[minima[np.concatenate((killed, roots))]], death_px

def chain_grid(n: int) -> np.ndarray:
    """n x n snake corridor between walls of 1.0 whose minima rise while its saddles fall.

    The corridor runs along the even rows, turning down through the odd row between
    them at alternate ends, and alternates minima and saddles. Each basin touches only
    the next one, through a saddle that falls along the corridor, so the basins die
    one at a time from the far end, a chain as long as the grid has basins.
    """
    grid = np.ones((n, n))
    path = []
    for row in range(0, n, 2):
        cols = range(n) if row % 4 == 0 else range(n - 1, -1, -1)
        path += [(row, c) for c in cols]
        if row + 2 < n:
            path.append((row + 1, n - 1 if row % 4 == 0 else 0))
    values = np.empty(len(path))
    values[0::2] = np.linspace(0.05, 0.45, values[0::2].size)
    values[1::2] = np.linspace(0.95, 0.55, values[1::2].size)
    grid[tuple(zip(*path))] = values
    return grid


def diagram_from_dots(dots) -> PersistenceDiagram:
    """The diagram whose rows are the given PersistentDots; no death pixel reads -1."""
    rows = [(d.birth, d.death, d.birth_pixel, -1 if d.death_pixel is None else d.death_pixel)
            for d in dots]
    columns = zip(*rows) if rows else ((),) * 4
    return PersistenceDiagram(*map(np.array, columns, (np.float64, np.float64, np.int64, np.int64)))


def diagram_from_pairs(pairs, essential_index: int | None = None) -> PersistenceDiagram:
    """Wrap bare (birth, death) pairs in a diagram with dummy pixel indices."""
    return diagram_from_dots(
        PersistentDot(float(b), float(d), i, None if i == essential_index else 1000 + i)
        for i, (b, d) in enumerate(pairs))


def random_diagram_pairs(rng, max_dots: int = 4):
    """Random list of (birth, death) pairs with birth <= death in [0, 1]."""
    n = int(rng.integers(0, max_dots + 1))
    out = []
    for _ in range(n):
        b = float(rng.uniform(0.0, 0.9))
        d = float(rng.uniform(b, 1.0))
        out.append((b, d))
    return out


def _partial_matchings(n: int, m: int):
    """Yield every assignment of left dots to right dots or the diagonal.

    Each yielded list has length n; entry -1 sends that left dot to the
    diagonal, otherwise it names a distinct right dot. Right dots missing
    from the list go to the diagonal.
    """
    for k in range(0, min(n, m) + 1):
        for left_sub in itertools.combinations(range(n), k):
            for right_perm in itertools.permutations(range(m), k):
                match = [-1] * n
                for li, ri in zip(left_sub, right_perm):
                    match[li] = ri
                yield match


def brute_wasserstein(left_pairs, right_pairs, p: float) -> float:
    """Exhaustive minimum over all augmented assignments, finite p >= 1."""
    n, m = len(left_pairs), len(right_pairs)
    best = math.inf
    for match in _partial_matchings(n, m):
        total = 0.0
        used = set()
        for li, ri in enumerate(match):
            lb, ld = left_pairs[li]
            if ri == -1:
                total += ((ld - lb) / math.sqrt(2.0)) ** p
            else:
                used.add(ri)
                rb, rd = right_pairs[ri]
                total += math.hypot(lb - rb, ld - rd) ** p
        for ri in range(m):
            if ri not in used:
                rb, rd = right_pairs[ri]
                total += ((rd - rb) / math.sqrt(2.0)) ** p
        best = min(best, total)
    return best ** (1.0 / p)


def brute_bottleneck(left_pairs, right_pairs) -> float:
    """Exhaustive minimum of the maximum pair distance (Chebyshev ground metric)."""
    n, m = len(left_pairs), len(right_pairs)
    best = math.inf
    for match in _partial_matchings(n, m):
        worst = 0.0
        used = set()
        for li, ri in enumerate(match):
            lb, ld = left_pairs[li]
            if ri == -1:
                worst = max(worst, (ld - lb) / 2.0)
            else:
                used.add(ri)
                rb, rd = right_pairs[ri]
                worst = max(worst, abs(lb - rb), abs(ld - rd))
        for ri in range(m):
            if ri not in used:
                rb, rd = right_pairs[ri]
                worst = max(worst, (rd - rb) / 2.0)
        best = min(best, worst)
    return best


def oracle_augmented(lpts: np.ndarray, rpts: np.ndarray, chebyshev: bool) -> np.ndarray:
    """The augmented (n+m)^2 matrix by broadcasting over an (n, m, 2) difference array.

    The dot-to-dot block is the max (Chebyshev) or the root of the sum of squares of the
    absolute coordinate differences. matching._augmented builds the Euclidean matrix in
    place and must agree bit for bit; the Chebyshev one is the bottleneck oracles' graph.
    """
    n, m = lpts.shape[0], rpts.shape[0]
    dist = np.full((n + m, n + m), np.inf)
    diff = np.abs(lpts[:, None, :] - rpts[None, :, :])
    dist[:n, :m] = diff.max(axis=2) if chebyshev else np.sqrt((diff * diff).sum(axis=2))
    scale = 2.0 if chebyshev else math.sqrt(2.0)
    dist[np.arange(n), m + np.arange(n)] = np.abs(lpts[:, 1] - lpts[:, 0]) / scale
    dist[n + np.arange(m), np.arange(m)] = np.abs(rpts[:, 1] - rpts[:, 0]) / scale
    dist[n:, m:] = 0.0
    return dist


def oracle_bottleneck(lpts: np.ndarray, rpts: np.ndarray):
    """(pairs, cost) of the bottleneck matching, every probe on the whole augmented graph.

    Binary search over every distinct finite entry of the (n+m)^2 matrix; each probe runs
    Hopcroft-Karp on the augmented graph at that threshold, diagonal-copy block included.
    The pairs are those of the last feasible probe. matching._bottleneck must agree bit
    for bit.
    """
    dist = oracle_augmented(lpts, rpts, chebyshev=True)
    candidates = np.unique(dist[np.isfinite(dist)])  # the optimum is one of these

    def matching_at(d: float):
        row_of_col = maximum_bipartite_matching(csr_matrix(dist <= d), perm_type="row")
        return row_of_col if (row_of_col >= 0).all() else None

    lo, hi = 0, len(candidates) - 1  # the largest candidate is always feasible
    best = matching_at(float(candidates[hi]))
    while lo < hi:
        mid = (lo + hi) // 2
        found = matching_at(float(candidates[mid]))
        if found is None:
            lo = mid + 1
        else:
            best, hi = found, mid
    return _pairs_from_assignment(best, np.arange(best.size), len(lpts), len(rpts)), float(candidates[hi])


def scipy_bottleneck(lpts: np.ndarray, rpts: np.ndarray):
    """(pairs, cost) of matching._bottleneck's threshold search, each graph matched by scipy.

    The same search on the n x m dot graph (np.unique candidates, the two-sided probes),
    then scipy's maximum_bipartite_matching on the whole augmented graph at the optimum,
    copy-to-copy block included. matching._bottleneck must agree bit for bit.
    """
    n, m = len(lpts), len(rpts)
    dist = oracle_augmented(lpts, rpts, chebyshev=True)
    near, lgap, rgap = dist[:n, :m], np.diagonal(dist[:n, m:]), np.diagonal(dist[n:, :m])
    lo = max(dist.min(axis=0).max(), dist.min(axis=1).max())
    hi = max(lgap.max(initial=0.0), rgap.max(initial=0.0))
    candidates = np.unique(dist[(dist >= lo) & (dist <= hi)])

    def feasible(d: float) -> bool:
        edges = near <= d
        return all((maximum_bipartite_matching(csr_matrix(graph), perm_type="column") >= 0).all()
                   for graph in (edges[lgap > d], edges.T[rgap > d]))

    d = float(candidates[bisect.bisect_left(candidates, True, hi=len(candidates) - 1, key=feasible)])
    row_of_col = maximum_bipartite_matching(csr_matrix(dist <= d), perm_type="row")
    return _pairs_from_assignment(row_of_col, np.arange(row_of_col.size), n, m), d


def brute_assignment_cost(cost_matrix) -> float:
    """Minimum-cost perfect assignment by explicit permutation enumeration."""
    c = np.asarray(cost_matrix, dtype=np.float64)
    size = c.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(size)):
        best = min(best, float(sum(c[i, j] for i, j in enumerate(perm))))
    return best


def bfs_labels(mask, connectivity: int) -> tuple[np.ndarray, int]:
    """Components numbered 1, 2, ... in the order a raster scan meets them, by breadth-first search."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
             if (dr, dc) != (0, 0) and (connectivity == 8 or 0 in (dr, dc))]
    labels = np.zeros((h, w), np.int32)
    count = 0
    for start in itertools.product(range(h), range(w)):
        if not mask[start] or labels[start]:
            continue
        count += 1
        labels[start] = count
        queue = collections.deque([start])
        while queue:
            r, c = queue.popleft()
            for dr, dc in steps:
                q = (r + dr, c + dc)
                if 0 <= q[0] < h and 0 <= q[1] < w and mask[q] and not labels[q]:
                    labels[q] = count
                    queue.append(q)
    return labels, count


# ---------------------------------------------------------------------------
# file-parser oracles: the loaders as they were before numpy's parser read the
# numbers, with int(), float() and csv.reader one token, cell or row at a time.
# An integer past int64 can make them raise OverflowError.
# ---------------------------------------------------------------------------

_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)(?:#[^\n]*)?")


def reference_pgm_samples(path) -> tuple[np.ndarray, int]:
    """grid._read_pgm_samples with int() per P2 token."""
    path = Path(path)
    data = path.read_bytes()
    tokens, pos = [], 0
    for _ in range(4):  # magic, width, height, maxval
        match = _PGM_TOKEN.match(data, pos)
        if not match[1]:
            raise GridFormatError(f"{path}: truncated PGM header")
        tokens.append(match[1])
        pos = match.end()
    magic = tokens[0]
    if magic not in (b"P2", b"P5"):
        raise GridFormatError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        header = b"".join(tokens[1:4])
        if b"_" in header or b"+" in header:
            raise ValueError
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise GridFormatError(f"{path}: malformed PGM header {tokens[1:4]!r}") from None
    if width < 1 or height < 1:
        raise GridFormatError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise GridFormatError(f"{path}: PGM maxval {maxval} outside [1, 65535]")
    n = width * height
    if magic == b"P2":
        raw = data[pos:].split()
        try:
            if data.find(b"_", pos) >= 0 or data.find(b"+", pos) >= 0:
                raise ValueError
            samples = np.array([int(t) for t in raw], dtype=np.int64)
        except ValueError:
            raise GridFormatError(f"{path}: non-integer sample in P2 raster") from None
    else:
        pos += 1
        itemsize = 2 if maxval > 255 else 1
        raster = data[pos:pos + n * itemsize]
        if len(raster) != n * itemsize:
            raise GridFormatError(f"{path}: truncated P5 raster")
        samples = np.frombuffer(raster, dtype=">u2" if itemsize == 2 else "u1").astype(np.int64)
    if samples.size != n:
        raise GridFormatError(f"{path}: expected {n} samples, found {samples.size}")
    bad = np.flatnonzero((samples < 0) | (samples > maxval))
    if bad.size:
        i = int(bad[0])
        raise GridFormatError(
            f"{path}: sample {int(samples[i])} at pixel {i} exceeds maxval {maxval}"
        )
    return samples.reshape(height, width), maxval


def reference_csv_grid(path) -> np.ndarray:
    """grid._read_csv_grid with float() per cell."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise GridFormatError(f"{path}: not UTF-8 text") from None
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        try:
            if "_" in line or not line.isascii():
                raise ValueError
            rows.append([float(c) for c in line.split(",")])
        except ValueError:
            raise GridFormatError(f"{path}: line {ln}: unparseable cell") from None
    if not rows:
        raise GridFormatError(f"{path}: empty CSV grid")
    if any(len(r) != len(rows[0]) for r in rows):
        raise GridFormatError(f"{path}: non-rectangular CSV (row lengths differ)")
    return np.array(rows, dtype=np.float64)


def reference_diagram_csv(path) -> PersistenceDiagram:
    """persistence.load_diagram_csv with csv.reader, then float() and int() per row."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError:
        raise GridFormatError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise GridFormatError(f"{path}: {exc}") from None
    if not rows or rows[0] != DIAGRAM_CSV_HEADER:
        raise GridFormatError(f"{path}: missing diagram header {','.join(DIAGRAM_CSV_HEADER)!r}")
    dots = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise GridFormatError(f"{path}: line {ln}: expected 5 columns, got {len(row)}")
        try:
            text = "".join(row)
            if "_" in text or not text.isascii():
                raise ValueError
            birth, death = float(row[0]), float(row[1])
            birth_px = int(row[2])
            death_px = None if row[3] == "" else int(row[3])
            essential = int(row[4])
        except ValueError:
            raise GridFormatError(f"{path}: line {ln}: unparseable diagram row") from None
        if not (0.0 <= birth <= 1.0 and 0.0 <= death <= 1.0):
            raise GridFormatError(f"{path}: line {ln}: birth/death outside [0, 1]")
        if birth_px < 0 or (death_px is not None and death_px < 0):
            raise GridFormatError(f"{path}: line {ln}: negative pixel index")
        if essential not in (0, 1):
            raise GridFormatError(f"{path}: line {ln}: essential must be 0 or 1, got {row[4]!r}")
        if essential != (death_px is None):
            raise GridFormatError(f"{path}: line {ln}: essential flag and death_px disagree")
        dots.append((birth, death, birth_px, -1 if death_px is None else death_px))
    columns = zip(*dots) if dots else ((),) * 4
    return PersistenceDiagram(*map(np.array, columns, (np.float64, np.float64, np.int64, np.int64)))
