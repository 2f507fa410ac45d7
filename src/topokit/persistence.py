"""0-dimensional sublevel-set persistence of 2D grids.

Pixels are inserted in the order of a stable argsort of their values (ties
broken by row-major index); a pixel's rank is its position in that order.
When an inserted pixel joins two or more live components, the elder rule
keeps the component whose first pixel has the smallest rank and kills the
others, and the inserted pixel is the death pixel of every killed component.
A stable argsort ranks pixel a before b exactly when (value a, a) <
(value b, b), so the smallest rank is the smallest (birth value, birth pixel)
and no value is compared after the sort. The one component that never dies
is reported as the essential dot with death pinned at 1.0.

The kernel contracts basins first (the gradient pairing of Robins, Wood &
Sheppard, IEEE TPAMI 2011), then merges them:

- Basins. Every pixel points at its lowest-ranked lower neighbour, a local
  minimum at itself, and pointer jumping (p = p[p]) resolves each pointer
  to a minimum. A pixel joins the component of the basin it descends into,
  so only an edge between a pixel and a lower neighbour in another basin can
  merge components. Basins are numbered in their minima's rank order, so the
  elder of two components is the one with the smaller number.
- Deduped edges. Each is found where it lies in the frame and keyed by rank *
  connectivity + offset index. Of the edges between two basins (packed as
  min * count + max) only the least key is kept: the rest join nothing new.
- The merge. numpy contracts the kept edges in rounds, after the leaf
  pruning of Carr, Weber, Sewell & Ahrens (IEEE LDAV 2016). A node is a
  basin number that stands for its group, and an edge's key is its place in
  key order. Each node takes its lowest-key edge; a node whose edge leads to
  an older node dies there, since its group has met nothing before. Dying
  nodes join their targets and the edges are relabelled. That edge is also
  an edge of the target, so a target dying in the same round dies at an
  earlier key and one round can join them all exactly. A round that kills
  under a quarter of the nodes with edges ends the rounds, and a pairwise
  union-find takes the edges left in key order: a chain whose minima rise
  while its saddles fall would take a round per basin.
- Emission order. Deaths come out in key order. The dots one pixel kills
  come out in the order its scan of its lower neighbours (up, down, left,
  right, then the four diagonals for 8-connectivity) meets their roots, as a
  pixel-by-pixel union-find would; binary lifting over the merge's pointers
  finds those roots.

Neighbours are read through a frame: the grid plus a one-cell border that
ranks after every pixel and lies in no basin, so no bounds are checked. Dot
values are read from the grid at the birth and death pixels only.

The superlevel direction runs the same algorithm on -v, which keeps distinct
values distinct (1 - v would not), and reports births and deaths in original
value coordinates, so a superlevel dot has birth >= death and the essential
death is 0.0. Critical pixels always carry the exact source grid value.

A diagram is four read-only numpy columns, one row per dot: birth and death
(float64), birth_px and death_px (int64), with death_px -1 for the essential
dot. Its dots property is a derived view that builds PersistentDot objects.

compute_diagrams, which compute_diagram calls on one grid, is the one path to the
kernel. It passes each grid through as_likelihood once, checks the direction, the
connectivity and the shapes, and pairs the grids in one kernel call, stacked with
a never-inserted separator row between them that ranks and lies like the border.
Ranks are grid-major and the elder rule compares ranks only within a component, so
each grid gets the dots, order and essential dot of a call on it alone. The last
batch is remembered: its shape, connectivity, the stable argsort (an ndarray) of
each grid and each grid's birth/death pixels. A batch of as many grids, of the same
shape and connectivity, reuses those pixels when each remembered order is still
the stable argsort of its new grid: the values it gathers never fall, and it rises
inside every run of ties. That takes no sort. Any other batch is paired afresh, all
of its grids in one kernel call, and replaces it. Its orders come from numpy's
default argsort, whose tie runs, where there are any, are then sorted into pixel
order, which gives the stable argsort. Both treat -0.0 and 0.0 as equal.

load_diagram_csv streams the file through csv.reader, the only thing that
splits its rows, and reads each cell with grid.strict_float or grid.strict_int
into array.array columns, so memory grows with the dots, not the text. A row
with a cell those refuse or an integer past int64 is unparseable.
"""

from __future__ import annotations

import array
import collections
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import (
    DIRECTIONS,
    REAL_FORMAT,
    SUBLEVEL,
    SUPERLEVEL,
    GridFormatError,
    as_likelihood,
    strict_float,
    strict_int,
)

DIAGRAM_CSV_HEADER = ["birth", "death", "birth_px", "death_px", "essential"]


@dataclass(frozen=True)
class PersistentDot:
    """One row of a PersistenceDiagram, with death_pixel None for the essential dot."""

    birth: float
    death: float
    birth_pixel: int
    death_pixel: int | None = None


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Dots as columns (see the module docstring); compute_diagram puts the essential dot last.

    The constructor takes numpy arrays of those dtypes and marks them read-only:
    compute_diagram's pixel columns are the very arrays it remembers of the last batch.
    """

    birth: np.ndarray
    death: np.ndarray
    birth_px: np.ndarray
    death_px: np.ndarray

    def __post_init__(self):
        for column in vars(self).values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.birth)

    def __eq__(self, other):  # the generated one would take the truth value of an array
        return isinstance(other, PersistenceDiagram) and all(
            map(np.array_equal, vars(self).values(), vars(other).values()))

    @property
    def essential(self) -> np.ndarray:
        return self.death_px < 0

    @property
    def persistence(self) -> np.ndarray:
        """|death - birth| of every dot (death - birth for sublevel diagrams)."""
        return np.abs(self.death - self.birth)

    @property
    def dots(self) -> tuple[PersistentDot, ...]:
        """The rows as PersistentDot objects, built on each access."""
        death_px = np.where(self.essential, None, self.death_px)
        return tuple(map(PersistentDot, self.birth.tolist(), self.death.tolist(),
                         self.birth_px.tolist(), death_px.tolist()))


# The last batch: (h, w, connectivity, grid count), each grid's stable argsort as an
# ndarray, and the birth and death pixels _pair gave for each; one batch because
# topo_loss_and_gradient pairs student and teacher in one call. A later batch hits when
# _still_orders holds for every remembered argsort and its new grid. The tuple is
# replaced whole, never changed, so a concurrent caller can at worst miss, never read a mix.
_last: tuple[tuple[int, int, int, int], list[np.ndarray], list[tuple]] | None = None

# Neighbour offsets (row, column): up, down, left, right, then the four diagonals.
_SHIFTS = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def compute_diagram(grid, direction: str = SUBLEVEL, connectivity: int = 4) -> PersistenceDiagram:
    """Union-find persistence of the grid's threshold filtration: compute_diagrams((grid,))[0].

    Finite dots are emitted in merge (death) order; the essential dot comes last.
    Deterministic: all ties are broken by row-major pixel index. The pairing depends
    only on the shape, the connectivity and the stable argsort, so the last call's is
    reused when its argsort still orders this grid (tested without a sort), and only the
    values are read from this grid, of which no reference is kept. Otherwise the argsort
    is numpy's default one with its tie runs sorted into pixel order.
    """
    return compute_diagrams((grid,), direction, connectivity)[0]


def compute_diagrams(grids, direction: str = SUBLEVEL,
                     connectivity: int = 4) -> list[PersistenceDiagram]:
    """compute_diagram of each grid, all of one shape, from at most one kernel call."""
    global _last
    grids = [as_likelihood(grid) for grid in grids]
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity!r}")
    if not grids:
        return []
    h, w = grids[0].shape
    for grid in grids:
        if grid.shape != (h, w):
            raise ValueError(f"shape mismatch: {(h, w)} vs {grid.shape}")
    flats, k = [grid.ravel() for grid in grids], len(grids)
    ranked = [-f for f in flats] if direction == SUPERLEVEL else flats
    key, last = (h, w, connectivity, k), _last  # _last read once: another call may replace it
    if last and last[0] == key and all(map(_still_orders, last[1], ranked)):
        pixels = last[2]
    else:  # one kernel call over the batch, a separator row below each grid but the last
        orders = list(map(_stable_order, ranked))
        del ranked  # a superlevel batch's negated copies are not needed past the sort
        stride = (h + 1) * w
        stacked = orders[0] if k == 1 else np.concatenate(
            [order + g * stride for g, order in enumerate(orders)])
        birth_px, death_px = _pair(stacked, k * (h + 1) - 1, w, connectivity)
        finite = death_px.size - k  # finite dots grid by grid, then the essential dots
        cuts = np.searchsorted(death_px[:finite] // stride, np.arange(k + 1))
        pixels = []
        for g in range(k):  # grid g's finite dots, then its essential dot
            lo, hi, off = cuts[g], cuts[g + 1], g * stride
            birth, death = np.empty(hi - lo + 1, np.int64), np.empty(hi - lo + 1, np.int64)
            np.subtract(birth_px[lo:hi], off, out=birth[:-1])
            np.subtract(death_px[lo:hi], off, out=death[:-1])
            birth[-1], death[-1] = birth_px[finite + g] - off, -1
            pixels.append((birth, death))
        _last = key, orders, pixels

    diagrams = []
    for flat, (birth_px, death_px) in zip(flats, pixels):
        death = flat[death_px]  # the essential dot's -1 reads the last pixel, overwritten next
        death[-1] = 0.0 if direction == SUPERLEVEL else 1.0
        diagrams.append(PersistenceDiagram(flat[birth_px], death, birth_px, death_px))
    return diagrams


def _still_orders(order: np.ndarray, values: np.ndarray) -> bool:
    """Whether order is the stable argsort of values, given that it is a permutation.

    The stable argsort is the one permutation sorted by (value, pixel), so order is it
    exactly when values[order] never falls and order rises inside every run of ties.
    """
    seen = values[order]
    if not (seen[1:] >= seen[:-1]).all():
        return False
    tie = seen[1:] == seen[:-1]
    return not tie.any() or bool((order[1:][tie] > order[:-1][tie]).all())


def _stable_order(values: np.ndarray) -> np.ndarray:
    """The stable argsort of values, from numpy's default (unstable) argsort.

    Only when the values tie anywhere, each tie run is put in pixel order: the int64
    keys run << bits | pixel, with run the index of the tie run along the sorted values
    and 2**bits >= n, are distinct and below 2**62 (n < 2**31, as _pair's int32 ranks
    need), and sorting them sorts only within the runs.
    """
    order = np.argsort(values)
    seen = values[order]
    new_run = seen[1:] != seen[:-1]
    del seen
    if new_run.all():
        return order
    keys = np.zeros(order.size, np.int64)
    np.cumsum(new_run, out=keys[1:])
    del new_run
    bits = (order.size - 1).bit_length()
    keys <<= bits
    keys |= order
    del order
    keys.sort()
    keys &= (1 << bits) - 1
    return keys


def _pair(order: np.ndarray, h: int, w: int, connectivity: int) -> tuple[np.ndarray, np.ndarray]:
    """Birth and death pixels of every dot in emission order, the essential dots last.

    order lists the inserted cells of an h x w grid; the others rank after them and lie
    in no basin, like the border. Each component leaves an essential dot, death pixel
    -1, in basin order. Basins are numbered in their minima's rank order, so the elder
    of two components is the one whose root has the smaller number. Ranks and basins of
    stacked grids are grid-major: their finite dots come out grid by grid, then one
    essential dot per grid.
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
    fbasin = np.full((h + 2, w + 2), -1, np.int32)  # the border is in no basin
    fbasin[1:-1, 1:-1] = basin[rank]
    del low, is_min, nxt, ptr, number, basin, rank

    # Deduped edges (module docstring), found in the frame's flat span from the first
    # pixel to the last, whose border and separator cells lie in no basin.
    ff, fb, lo, hi = frank.ravel(), fbasin.ravel(), w + 3, (h + 1) * (w + 2) - 1
    here, own, inserted = ff[lo:hi], fb[lo:hi], fb[lo:hi] >= 0
    count, keys, pairs = minima.size, [], []
    for j, at in enumerate(dr * (w + 2) + dc for dr, dc in shifts):
        nb = fb[lo + at:hi + at]
        hit = np.flatnonzero((ff[lo + at:hi + at] < here) & (nb != own) & inserted)
        a, b = own[hit], nb[hit]
        keys.append(np.multiply(here[hit], connectivity, dtype=np.int64) + j)
        pairs.append(np.multiply(np.minimum(a, b), count, dtype=np.int64) + np.maximum(a, b))
    kept, pair = np.concatenate(keys), np.concatenate(pairs)
    del hit, a, b, keys, pairs, inserted
    by_pair = np.argsort(pair)
    starts = _run_starts(pair[by_pair])
    kept, pair = np.minimum.reduceat(kept[by_pair], starts), pair[by_pair[starts]]
    del by_pair, starts
    by_key = np.argsort(kept)
    kept = kept[by_key]

    # The merge (module docstring): an edge's key is its index. Pointer jumping leads each
    # dying node to its first ancestor that is not dying, so every edge is relabelled to
    # live nodes.
    size = kept.size
    into = np.arange(count)  # a dead node -> a node of its component from its death on
    dies = np.full(count, size)  # the key of the edge each node dies at; size: never
    edges = np.empty((3, size), np.intp)
    np.divmod(pair[by_key], count, out=(edges[0], edges[1]))
    edges[2] = np.arange(size)
    del pair, by_key
    while edges.shape[1]:  # rows u < v and key: an edge can only kill its younger end v
        u, v, key = edges[0], edges[1], edges[2]
        least = np.full(count, size)  # each node's lowest key
        np.minimum.at(least, u, key)
        np.minimum.at(least, v, key)
        dying = least[v] == key
        if 4 * np.count_nonzero(dying) < np.count_nonzero(least < size):
            break
        x, y, k = edges.compress(dying, axis=1)
        dies[y], into[y] = k, x
        while np.count_nonzero((z := into[x]) != x):  # pointer jumping
            into[y] = x = z
        a, b = into[u], into[v]
        np.minimum(a, b, out=u)
        np.maximum(a, b, out=v)
        edges = edges.compress(u != v, axis=1)
    if edges.shape[1]:
        dying, elders, keys = _union_find(edges, into)
        dies[dying], into[dying] = keys, elders
    del edges

    # Deaths come out in key order, by a scatter over the edge index. The dots one pixel
    # kills are reordered as its scan meets their roots. A basin's root just before rank
    # r is its first ancestor by into still alive at r, found by binary lifting: levels
    # of the ancestor 2^k steps up and the last rank any node on the way dies at.
    slot = np.full(size + 1, -1)
    slot[dies] = np.arange(count)
    killed = slot[:-1][slot[:-1] >= 0]
    death = kept[dies[killed]] // connectivity
    multi = np.bincount(death)[death] > 1
    if multi.any():
        mr, q = death[multi, None], killed[multi]
        cell = order[mr]
        cell += 2 * (cell // w) + w + 3  # row-major index in the framed arrays
        near = cell + [dr * (w + 2) + dc for dr, dc in shifts]
        root = np.where(ff[near] < mr, fb[near], 0)  # basin 0 never dies
        up, last = into, np.full(count, n)
        last[killed] = death
        levels = [(up, last)]
        while np.count_nonzero((jump := up[up]) != up):
            last = np.maximum(last, last[up])
            up = jump
            levels.append((up, last))
        for up, last in reversed(levels):
            root = np.where(last[root] < mr, up[root], root)
        met = (root == q[:, None]).argmax(axis=1)
        killed[multi] = q[np.lexsort((met, mr[:, 0]))]

    roots = np.flatnonzero(dies == size)  # one per component, in basin order
    death_px = np.append(order[death], np.full(roots.size, -1))
    return order[minima[np.concatenate((killed, roots))]], death_px


def _union_find(edges: np.ndarray, into: np.ndarray) -> tuple[list, list, list]:
    """Nodes a pairwise union-find kills over the edges (rows u, v, key) in key order.

    The elder of two nodes is the smaller. Returns the killed nodes, the node each one
    joined and the key each one died at.
    """
    parent, dying, elders, keys = into.tolist(), [], [], []
    for x, y, k in zip(*edges.tolist()):
        while parent[x] != x:  # find with path halving
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
            elders.append(x)
            keys.append(k)
    return dying, elders, keys


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values."""
    new = np.empty(values.size, bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


# ---------------------------------------------------------------------------
# diagram CSV: birth,death,birth_px,death_px,essential
# ---------------------------------------------------------------------------

def format_diagram_csv(diagram: PersistenceDiagram) -> str:
    """The diagram as CSV text: a header line, then one row per dot, reals in REAL_FORMAT."""
    death_px = np.where(diagram.essential, "", diagram.death_px.astype(object))
    cells = np.array((diagram.birth, diagram.death, diagram.birth_px, death_px,
                      diagram.essential.astype(np.int64)), dtype=object).T.ravel().tolist()
    row = f"{REAL_FORMAT},{REAL_FORMAT},%d,%s,%d\n"
    return ",".join(DIAGRAM_CSV_HEADER) + "\n" + row * len(diagram) % tuple(cells)


def save_diagram_csv(diagram: PersistenceDiagram, path) -> None:
    Path(path).write_text(format_diagram_csv(diagram))


_INT64 = range(-2**63, 2**63)


def _diagram_row(row: list[str], line: int) -> tuple[float, float, int, int]:
    """birth, death, birth_px and death_px (-1 when empty) of one csv row on the given line.

    A row with a cell grid.strict_float or grid.strict_int refuses, or with an integer past
    int64, is unparseable. The GridFormatError (without the path) names the first failing
    check: the column count, the parse, the value range, the pixel signs, the flag, the
    flag against death_px.
    """
    if len(row) != 5:
        raise GridFormatError(f"line {line}: expected 5 columns, got {len(row)}")
    given = row[3] != ""
    try:
        birth, death = strict_float(row[0]), strict_float(row[1])
        birth_px, essential = strict_int(row[2]), strict_int(row[4])
        death_px = strict_int(row[3]) if given else -1
        if birth_px not in _INT64 or death_px not in _INT64 or essential not in _INT64:
            raise ValueError
    except ValueError:
        raise GridFormatError(f"line {line}: unparseable diagram row") from None
    if not (0.0 <= birth <= 1.0 and 0.0 <= death <= 1.0):  # NaN fails too
        raise GridFormatError(f"line {line}: birth/death outside [0, 1]")
    if birth_px < 0 or death_px < 0 and given:
        raise GridFormatError(f"line {line}: negative pixel index")
    if essential not in (0, 1):
        raise GridFormatError(f"line {line}: essential must be 0 or 1, got {row[4]!r}")
    if essential == given:
        raise GridFormatError(f"line {line}: essential flag and death_px disagree")
    return birth, death, birth_px, death_px


def load_diagram_csv(path) -> PersistenceDiagram:
    """Read a diagram CSV; values must lie in [0, 1] and pixel indices be nonnegative.

    Rows are split as csv.reader splits them (quoted fields, an empty death_px for the
    essential dot) and read one at a time with float() and int() into array.array
    columns. The error is, in this order: a non-UTF-8 byte anywhere, csv.reader's first
    error (a field over its size limit), a bad header, the first bad row.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            try:
                try:
                    if next(rows, None) != DIAGRAM_CSV_HEADER:
                        raise GridFormatError(
                            f"missing diagram header {','.join(DIAGRAM_CSV_HEADER)!r}")
                    columns = tuple(map(array.array, "ddqq"))
                    for line, row in enumerate(rows, 2):
                        for column, value in zip(columns, _diagram_row(row, line)):
                            column.append(value)
                    return PersistenceDiagram(*(np.frombuffer(c, c.typecode) for c in columns))
                except GridFormatError as exc:
                    problem = exc
                    collections.deque(rows, maxlen=0)  # a later csv.Error or non-UTF-8 byte wins
            except csv.Error as exc:
                problem = exc
                while fh.read(1 << 20):  # a later non-UTF-8 byte wins
                    pass
    except UnicodeDecodeError:
        raise GridFormatError(f"{path}: not UTF-8 text") from None
    raise GridFormatError(f"{path}: {problem}") from None
