"""0-dimensional sublevel-set persistence of 2D grids.

Pixels are inserted in the order of a stable argsort of their values
(ties broken by row-major index) into a union-find forest, and each root
stores the birth rank: the position in that order of its component's first
pixel. When an inserted pixel joins two or more live components, the elder
rule keeps the component with the smallest birth rank and kills the others;
the inserted pixel is recorded as the death pixel of every killed
component. A stable argsort ranks pixel a before b exactly when
(value a, a) < (value b, b), so the smallest rank is the smallest
(birth value, birth pixel) and no value is compared after the sort. The one
component that never dies is reported as the essential dot with death
pinned at 1.0.

The forest is indexed over a frame: the grid plus a one-cell border that
is never inserted. Every pixel then has the same neighbour offsets (up,
down, left, right, then the four diagonals for 8-connectivity) and no
bounds are checked. Roots are met in that neighbour order, which fixes the
order in which the dots killed at one pixel are emitted.

The superlevel direction runs the same algorithm on 1 - v and reports
births and deaths in original value coordinates, so a superlevel dot has
birth >= death and the essential death is 0.0. Critical pixels always
carry the exact source grid value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import DIRECTIONS, SUBLEVEL, SUPERLEVEL, GridFormatError, as_likelihood, format_real

DIAGRAM_CSV_HEADER = ["birth", "death", "birth_px", "death_px", "essential"]


@dataclass(frozen=True)
class PersistentDot:
    """One connected-component feature: birth/death values and critical pixels.

    birth_pixel is the component's minimum; death_pixel is the pixel whose
    insertion merged it away. A dot is essential exactly when it has no
    death pixel. The grid value at each critical pixel equals the stored
    birth/death exactly.
    """

    birth: float
    death: float
    birth_pixel: int
    death_pixel: int | None = None

    @property
    def essential(self) -> bool:
        return self.death_pixel is None

    @property
    def persistence(self) -> float:
        """Life span |death - birth| (death - birth for sublevel diagrams)."""
        return abs(self.death - self.birth)


@dataclass(frozen=True)
class PersistenceDiagram:
    """Dots in emission order; compute_diagram puts the essential dot last."""

    dots: tuple[PersistentDot, ...]

    def __len__(self) -> int:
        return len(self.dots)

    @property
    def essential_dot(self) -> PersistentDot | None:
        for dot in self.dots:
            if dot.essential:
                return dot
        return None


# The two most recent pairings, newest first: (h, w, connectivity), the stable
# argsort the loop iterated over, and the diagram it gave. Two because
# topo_loss_and_gradient computes two diagrams per call, student and teacher.
# Entries are never changed and the list is replaced whole, so a concurrent caller
# can at worst drop an entry, never read a mixed one.
_recent: list[tuple[tuple[int, int, int], list[int], PersistenceDiagram]] = []
_RECENT_SIZE = 2


def compute_diagram(grid, direction: str = SUBLEVEL, connectivity: int = 4) -> PersistenceDiagram:
    """Union-find persistence of the grid's threshold filtration.

    Finite dots are emitted in merge (death) order; the essential dot comes
    last. Deterministic: all ties are broken by row-major pixel index.

    The pairing depends only on the shape, the connectivity and the stable
    argsort, so when those equal the ones of one of the two most recent
    calls, that call's birth/death pixels are reused in its emission order and
    only the values are read from this grid, which gives the dots the loop
    would give. No reference to the grid is kept.
    """
    values = as_likelihood(grid)
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity!r}")
    h, w = values.shape
    flat = values.ravel()
    order = np.argsort(1.0 - flat if direction == SUPERLEVEL else flat, kind="stable").tolist()
    flat_l = flat.tolist()
    ess_death = 0.0 if direction == SUPERLEVEL else 1.0
    key = (h, w, connectivity)
    recent = list(_recent)
    for i, entry in enumerate(recent):
        if entry[0] == key and entry[1] == order:
            del recent[i]
            dots = tuple(
                PersistentDot(flat_l[d.birth_pixel],
                              ess_death if d.death_pixel is None else flat_l[d.death_pixel],
                              d.birth_pixel, d.death_pixel)
                for d in entry[2].dots
            )
            break
    else:
        dots = _pair(order, flat_l, h, w, connectivity, ess_death)
    diagram = PersistenceDiagram(dots)
    _recent[:] = [(key, order, diagram)] + recent[:_RECENT_SIZE - 1]
    return diagram


def _pair(order: list[int], flat_l: list[float], h: int, w: int, connectivity: int,
          ess_death: float) -> tuple[PersistentDot, ...]:
    """The union-find loop over pixels in the given order; values only label the dots."""
    fw = w + 2  # frame width: the grid plus a one-cell border that is never inserted
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
    dots.append(PersistentDot(flat_l[ess_px], ess_death, ess_px))
    return tuple(dots)


def betti_curve(diagram: PersistenceDiagram, c: float) -> int:
    """Number of components of the sublevel mask at threshold c.

    Counts dots alive at c (birth <= c < death); the essential dot counts
    whenever birth <= c, which also covers c = 1. Sublevel diagrams only.
    """
    c = float(c)
    count = 0
    for dot in diagram.dots:
        if dot.essential:
            if dot.birth <= c:
                count += 1
        elif dot.birth <= c < dot.death:
            count += 1
    return count


# ---------------------------------------------------------------------------
# diagram CSV: birth,death,birth_px,death_px,essential
# ---------------------------------------------------------------------------

def format_diagram_csv(diagram: PersistenceDiagram) -> str:
    """The diagram as CSV text: header line, then one row per dot."""
    lines = [",".join(DIAGRAM_CSV_HEADER)]
    for dot in diagram.dots:
        death_px = "" if dot.death_pixel is None else str(dot.death_pixel)
        lines.append(
            f"{format_real(dot.birth)},{format_real(dot.death)},"
            f"{dot.birth_pixel},{death_px},{1 if dot.essential else 0}"
        )
    return "\n".join(lines) + "\n"


def save_diagram_csv(diagram: PersistenceDiagram, path) -> None:
    Path(path).write_text(format_diagram_csv(diagram))


def load_diagram_csv(path) -> PersistenceDiagram:
    """Read a diagram CSV; values must lie in [0, 1] and pixel indices be nonnegative."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError:
        raise GridFormatError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise GridFormatError(f"{path}: {exc}") from None
    if not rows or rows[0] != DIAGRAM_CSV_HEADER:
        raise GridFormatError(f"{path}: missing diagram header {','.join(DIAGRAM_CSV_HEADER)!r}")
    dots = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise GridFormatError(f"{path}: line {ln}: expected 5 columns, got {len(row)}")
        try:
            if "_" in "".join(row):  # float() and int() read Python's digit separators
                raise ValueError
            birth, death = float(row[0]), float(row[1])
            birth_px = int(row[2])
            death_px = None if row[3] == "" else int(row[3])
            essential = int(row[4])
        except ValueError:
            raise GridFormatError(f"{path}: line {ln}: unparseable diagram row") from None
        if not (0.0 <= birth <= 1.0 and 0.0 <= death <= 1.0):  # also false for NaN
            raise GridFormatError(f"{path}: line {ln}: birth/death outside [0, 1]")
        if birth_px < 0 or (death_px is not None and death_px < 0):
            raise GridFormatError(f"{path}: line {ln}: negative pixel index")
        if essential not in (0, 1):
            raise GridFormatError(f"{path}: line {ln}: essential must be 0 or 1, got {row[4]!r}")
        if essential != (death_px is None):
            raise GridFormatError(f"{path}: line {ln}: essential flag and death_px disagree")
        dots.append(PersistentDot(birth, death, birth_px, death_px))
    return PersistenceDiagram(tuple(dots))
