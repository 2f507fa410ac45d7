"""Likelihood grids, binary masks, file I/O, thresholding, and labeling.

A likelihood grid is a nonempty 2D float64 array with values in [0, 1],
where low values mark foreground (dark structures). A mask is a 2D bool
array with the same layout. Pixel identifiers used throughout the package
are row-major linear indices into the grid.

Numbers in P2 rasters and CSV grids are read by numpy's text parser
(parse_text): a P2 raster in one pass, a CSV grid one line at a time, so a
bad CSV cell is named by its line. README "Numerical conventions" lists the
grammar. Where numpy reads a form the loaders never took (a "+" in a P2
raster, non-ASCII or \\x1c-\\x1f spaces, an empty CSV line it skips), a
check outside the parse rejects it.

All functions here are pure: they never mutate their inputs.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

SUBLEVEL = "sublevel"
SUPERLEVEL = "superlevel"
DIRECTIONS = (SUBLEVEL, SUPERLEVEL)
REAL_FORMAT = "%.9g"  # how every writer renders a real

_STRUCTURE = {
    4: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
    8: np.ones((3, 3), dtype=bool),
}


class GridFormatError(ValueError):
    """Unparseable grid file, or a stored value outside the allowed range."""


class ComponentLabeling(NamedTuple):
    """Foreground labels (0 = background) and the number of components.

    Labels are assigned in first-encounter raster order starting at 1.
    """

    labels: np.ndarray
    count: int


def format_real(x: float) -> str:
    """Canonical 9-significant-digit rendering used by every writer."""
    return REAL_FORMAT % float(x)


def as_likelihood(values) -> np.ndarray:
    """Coerce to a validated 2D float64 likelihood grid.

    Raises ValueError for a bad shape and GridFormatError for values
    outside [0, 1] (reported with the offending row-major pixel index).
    """
    grid = np.asarray(values, dtype=np.float64)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError(f"likelihood grid must be a nonempty 2D array, got shape {grid.shape}")
    flat = grid.ravel()
    bad = np.flatnonzero(~np.isfinite(flat) | (flat < 0.0) | (flat > 1.0))
    if bad.size:
        i = int(bad[0])
        raise GridFormatError(f"value {float(flat[i])!r} at pixel {i} is outside [0, 1]")
    return grid


def as_mask(values) -> np.ndarray:
    mask = np.asarray(values)
    if mask.ndim != 2 or mask.size == 0:
        raise ValueError(f"mask must be a nonempty 2D array, got shape {mask.shape}")
    return mask.astype(bool)


def threshold(grid, c: float, direction: str = SUBLEVEL) -> np.ndarray:
    """Mask of pixels at or below c (sublevel) or at or above c (superlevel)."""
    grid = as_likelihood(grid)
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    c = float(c)
    if not np.isfinite(c):
        raise ValueError(f"threshold must be finite, got {c}")
    return grid <= c if direction == SUBLEVEL else grid >= c


def label_components(mask, connectivity: int = 4) -> ComponentLabeling:
    """4- or 8-connected components of the foreground, raster-ordered labels."""
    from scipy import ndimage

    mask = as_mask(mask)
    if connectivity not in _STRUCTURE:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity!r}")
    # scipy numbers the components 1, 2, ... in the order a raster scan meets them.
    labels, count = ndimage.label(mask, structure=_STRUCTURE[connectivity], output=np.int32)
    return ComponentLabeling(labels, count)


# ---------------------------------------------------------------------------
# file formats: PGM (P2 ascii / P5 binary) and headerless CSV
# ---------------------------------------------------------------------------

# A PGM header token after any whitespace and comments, then a comment right after it. A
# comment runs to its newline; after maxval, that newline is the byte before a P5 raster.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)(?:#[^\n]*)?")
# A P2 raster becomes one line of space-separated tokens. numpy also splits at \x1c-\x1f,
# which bytes.split() and int() never took for whitespace, so those become unparseable.
_P2_SPACES = bytes.maketrans(b"\t\n\v\f\r\x1c\x1d\x1e\x1f", b"     ????")
_P2_INTEGER = re.compile(rb"-?[0-9]+")


def parse_text(lines, **kwargs) -> np.ndarray:
    """np.loadtxt over an iterable of lines with no comment character.

    numpy's grammar: ASCII digits only, no digit separators, integers within
    int64, whitespace around a field allowed. An empty line is skipped; input
    with no rows gives an empty array instead of numpy's warning.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(lines, comments=None, **kwargs)


def plain_ascii(text: str) -> bool:
    """False if text holds a character numpy strips around a number but the loaders never took.

    numpy strips all Unicode whitespace. float() and int() strip non-ASCII spaces as
    well, but the loaders rejected any non-ASCII text; of the ASCII characters they
    strip only \\t\\n\\v\\f\\r and the space, not \\x1c-\\x1f.
    """
    return text.isascii() and not any(c in text for c in "\x1c\x1d\x1e\x1f")


def _read_pgm_samples(path) -> tuple[np.ndarray, int]:
    """Parse a PGM file into (height x width int array, maxval)."""
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
        if b"_" in header or b"+" in header:  # int() reads b"+1_0" as 10
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
        try:
            if data.find(b"+", pos) >= 0:  # numpy reads "+5" as 5
                raise ValueError
            line = str(memoryview(data.translate(_P2_SPACES))[pos:], "ascii")
            samples = parse_text([line], dtype=np.int64, ndmin=1)
        except ValueError:  # a UnicodeDecodeError is one too
            raw = data[pos:].split()
            if not all(map(_P2_INTEGER.fullmatch, raw)):
                raise GridFormatError(f"{path}: non-integer sample in P2 raster") from None
            # Integers past int64: the checks below name the first one as out of range.
            samples = np.array([int(t) for t in raw], dtype=object)
    else:
        pos += 1  # exactly one whitespace byte separates maxval from the raster
        itemsize = 2 if maxval > 255 else 1
        raster = data[pos:pos + n * itemsize]
        if len(raster) != n * itemsize:
            raise GridFormatError(f"{path}: truncated P5 raster")
        dtype = ">u2" if itemsize == 2 else "u1"
        samples = np.frombuffer(raster, dtype=dtype).astype(np.int64)
    if samples.size != n:
        raise GridFormatError(f"{path}: expected {n} samples, found {samples.size}")
    bad = np.flatnonzero((samples < 0) | (samples > maxval))
    if bad.size:
        i = int(bad[0])
        sample = int(samples[i])
        bound = f"exceeds maxval {maxval}" if sample > 0 else f"is outside [0, {maxval}]"
        raise GridFormatError(f"{path}: sample {sample} at pixel {i} {bound}")
    return samples.reshape(height, width), maxval


def _read_csv_grid(path) -> np.ndarray:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise GridFormatError(f"{path}: not UTF-8 text") from None
    lines = text.splitlines()
    if not lines:
        raise GridFormatError(f"{path}: empty CSV grid")
    rows = []
    for ln, line in enumerate(lines, start=1):  # \x1c or U+2028 ends a line, as \n does
        try:
            if not line or not plain_ascii(line):  # numpy would skip an empty line
                raise ValueError
            rows.append(parse_text([line], delimiter=",", ndmin=1))
        except ValueError:
            raise GridFormatError(f"{path}: line {ln}: unparseable cell") from None
    if len({row.size for row in rows}) > 1:
        raise GridFormatError(f"{path}: non-rectangular CSV (row lengths differ)")
    return np.array(rows)


def _infer_format(path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("pgm", "csv"):
            raise ValueError(f"format must be 'pgm' or 'csv', got {fmt!r}")
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        return "pgm"
    if suffix == ".csv":
        return "csv"
    raise ValueError(f"cannot infer grid format from {path!r}; pass fmt='pgm' or 'csv'")


def load_grid(path, fmt: str | None = None) -> np.ndarray:
    """Load a likelihood grid from PGM (values scaled by maxval) or CSV."""
    fmt = _infer_format(path, fmt)
    if fmt == "pgm":
        samples, maxval = _read_pgm_samples(path)
        return as_likelihood(samples / float(maxval))
    return as_likelihood(_read_csv_grid(path))


def save_csv_table(values, path, fmt: str | list[str] = REAL_FORMAT, header: str = "") -> None:
    """Write a 2D array as rows of comma-separated cells, after the header line if given.

    fmt is one %-format for every cell or a list of one per column.
    """
    with open(path, "w") as fh:  # given a path, np.savetxt would gzip one that ends in .gz
        np.savetxt(fh, values, fmt=fmt, delimiter=",", header=header, comments="")


def save_grid_csv(grid, path) -> None:
    save_csv_table(as_likelihood(grid), path)


def _write_p2(values, path, maxval: int) -> None:
    """Write a 2D array of values in [0, 1] as an ascii (P2) PGM of round(v * maxval).

    16 samples per line; maxval must be an integer the loader accepts.
    """
    if isinstance(maxval, bool) or not isinstance(maxval, (int, np.integer)) \
            or not 1 <= maxval <= 65535:
        raise ValueError(f"maxval must be an integer in [1, 65535], got {maxval!r}")
    h, w = values.shape
    flat = np.rint(values.ravel() * maxval).astype(np.int64)
    whole = flat.size - flat.size % 16
    with open(path, "w") as fh:
        fh.write(f"P2\n{w} {h}\n{maxval}\n")
        np.savetxt(fh, flat[:whole].reshape(-1, 16), fmt="%d", delimiter=" ")
        if whole < flat.size:
            np.savetxt(fh, flat[whole:].reshape(1, -1), fmt="%d", delimiter=" ")


def save_grid_pgm(grid, path, maxval: int = 65535) -> None:
    """Write an ascii (P2) PGM, quantizing values to round(v * maxval)."""
    _write_p2(as_likelihood(grid), path, maxval)


def load_mask_pgm(path) -> np.ndarray:
    """Load a binary mask from PGM; any nonzero sample is foreground."""
    samples, _ = _read_pgm_samples(path)
    return samples != 0


def save_mask_pgm(mask, path, maxval: int = 255) -> None:
    """Write an ascii (P2) PGM of maxval at foreground pixels and 0 elsewhere."""
    _write_p2(as_mask(mask), path, maxval)
