"""Seeded inputs and the benchmark's own writers for them.

Nothing here calls topokit: the program receives only the files written
here. Each generator returns the values exactly as topokit will read them
back, so the output checks compare against what the program saw.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import ndimage


def random_grid(rng, n: int) -> np.ndarray:
    """Independent uniform pixels: about one dot per five pixels, no ties."""
    return rng.random((n, n))


def smooth_grid(rng, n: int) -> np.ndarray:
    """Blurred noise rescaled to [0, 1]: a handful of wide basins."""
    g = ndimage.gaussian_filter(rng.random((n, n)), sigma=n / 16, mode="wrap")
    return (g - g.min()) / (g.max() - g.min())


def quantize(grid: np.ndarray, maxval: int) -> np.ndarray:
    """Integer PGM samples; 8 bits turn a smooth grid into wide plateaus."""
    return np.rint(grid * maxval).astype(np.int64)


def write_p2(path: Path, samples: np.ndarray, maxval: int) -> np.ndarray:
    h, w = samples.shape
    rows = "\n".join(" ".join(map(str, row)) for row in samples.tolist())
    path.write_text(f"P2\n{w} {h}\n{maxval}\n{rows}\n")
    return samples / float(maxval)


def write_p5(path: Path, samples: np.ndarray, maxval: int) -> np.ndarray:
    h, w = samples.shape
    dtype = ">u2" if maxval > 255 else "u1"
    path.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode() + samples.astype(dtype).tobytes())
    return samples / float(maxval)


def write_csv_grid(path: Path, grid: np.ndarray) -> np.ndarray:
    path.write_text("\n".join(",".join(map(repr, row)) for row in grid.tolist()) + "\n")
    return grid


def write_mask(path: Path, mask: np.ndarray, binary: bool) -> np.ndarray:
    samples = mask.astype(np.int64) * 255
    return (write_p5 if binary else write_p2)(path, samples, 255) != 0


def diagram_dots(rng, k: int, quantized: bool) -> np.ndarray:
    """k dots (birth, death) shaped like a sublevel diagram of a grid.

    Random-grid diagrams have no zero-persistence dot. On 8-bit grids most
    dots are born and die on one plateau level, so birth == death. The last
    dot is the essential one, dying at 1.0.
    """
    birth = rng.uniform(0.0, 0.6, k)
    life = rng.uniform(0.002, 0.35, k)
    if quantized:
        birth = np.rint(birth * 255) / 255
        life = np.where(rng.random(k) < 0.85, 0.0, np.rint(life * 255) / 255)
    death = np.minimum(birth + life, 1.0)
    birth[-1], death[-1] = birth.min(), 1.0
    return np.stack([birth, death], axis=1)


def write_diagram_csv(path: Path, dots: np.ndarray, rng) -> np.ndarray:
    """Diagram CSV in topokit's layout; returns the dots as they parse back."""
    k = len(dots)
    pixels = rng.permutation(16 * k)[: 2 * k]
    lines = ["birth,death,birth_px,death_px,essential"]
    for i, (b, d) in enumerate(dots.tolist()):
        essential = i == k - 1
        death_px = "" if essential else str(pixels[k + i])
        lines.append(f"{b:.9g},{d:.9g},{pixels[i]},{death_px},{int(essential)}")
    path.write_text("\n".join(lines) + "\n")
    return np.array([[float(x) for x in ln.split(",")[:2]] for ln in lines[1:]])
