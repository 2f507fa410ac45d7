"""Diagram-level operations: signal/noise split and total persistence."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .persistence import PersistenceDiagram

DEFAULT_PHI = 0.7


@dataclass(frozen=True)
class DecomposedDiagram:
    """Signal (persistence > phi) and noise (persistence <= phi) sub-diagrams.

    Every dot of the input, the essential one included, lands in exactly one
    side; dot order within each side follows the input diagram.
    """

    signal: PersistenceDiagram
    noise: PersistenceDiagram
    phi: float


def decompose(diagram: PersistenceDiagram, phi: float = DEFAULT_PHI) -> DecomposedDiagram:
    phi = float(phi)
    if not 0.0 <= phi < math.inf:
        raise ValueError(f"persistence threshold must be finite and nonnegative, got {phi}")
    b, d, bp, dp = diagram.birth, diagram.death, diagram.birth_px, diagram.death_px
    persistence = diagram.persistence
    signal, noise = persistence > phi, persistence <= phi
    return DecomposedDiagram(PersistenceDiagram(b[signal], d[signal], bp[signal], dp[signal]),
                             PersistenceDiagram(b[noise], d[noise], bp[noise], dp[noise]), phi)


def total_persistence(diagram: PersistenceDiagram, p: float = 1.0) -> float:
    """(sum of persistence^p)^(1/p) over all dots, the maximum at p = inf; 0 when empty."""
    p = float(p)
    if not p >= 1.0:  # also rejects NaN
        raise ValueError(f"order p must be >= 1, got {p}")
    persistence = diagram.persistence
    top = float(persistence.max(initial=0.0))
    if math.isinf(p):
        return top
    total = (persistence ** p).sum()
    if total < sys.float_info.min and top > 0.0:  # the powers underflowed: units of the largest
        return top * float(((persistence / top) ** p).sum() ** (1.0 / p))
    return float(total ** (1.0 / p))
