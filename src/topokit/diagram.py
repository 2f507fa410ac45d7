"""Diagram-level operations: signal/noise split and total persistence."""

from __future__ import annotations

import math
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
    signal = tuple(d for d in diagram.dots if d.persistence > phi)
    noise = tuple(d for d in diagram.dots if d.persistence <= phi)
    return DecomposedDiagram(PersistenceDiagram(signal), PersistenceDiagram(noise), phi)


def total_persistence(diagram: PersistenceDiagram, p: float = 1.0) -> float:
    """(sum of persistence^p)^(1/p) over all dots; 0 for an empty diagram."""
    p = float(p)
    if p < 1.0:
        raise ValueError(f"order p must be >= 1, got {p}")
    if not diagram.dots:
        return 0.0
    total = sum(d.persistence ** p for d in diagram.dots)
    return float(total ** (1.0 / p))
