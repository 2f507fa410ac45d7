"""Diagram-level operations: the signal/noise split."""

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
    b, d, bp, dp = diagram.birth, diagram.death, diagram.birth_px, diagram.death_px
    persistence = diagram.persistence
    signal, noise = persistence > phi, persistence <= phi
    return DecomposedDiagram(PersistenceDiagram(b[signal], d[signal], bp[signal], dp[signal]),
                             PersistenceDiagram(b[noise], d[noise], bp[noise], dp[noise]), phi)
