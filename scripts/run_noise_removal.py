#!/usr/bin/env python3
"""Flatten the shallow dents of the synthetic 32x32 likelihood grid.

The scenario starts with 3 deep minima (persistence > 0.7) and 10 shallow
noise dents (persistence ~ 0.11-0.12). Driving only the noise-removal term
of the topological loss contracts every dent onto the diagonal while the
deep minima stay put. The run prints the removal-loss decay and the final
diagram decomposition, and writes the per-step trace as CSV.

Each side of a decomposition is a diagram of numpy columns, one row per
dot: birth, death, birth_px and death_px, with death_px -1 for the
essential dot. The printout reads those columns; diagram.dots would build
the same rows as PersistentDot objects.
"""

import argparse
from pathlib import Path

from topokit.diagram import decompose
from topokit.losses import NOISE_DIAGONAL, NOISE_MODES
from topokit.persistence import compute_diagram
from topokit.scenarios import noise_removal_grid
from topokit.trainer import (
    TrainConfig,
    likelihood_to_logits,
    run_simulation,
    write_trace_csv,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--eta", type=float, default=0.1, help="learning rate")
    parser.add_argument("--phi", type=float, default=0.7,
                        help="persistence threshold separating signal from noise")
    parser.add_argument("--noise-mode", choices=NOISE_MODES, default=NOISE_DIAGONAL)
    parser.add_argument("--out-dir", type=Path, default=Path("out/noise_removal"))
    return parser.parse_args()


def describe(decomposition, label):
    signal, noise = decomposition.signal, decomposition.noise
    print(f"{label}: {len(signal)} signal dots, {len(noise)} noise dots")
    for birth, death, persistence in zip(signal.birth.tolist(), signal.death.tolist(),
                                         signal.persistence.tolist()):
        print(f"  signal (birth={birth:.4f}, death={death:.4f}, "
              f"persistence={persistence:.4f})")
    if len(noise):
        print(f"  worst noise persistence: {float(noise.persistence.max()):.3e}")


def main():
    args = parse_args()
    grid = noise_removal_grid()
    describe(decompose(compute_diagram(grid), args.phi), "before")

    config = TrainConfig(
        steps=args.steps,
        learning_rate=args.eta,
        ema_decay=0.0,          # teacher tracks the student: consistency term is inert
        phi=args.phi,
        lambda_u2=1.0,          # removal term at full weight
        ramp_k=0.0,             # no pixel-consistency ramp
        strong_noise_sigma=0.0,
        noise_mode=args.noise_mode,
        seed=0,
    )
    trace = run_simulation(likelihood_to_logits(grid), config)

    print("\nremoval-loss decay:")
    marks = sorted({1, args.steps // 8, args.steps // 4, args.steps // 2, args.steps} - {0})
    for record in trace.records:
        if record.step in marks:
            print(f"  step {record.step:4d}: rem_loss={record.rem_loss:.6e}")

    print()
    describe(decompose(compute_diagram(trace.final_student), args.phi), "after")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = args.out_dir / "trace.csv"
    write_trace_csv(trace, trace_path)
    print(f"\ntrace written to {trace_path}")


if __name__ == "__main__":
    main()
