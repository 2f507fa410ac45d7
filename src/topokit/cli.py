"""Command-line interface.

Subcommands: pd, decompose, wasserstein, loss, grad-check, metrics, demo.
Exit status is 0 on success, 1 on usage errors (and a failed grad-check),
2 on data errors (unreadable or malformed inputs, invalid values). Every
subcommand is a pure pipeline: identical inputs and flags produce byte
identical outputs. JSON keys are emitted in a fixed order and reals are
printed with 9 significant digits. No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields

from .diagram import DEFAULT_PHI, decompose
from .grid import (
    DIRECTIONS,
    SUBLEVEL,
    GridFormatError,
    format_real,
    load_grid,
    load_mask_pgm,
    save_csv_table,
    save_grid_pgm,
    strict_float,
    strict_int,
)
from .losses import (
    NOISE_MODES,
    NOISE_SQUARED,
    cross_entropy_loss_and_gradient,
    finite_difference_check,
    topo_loss_and_gradient,
)
from .matching import match_diagrams
from .metrics import DEFAULT_WINDOW, compute_metrics
from .persistence import compute_diagram, format_diagram_csv, load_diagram_csv, save_diagram_csv
from .scenarios import noise_removal_grid, perturbed_student_logits, three_basin_teacher
from .trainer import (
    LabeledSupervision,
    TrainConfig,
    likelihood_to_logits,
    run_simulation,
    write_trace_csv,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise _UsageError(f"{self.prog}: {message}")


def _emit_json(items: list[tuple[str, object]]) -> None:
    obj = {}
    for key, value in items:
        if isinstance(value, float):
            value = float(format_real(value))
        obj[key] = value
    print(json.dumps(obj))


def _parse_order(text: str) -> float:
    try:
        p = strict_float(text)  # "inf" and "infinity", in any case, read as math.inf
    except ValueError:
        raise _UsageError(f"invalid order p: {text!r}") from None
    if math.isnan(p) or p < 1.0:
        raise _UsageError(f"order p must be >= 1 or 'inf', got {text!r}")
    return p


def _cmd_pd(args) -> int:
    grid = load_grid(args.grid)
    diagram = compute_diagram(grid, args.direction, args.connectivity)
    if args.output is None:
        sys.stdout.write(format_diagram_csv(diagram))
    else:
        save_diagram_csv(diagram, args.output)
    return 0


def _cmd_decompose(args) -> int:
    grid = load_grid(args.grid)
    diagram = compute_diagram(grid, args.direction, args.connectivity)
    dec = decompose(diagram, args.phi)
    save_diagram_csv(dec.signal, args.signal_out)
    save_diagram_csv(dec.noise, args.noise_out)
    _emit_json([
        ("signal_dots", len(dec.signal)),
        ("noise_dots", len(dec.noise)),
        ("phi", float(dec.phi)),
    ])
    return 0


def _cmd_wasserstein(args) -> int:
    left = load_diagram_csv(args.left)
    right = load_diagram_csv(args.right)
    result = match_diagrams(left, right, _parse_order(args.p))
    if args.pairs_out:
        save_csv_table(result.pairs, args.pairs_out, "%d", "left_idx,right_idx")
    _emit_json([("distance", float(result.cost))])
    return 0


def _cmd_loss(args) -> int:
    student = load_grid(args.student)
    teacher = load_grid(args.teacher)
    report, grad = topo_loss_and_gradient(
        student, teacher, args.phi, args.direction, args.connectivity, args.noise_mode
    )
    if args.grad_out:
        save_csv_table(grad, args.grad_out)  # not a likelihood grid: no save_grid_csv
    _emit_json([
        ("cons", float(report.cons_loss)),
        ("rem", float(report.rem_loss)),
        ("topo", float(report.topo_loss)),
        ("pixel_ce", cross_entropy_loss_and_gradient(student, teacher)[0]),
    ])
    return 0


def _cmd_grad_check(args) -> int:
    if not math.isfinite(args.tolerance):
        raise ValueError(f"tolerance must be finite, got {args.tolerance}")
    student = load_grid(args.student)
    teacher = load_grid(args.teacher)
    err = finite_difference_check(
        student, teacher, args.phi, args.h, args.direction,
        args.connectivity, args.noise_mode,
    )
    ok = err < args.tolerance
    _emit_json([
        ("max_relative_error", float(err)),
        ("tolerance", float(args.tolerance)),
        ("pass", bool(ok)),
    ])
    return 0 if ok else 1


def _cmd_metrics(args) -> int:
    pred = load_mask_pgm(args.pred)
    gt = load_mask_pgm(args.gt)
    report = compute_metrics(pred, gt, args.window)
    _emit_json([
        ("betti_error", float(report.betti_error)),
        ("betti_matching_error", int(report.betti_matching_error)),
        ("voi", float(report.voi)),
        ("window_size", report.window_size),
        ("window_count", report.window_count),
    ])
    return 0


def _cmd_demo(args) -> int:
    if args.labeled_mask:
        args.labeled = LabeledSupervision(load_mask_pgm(args.labeled_mask), args.w1, args.w2)
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    config.validate()  # before the seed reaches a scenario
    if args.init:
        student_logits = likelihood_to_logits(load_grid(args.init))
    elif args.scenario == "three-basins":
        teacher = three_basin_teacher()
        student_logits = perturbed_student_logits(teacher, sigma=0.5, seed=args.seed)
    else:
        student_logits = likelihood_to_logits(noise_removal_grid())
    teacher_logits = None
    if args.teacher_init:
        teacher_logits = likelihood_to_logits(load_grid(args.teacher_init))
    elif args.scenario == "three-basins" and not args.init:
        teacher_logits = likelihood_to_logits(three_basin_teacher())
    trace = run_simulation(student_logits, config, teacher_logits)
    write_trace_csv(trace, args.trace_out)
    save_grid_pgm(trace.final_student, args.student_out)
    save_grid_pgm(trace.final_teacher, args.teacher_out)
    last = trace.records[-1]
    _emit_json([
        ("steps", config.steps),
        ("final_pixel_loss", float(last.pixel_loss)),
        ("final_cons_loss", float(last.cons_loss)),
        ("final_rem_loss", float(last.rem_loss)),
        ("signal_dots", last.signal_dots),
        ("noise_dots", last.noise_dots),
        ("trace", str(args.trace_out)),
    ])
    return 0


def _add_grid_io_flags(sub: argparse.ArgumentParser, pair: bool = False) -> None:
    if pair:  # loss and grad-check
        sub.add_argument("--student", required=True)
        sub.add_argument("--teacher", required=True)
    sub.add_argument("--direction", choices=DIRECTIONS, default=SUBLEVEL,
                     help="filtration direction (default: %(default)s)")
    sub.add_argument("--connectivity", type=strict_int, choices=(4, 8), default=4,
                     help="foreground connectivity (default: %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="topokit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    phi_flag = {"type": strict_float, "default": DEFAULT_PHI,
                "help": "persistence threshold (default: %(default)s)"}
    noise_mode_flag = {"choices": NOISE_MODES, "default": NOISE_SQUARED,
                       "help": "noise-removal variant (default: %(default)s)"}

    pd = subs.add_parser("pd", help="persistence diagram of a grid")
    pd.add_argument("grid", help="likelihood grid (PGM or CSV)")
    _add_grid_io_flags(pd)
    pd.add_argument("-o", "--output", default=None,
                    help="diagram CSV path (default: print to stdout)")
    pd.set_defaults(func=_cmd_pd)

    dec = subs.add_parser("decompose", help="split a diagram into signal and noise")
    dec.add_argument("grid")
    _add_grid_io_flags(dec)
    dec.add_argument("--phi", **phi_flag)
    dec.add_argument("--signal-out", required=True, help="signal diagram CSV path")
    dec.add_argument("--noise-out", required=True, help="noise diagram CSV path")
    dec.set_defaults(func=_cmd_decompose)

    was = subs.add_parser("wasserstein", help="matched distance between two diagram CSVs")
    was.add_argument("left")
    was.add_argument("right")
    was.add_argument("--p", default="2", help="order p >= 1, or 'inf' (default: %(default)s)")
    was.add_argument("--pairs-out", default=None,
                     help="write matched index pairs CSV (-1 marks the diagonal)")
    was.set_defaults(func=_cmd_wasserstein)

    loss = subs.add_parser("loss", help="topological losses between student and teacher grids")
    _add_grid_io_flags(loss, pair=True)
    loss.add_argument("--phi", **phi_flag)
    loss.add_argument("--noise-mode", **noise_mode_flag)
    loss.add_argument("--grad-out", default=None, help="write the gradient grid as CSV")
    loss.set_defaults(func=_cmd_loss)

    gc = subs.add_parser("grad-check", help="finite-difference check of the topological gradient")
    _add_grid_io_flags(gc, pair=True)
    gc.add_argument("--phi", **phi_flag)
    gc.add_argument("--noise-mode", **noise_mode_flag)
    gc.add_argument("--h", type=strict_float, default=1e-5,
                    help="central-difference step (default: %(default)s)")
    gc.add_argument("--tolerance", type=strict_float, default=1e-3,
                    help="max relative error allowed (default: %(default)s)")
    gc.set_defaults(func=_cmd_grad_check)

    met = subs.add_parser("metrics", help="topology metrics between two PGM masks")
    met.add_argument("--pred", required=True)
    met.add_argument("--gt", required=True)
    met.add_argument("--window", type=strict_int, default=DEFAULT_WINDOW,
                     help="window size for the windowed component-count error "
                          "(default: %(default)s)")
    met.set_defaults(func=_cmd_metrics)

    demo = subs.add_parser("demo", help="run the teacher-student simulator")
    demo.add_argument("--scenario", choices=("noise-removal", "three-basins"),
                      default="noise-removal",
                      help="built-in synthetic scenario (default: %(default)s)")
    demo.add_argument("--init", default=None, help="student init likelihood grid (PGM/CSV)")
    demo.add_argument("--teacher-init", default=None,
                      help="teacher init likelihood grid (default: copy of the student)")
    demo.add_argument("--steps", type=strict_int, help="default: %(default)s")
    demo.add_argument("--eta", type=strict_float, dest="learning_rate", metavar="ETA",
                      help="learning rate (default: %(default)s)")
    demo.add_argument("--alpha", type=strict_float, dest="ema_decay", metavar="ALPHA",
                      help="teacher EMA decay (default: %(default)s)")
    demo.add_argument("--phi", **phi_flag)
    demo.add_argument("--lambda-u2", type=strict_float,
                      help="topological loss weight (default: %(default)s)")
    demo.add_argument("--ramp-k", type=strict_float,
                      help="pixel consistency ramp-up ceiling (default: %(default)s)")
    demo.add_argument("--sigma", type=strict_float, dest="strong_noise_sigma", metavar="SIGMA",
                      help="strong-view logit noise std (default: %(default)s)")
    demo.add_argument("--noise-mode", **noise_mode_flag)
    demo.add_argument("--seed", type=strict_int, help="default: %(default)s")
    demo.add_argument("--topo-on-perturbed", action="store_true",
                      help="feed the strong view (not the clean one) to the topological loss")
    demo.add_argument("--labeled-mask", default=None, help="optional supervision mask (PGM)")
    demo.add_argument("--w1", type=strict_float,
                      help="supervised cross-entropy weight (default: %(default)s)")
    demo.add_argument("--w2", type=strict_float,
                      help="supervised Dice weight (default: %(default)s)")
    demo.add_argument("--trace-out", default="demo_trace.csv", help="default: %(default)s")
    demo.add_argument("--student-out", default="demo_student.pgm", help="default: %(default)s")
    demo.add_argument("--teacher-out", default="demo_teacher.pgm", help="default: %(default)s")
    trainer = fields(TrainConfig) + fields(LabeledSupervision)  # --steps has a default of its own
    demo.set_defaults(func=_cmd_demo, steps=100,
                      **{f.name: f.default for f in trainer if f.default is not MISSING})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        return int(args.func(args))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (GridFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
