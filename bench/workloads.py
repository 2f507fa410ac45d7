"""The workloads: what each one runs, how it is timed, and how it is checked.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returns. An operation is one trainer step on the
``train-*`` workloads and one ``topokit`` invocation on the ``cli-*`` ones.
A pass is a fixed list of operations; a run repeats whole passes, so the mix
of operations is the same in every run, and a repeated pass must give
byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
WORKER = str(BENCH_DIR / "worker.py")
CLI_ENTRY = "import sys; from topokit.cli import main; sys.exit(main())"


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit, sample count)
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)  # reported, not part of the result


def latency_metrics(samples_ms: list, wall_s: float) -> dict:
    n = len(samples_ms)
    return {
        "op_ms_p50": (float(np.quantile(samples_ms, 0.5)), "ms", n),
        "op_ms_p90": (float(np.quantile(samples_ms, 0.9)), "ms", n),
        "ops_per_s": (n / wall_s, "1/s", n),
    }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(totals: dict, passes: int, wall_s: float, cli_self_s: float) -> dict:
    """Per-layer metrics, per pass, from the summed span totals of a traced run."""

    def get(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def per(x: float) -> float:
        return x / passes

    m = {}
    for fmt in ("p2", "p5", "csv"):
        name = f"grid.load.{fmt}"
        m[f"grid.load_s.{fmt}"] = (per(get(name)), "s")
        m[f"grid.load_mb_per_s.{fmt}"] = (_rate(get(name, "bytes") / 1e6, get(name)), "MB/s")
    pd = "persistence.diagram"
    dots = get(pd, "dots")
    m.update({
        "grid.label_s": (per(get("grid.label")), "s"),
        "persistence.diagram_s": (per(get(pd)), "s"),
        "persistence.us_per_px": (_rate(get(pd) * 1e6, get(pd, "px")), "us/px"),
        "persistence.calls": (per(get(pd, "calls")), "count"),
        "persistence.dots": (per(dots), "count"),
        "persistence.zero_dot_ratio": (_rate(get(pd, "zero"), dots), "ratio"),
        "persistence.save_csv_s": (per(get("persistence.save_csv")), "s"),
        "persistence.save_rows_per_s": (_rate(get("persistence.save_csv", "rows"),
                                              get("persistence.save_csv")), "1/s"),
        "persistence.load_csv_s": (per(get("persistence.load_csv")), "s"),
        "diagram.decompose_s": (per(get("diagram.decompose")), "s"),
    })
    kinds = ("matching.wasserstein", "matching.bottleneck")
    match_dots = sum(get(k, "dots") for k in kinds)
    m.update({
        "matching.wasserstein_s": (per(get(kinds[0])), "s"),
        "matching.bottleneck_s": (per(get(kinds[1])), "s"),
        "matching.calls": (per(sum(get(k, "calls") for k in kinds)), "count"),
        "matching.dense_mb": (per(sum(get(k, "dense_bytes") for k in kinds)) / 2**20, "MiB"),
        "matching.zero_dot_ratio": (_rate(sum(get(k, "zero") for k in kinds), match_dots),
                                    "ratio"),
        "losses.topo_self_s": (per(get("losses.topo")), "s"),
        "losses.pixel_s": (per(get("losses.pixel")), "s"),
        "losses.critical_px": (_rate(get("losses.topo", "critical"), get("losses.topo", "calls")),
                               "count"),
        "metrics.compute_s": (per(get("metrics.compute")), "s"),
        "metrics.components": (per(get("grid.label", "components")), "count"),
        "trainer.step_self_ms": (_rate(get("trainer.step") * 1e3, get("trainer.step", "calls")),
                                 "ms"),
        "cli.self_s": (per(cli_self_s), "s"),
    })
    # cli.self_s already holds cli.main's own time, so it is not counted twice.
    accounted = sum(entry["self_s"] for entry in totals.values()) - get("cli.main") + cli_self_s
    m["trace.residual_s"] = (per(wall_s - accounted), "s")
    return {name: (value, unit, passes) for name, (value, unit) in m.items()}


def _merge(into: dict, totals: dict) -> None:
    for name, entry in totals.items():
        slot = into.setdefault(name, {})
        for key, value in entry.items():
            slot[key] = slot.get(key, 0.0) + value


# -- train ---------------------------------------------------------------------

class TrainWorkload:
    """``run_simulation`` in-process on one built-in 32x32 scenario.

    One pass is one whole simulation of the scenario's experiment script.
    Step latency comes from one timestamp per step boundary.
    """

    scenario = ""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def _run(self, runner, seconds: float, traced: bool) -> tuple[dict, dict]:
        out = self.work / "train.json"
        run = runner.spawn([WORKER, "train", self.scenario, str(self.seed), repr(seconds),
                            str(int(traced)), str(out)], "train")
        if run["rc"] != 0:
            raise RuntimeError(run["stderr"].decode(errors="replace"))
        return run, json.loads(out.read_text())

    @staticmethod
    def _failed_steps(sims: list, stderr: bytes) -> int:
        """Steps of simulations that miss the expected outcome or differ from the first."""
        first = sims[0]["digest"]
        return sum(len(s["steps_ms"]) for s in sims
                   if stderr or not s["ok"] or s["digest"] != first)

    def measure(self, runner, seconds: float) -> Outcome:
        run, result = self._run(runner, seconds, False)
        sims = result["sims"]
        steps = [ms for s in sims for ms in s["steps_ms"]]
        wall = sum(s["wall_s"] for s in sims)
        metrics = latency_metrics(steps, wall)
        metrics["peak_rss_mb"] = (run["rss_mb"], "MiB", 1)
        failed = self._failed_steps(sims, run["stderr"])
        extra = {f"steps_per_s.{self.scenario}": (len(steps) / wall, "1/s", len(steps)),
                 "failed_ratio": (failed / len(steps), "ratio", len(steps))}
        return Outcome(metrics, len(steps), failed, extra)

    def measure_traced(self, runner, seconds: float) -> Outcome:
        run, result = self._run(runner, seconds, True)
        traced = result["traced_sims"]
        wall = sum(s["wall_s"] for s in traced)
        metrics = layer_metrics(result["totals"], len(traced), wall, 0.0)
        overhead = statistics.median(s["wall_s"] for s in traced) / result["sims"][0]["wall_s"]
        metrics["trace.overhead_ratio"] = (overhead, "ratio", len(traced))
        sims = result["sims"] + traced
        return Outcome(metrics, sum(len(s["steps_ms"]) for s in sims),
                       self._failed_steps(sims, run["stderr"]))


class TrainNoiseRemoval(TrainWorkload):
    scenario = "noise-removal"


class TrainThreeBasins(TrainWorkload):
    scenario = "three-basins"


# -- cli -----------------------------------------------------------------------

@dataclass
class Call:
    name: str
    argv: list
    outputs: list  # files the call writes
    check: Callable[[str], bool]  # given stdout, reads the outputs itself
    megapixels: float = 0.0  # grid pixels the call reads


class CliWorkload:
    """``topokit`` subcommands as subprocesses, one after another."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.calls = self.build(work, np.random.default_rng(seed))

    def build(self, work: Path, rng) -> list:
        raise NotImplementedError

    def run_pass(self, runner, traced: bool) -> list:
        runs = []
        spans = self.work / "spans.json"
        for call in self.calls:
            for path in call.outputs:
                path.unlink(missing_ok=True)
            argv = ([WORKER, "cli", str(spans)] if traced else ["-c", CLI_ENTRY]) + call.argv
            run = runner.spawn(argv, call.name)
            h = hashlib.sha256(run["stdout"])
            for path in call.outputs:
                h.update(path.read_bytes() if path.exists() else b"missing")
            run["digest"] = h.hexdigest()
            if traced and spans.exists():
                run["trace"] = json.loads(spans.read_text())
                spans.unlink()
            runs.append(run)
        return runs

    def check_pass(self, runs: list) -> list:
        """Per call: exit 0, empty stderr and right outputs."""
        oks = []
        for call, run in zip(self.calls, runs):
            try:
                ok = run["rc"] == 0 and not run["stderr"] and \
                    bool(call.check(run["stdout"].decode()))
            except Exception:  # a check that cannot even read the output fails the call
                ok = False
            oks.append(ok)
        return oks

    def _failed(self, reference: list, oks: list, runs: list) -> int:
        return sum(1 for ref, ok, run in zip(reference, oks, runs)
                   if not ok or run["rc"] != 0 or run["stderr"] or run["digest"] != ref["digest"])

    def measure(self, runner, seconds: float) -> Outcome:
        passes = [self.run_pass(runner, False)]
        oks = self.check_pass(passes[0])
        pass_walls = [sum(r["wall_s"] for r in passes[0])]
        while len(passes) < 2 or sum(pass_walls) < seconds:
            passes.append(self.run_pass(runner, False))
            pass_walls.append(sum(r["wall_s"] for r in passes[-1]))
        failed = sum(self._failed(passes[0], oks, runs) for runs in passes)
        walls = [r["wall_s"] for runs in passes for r in runs]
        wall = sum(pass_walls)
        metrics = latency_metrics([w * 1e3 for w in walls], wall)
        metrics["peak_rss_mb"] = (max(r["rss_mb"] for runs in passes for r in runs), "MiB",
                                  len(walls))
        mpix = len(passes) * sum(c.megapixels for c in self.calls)
        extra = {"call_s_p50": (metrics["op_ms_p50"][0] / 1e3, "s", len(walls)),
                 "call_s_p90": (metrics["op_ms_p90"][0] / 1e3, "s", len(walls)),
                 "calls_per_s": (metrics["ops_per_s"][0], "1/s", len(walls)),
                 "mpix_per_s": (mpix / wall, "Mpx/s", len(passes)),
                 "failed_ratio": (failed / len(walls), "ratio", len(walls))}
        return Outcome(metrics, len(walls), failed, extra)

    def measure_traced(self, runner, seconds: float) -> Outcome:
        """One untraced pass for reference, then traced passes."""
        reference = self.run_pass(runner, False)
        oks = self.check_pass(reference)
        ref_wall = sum(r["wall_s"] for r in reference)
        failed = self._failed(reference, oks, reference)
        totals, cli_self, pass_walls = {}, 0.0, []
        while not pass_walls or ref_wall + sum(pass_walls) < seconds:
            runs = self.run_pass(runner, True)
            pass_walls.append(sum(r["wall_s"] for r in runs))
            failed += self._failed(reference, oks, runs)
            for run in runs:
                trace = run.get("trace", {"totals": {}, "paused_s": 0.0})
                t = trace["totals"]
                _merge(totals, t)
                outside = sum(t.get(k, {}).get("total_s", 0.0) for k in ("cli.import", "cli.main"))
                cli_self += run["wall_s"] - trace["paused_s"] - outside + \
                    t.get("cli.main", {}).get("self_s", 0.0)
        metrics = layer_metrics(totals, len(pass_walls), sum(pass_walls), cli_self)
        metrics["trace.overhead_ratio"] = (statistics.median(pass_walls) / ref_wall, "ratio",
                                           len(pass_walls))
        return Outcome(metrics, len(self.calls) * (1 + len(pass_walls)), failed)


class CliGrids(CliWorkload):
    """pd, decompose, loss and metrics on generated 1024x1024 and 256x256 grids."""

    def build(self, w: Path, rng) -> list:
        rand1024 = inputs.write_p5(w / "rand1024.pgm",
                                   inputs.quantize(inputs.random_grid(rng, 1024), 65535), 65535)
        smooth1024 = inputs.write_p2(w / "smooth1024.pgm",
                                     inputs.quantize(inputs.smooth_grid(rng, 1024), 65535), 65535)
        quant256 = inputs.write_p5(w / "quant256.pgm",
                                   inputs.quantize(inputs.smooth_grid(rng, 256), 255), 255)
        rand256 = inputs.write_csv_grid(w / "rand256.csv", inputs.random_grid(rng, 256))
        teacher = inputs.write_p2(w / "teacher256.pgm",
                                  inputs.quantize(inputs.smooth_grid(rng, 256), 65535), 65535)
        student = inputs.write_csv_grid(
            w / "student256.csv", np.clip(teacher + rng.normal(0.0, 0.05, teacher.shape), 0, 1))
        gt_mask = inputs.smooth_grid(rng, 1024) < 0.5
        gt = inputs.write_mask(w / "gt1024.pgm", gt_mask, binary=False)
        pred = inputs.write_mask(w / "pred1024.pgm", gt_mask ^ (rng.random(gt_mask.shape) < 1e-3),
                                 binary=True)

        def pd(name, path, values, direction, conn, to_stdout=False):
            out = w / f"{name}.csv"
            argv = ["pd", str(path), "--direction", direction, "--connectivity", str(conn)]
            argv += [] if to_stdout else ["-o", str(out)]
            return Call(name, argv, [] if to_stdout else [out],
                        lambda stdout: checks.betti_matches(
                            values, checks.read_diagram(stdout if to_stdout else out.read_text()),
                            direction, conn),
                        values.size / 1e6)

        def decompose(name, path, values, direction, conn, phi, whole):
            sig, noi = w / f"{name}.signal.csv", w / f"{name}.noise.csv"
            argv = ["decompose", str(path), "--direction", direction, "--connectivity", str(conn),
                    "--phi", repr(phi), "--signal-out", str(sig), "--noise-out", str(noi)]
            return Call(name, argv, [sig, noi],
                        lambda stdout: checks.split_matches(whole(), sig.read_text(),
                                                            noi.read_text(), phi, stdout),
                        values.size / 1e6)

        grad = w / "grad256.csv"
        return [
            # 210k-row diagram, binary 16-bit read: kernel and CSV writer at full size.
            pd("pd-random1024-p5", w / "rand1024.pgm", rand1024, "sublevel", 4),
            # ASCII read of 1M samples, a diagram of a few dots, superlevel, 8-neighbours.
            pd("pd-smooth1024-p2", w / "smooth1024.pgm", smooth1024, "superlevel", 8),
            # 8-bit plateaus of a smooth grid: almost every dot has zero persistence.
            pd("pd-quant256-p5", w / "quant256.pgm", quant256, "sublevel", 8),
            decompose("decompose-quant256-p5", w / "quant256.pgm", quant256, "sublevel", 8, 0.7,
                      lambda: (w / "pd-quant256-p5.csv").read_text()),
            # CSV read and the inline diagram writer to stdout.
            pd("pd-random256-csv", w / "rand256.csv", rand256, "superlevel", 4, to_stdout=True),
            decompose("decompose-random256-csv", w / "rand256.csv", rand256, "superlevel", 4, 0.3,
                      lambda: (w / "pd-random256-csv.out").read_text()),
            Call("loss-256", ["loss", "--student", str(w / "student256.csv"),
                              "--teacher", str(w / "teacher256.pgm"), "--grad-out", str(grad)],
                 [grad],
                 lambda stdout: checks.loss_matches(stdout, grad.read_text(), student, teacher),
                 2 * student.size / 1e6),
            Call("metrics-1024", ["metrics", "--pred", str(w / "pred1024.pgm"),
                                  "--gt", str(w / "gt1024.pgm")],
                 [], lambda stdout: checks.metrics_match(stdout, pred, gt), 2 * pred.size / 1e6),
        ]


class CliMatch(CliWorkload):
    """wasserstein --p 2 and --p inf on diagram pairs of 50 to 800 dots.

    Bottleneck pairs stop at 400 dots: at 800 its run time swings from 0.7 s
    to 9 s with the seed, which no run-to-run bound could absorb.
    """

    SIZES = {"2": (50, 200, 800), "inf": (50, 200, 400)}

    def build(self, w: Path, rng) -> list:
        calls = []
        for p, sizes in self.SIZES.items():
            for k in sizes:
                for kind in ("random", "quant"):
                    sides = []
                    for side in ("left", "right"):
                        path = w / f"{kind}{k}-p{p}-{side}.csv"
                        dots = inputs.diagram_dots(rng, k, quantized=kind == "quant")
                        sides.append((path, inputs.write_diagram_csv(path, dots, rng)))
                    (lpath, left), (rpath, right) = sides
                    name = f"wasserstein-{kind}{k}-p{p}"
                    pairs = w / f"{name}.pairs.csv"
                    calls.append(Call(
                        name, ["wasserstein", str(lpath), str(rpath), "--p", p,
                               "--pairs-out", str(pairs)], [pairs],
                        lambda stdout, pairs=pairs, left=left, right=right, p=float(p):
                            checks.matching_matches(stdout, pairs.read_text(), left, right, p)))
        return calls


WORKLOADS = {
    "train-noise-removal": TrainNoiseRemoval,
    "train-three-basins": TrainThreeBasins,
    "cli-grids": CliGrids,
    "cli-match": CliMatch,
}
