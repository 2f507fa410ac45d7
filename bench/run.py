#!/usr/bin/env python3
"""topokit's benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; topokit is imported from ``src/``.
Every workload is listed in BENCHMARK.json with the reason it exists. To
run them all:

    for w in train-noise-removal train-three-basins cli-grids cli-match; do
        python3 bench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose spans the benchmark installs on topokit's public layer
functions from its own files. The lines before it name every metric with
its unit and sample count, and record the versions, ``nproc`` and load.

The program runs one process at a time, with BLAS and OpenMP pinned to one
thread. Inputs are generated from the seed into a temporary directory under
``.bench_work/``, which is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)
import scipy  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
IMPORT_PROBES = 3


class Runner:
    """Starts program processes in the checkout and reaps them with wait4."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})

    def spawn(self, argv: list, tag: str) -> dict:
        """Run argv to completion; stdout and stderr go to files, not pipes."""
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable] + argv, stdout=fo, stderr=fe, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        return {"t0": t0, "wall_s": t1 - t0, "rc": proc.returncode,
                "rss_mb": usage.ru_maxrss / 1024, "stdout": out.read_bytes(),
                "stderr": err.read_bytes()}

    def setup_s(self) -> float:
        """Median time from a fresh interpreter to topokit ready (scenarios built)."""
        worker = [str(BENCH_DIR / "worker.py"), "probe"]
        self.spawn(worker, "probe")  # compiles the bytecode cache once
        times = []
        for _ in range(SETUP_PROBES):
            run = self.spawn(worker, "probe")
            if run["rc"] != 0:
                raise RuntimeError(run["stderr"].decode(errors="replace"))
            times.append(float(run["stdout"]) - run["t0"])
        return statistics.median(times)

    def import_times(self) -> tuple[float, float]:
        """Median (import topokit.cli, scipy within it) from ``-X importtime``."""
        runs = [parse_importtime(self.spawn(["-X", "importtime", "-c", "import topokit.cli"],
                                            "importtime")["stderr"].decode())
                for _ in range(IMPORT_PROBES)]
        return tuple(statistics.median(r[i] for r in runs) for i in range(2))


def parse_importtime(text: str) -> tuple[float, float]:
    """Seconds for ``import topokit.cli``, and for the outermost scipy imports in it."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2  # one space, then two per level
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    topokit = sum(c for d, n, c in entries if d == 0 and n == "topokit.cli")
    scipy_s, stack = 0.0, []
    for depth, name, cumulative in reversed(entries):  # parents come before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_s += cumulative
        stack.append((depth, inside or is_scipy))
    return topokit, scipy_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = args.seed % 2**32  # numpy seeds must be nonnegative

    root = Path.cwd()
    if not (root / "src" / "topokit" / "cli.py").is_file():
        print(f"error: no topokit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{seed}-", dir=root / ".bench_work"))
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "loadavg_before": os.getloadavg()}
    try:
        runner = Runner(root, work)
        workload = workloads.WORKLOADS[args.workload](work, seed)
        if args.trace:
            outcome = workload.measure_traced(runner, args.seconds)
            import_s, scipy_s = runner.import_times()
            outcome.metrics["cli.import_s"] = (import_s, "s", IMPORT_PROBES)
            outcome.metrics["cli.import_scipy_s"] = (scipy_s, "s", IMPORT_PROBES)
        else:
            setup_s = runner.setup_s()
            outcome = workload.measure(runner, args.seconds)
            outcome.metrics["setup_s"] = (setup_s, "s", SETUP_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    print("env " + json.dumps(env))
    for name, (value, unit, samples) in sorted(outcome.metrics.items()):
        print(f"{name:32s} {value:14.6f} {unit:8s} n={samples}")
    for name, (value, unit, samples) in sorted(outcome.extra.items()):
        print(f"{name:32s} {value:14.6f} {unit:8s} n={samples}  (report only)")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
