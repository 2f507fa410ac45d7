"""The program process of the benchmark: one fresh interpreter per use.

    worker.py probe
        Import topokit as the CLI does, build both built-in scenarios, and
        print the monotonic clock: the end of set-up.
    worker.py train SCENARIO SEED SECONDS TRACE OUT.json
        Run the trainer in-process, one simulation after another, until
        SECONDS have passed (at least two simulations), and write step
        times, output digests and checks to OUT.json.
    worker.py cli OUT.json ARGV...
        Run ``topokit.cli.main(ARGV)`` with every layer traced and write the
        per-layer totals to OUT.json.

Only the standard library is imported before topokit, so set-up time is
topokit's own.
"""

import hashlib
import json
import sys
import time


def probe() -> None:
    import topokit.cli  # noqa: F401  (the import is the set-up being timed)
    from topokit.scenarios import noise_removal_grid, three_basin_teacher

    noise_removal_grid()
    three_basin_teacher()
    print(repr(time.monotonic()))


def scenario(name: str, seed: int):
    """(student logits, config, teacher logits) as the experiment scripts build them.

    three-basins mirrors scripts/run_consistency.py with the student noise
    and the strong-view noise seeded from the benchmark seed; noise-removal
    mirrors scripts/run_noise_removal.py, which has no random input.
    """
    from topokit.losses import NOISE_DIAGONAL
    from topokit.scenarios import noise_removal_grid, perturbed_student_logits, three_basin_teacher
    from topokit.trainer import TrainConfig, likelihood_to_logits

    if name == "three-basins":
        teacher = three_basin_teacher()
        config = TrainConfig(steps=1000, learning_rate=0.5, ema_decay=0.999, phi=0.7,
                             lambda_u2=0.002, ramp_k=0.1, strong_noise_sigma=0.5, seed=seed)
        return perturbed_student_logits(teacher, 0.5, seed), config, likelihood_to_logits(teacher)
    config = TrainConfig(steps=500, learning_rate=0.1, ema_decay=0.0, phi=0.7, lambda_u2=1.0,
                         ramp_k=0.0, strong_noise_sigma=0.0, noise_mode=NOISE_DIAGONAL, seed=0)
    return likelihood_to_logits(noise_removal_grid()), config, None


def check_simulation(name: str, trace) -> bool:
    """The outcome each experiment script exists to show."""
    from topokit.grid import label_components, threshold

    first, last = trace.records[0], trace.records[-1]
    if name == "three-basins":
        return last.signal_dots == 3 and \
            label_components(threshold(trace.final_student, 0.5), 4).count == 3
    return last.signal_dots == 3 and last.rem_loss < 1e-3 * first.rem_loss


def digest(trace) -> str:
    h = hashlib.sha256(trace.final_student.tobytes())
    h.update(trace.final_teacher.tobytes())
    h.update(repr(trace.records).encode())
    return h.hexdigest()


def train(name: str, seed: int, seconds: float, traced: bool, out: str) -> None:
    import dataclasses

    import topokit.trainer as trainer

    import tracing

    student, config, teacher = scenario(name, seed)
    ema_update = trainer.ema_update
    stamps = []

    def stamped_ema(*args, **kwargs):
        result = ema_update(*args, **kwargs)
        stamps.append(time.perf_counter())
        return result

    trainer.ema_update = stamped_ema
    trainer.run_simulation(student, dataclasses.replace(config, steps=50), teacher)  # warm-up

    def simulate() -> dict:
        stamps.clear()
        t0 = time.perf_counter()
        trace = trainer.run_simulation(student, config, teacher)
        wall = time.perf_counter() - t0
        edges = [t0] + stamps
        return {"wall_s": wall, "steps_ms": [(b - a) * 1e3 for a, b in zip(edges, edges[1:])],
                "digest": digest(trace), "ok": check_simulation(name, trace)}

    result = {"sims": [], "traced_sims": []}
    deadline = time.perf_counter() + seconds
    result["sims"].append(simulate())
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        while not result["traced_sims"] or time.perf_counter() < deadline:
            result["traced_sims"].append(simulate())
        result["totals"] = tracing.layer_totals(tracer.dump())
        result["paused_s"] = tracer.paused
    else:
        while len(result["sims"]) < 2 or time.perf_counter() < deadline:
            result["sims"].append(simulate())
    with open(out, "w") as fh:
        json.dump(result, fh)


def cli(out: str, argv: list) -> int:
    import tracing

    tracer = tracing.Tracer()
    tracer.begin("cli.import")
    import topokit.cli

    tracer.end()
    tracing.install(tracer)
    tracer.begin("cli.main")
    try:
        return topokit.cli.main(argv)
    finally:
        tracer.end()
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({"totals": tracing.layer_totals(tracer.dump()),
                       "paused_s": tracer.paused}, fh)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        probe()
    elif mode == "train":
        train(rest[0], int(rest[1]), float(rest[2]), rest[3] == "1", rest[4])
    elif mode == "cli":
        sys.exit(cli(rest[0], rest[1:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
