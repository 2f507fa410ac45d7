"""The two experiment scripts run end to end as processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=120)


def test_noise_removal_keeps_three_signal_dots(tmp_path):
    run = run_script("run_noise_removal.py", "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert "after: 3 signal dots" in run.stdout
    assert (tmp_path / "out" / "trace.csv").is_file()


def test_consistency_runs_a_short_training(tmp_path):
    run = run_script("run_consistency.py", "--steps", "20", "--out-dir", str(tmp_path / "out"),
                     cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert "teacher components:        3" in run.stdout
    for name in ("trace.csv", "student.pgm", "teacher.pgm"):
        assert (tmp_path / "out" / name).is_file()
