"""The package's public namespace and what importing it costs."""

import subprocess
import sys
import textwrap
from pathlib import Path

import topokit


def test_all_names_resolve_once():
    assert len(set(topokit.__all__)) == len(topokit.__all__)
    for name in topokit.__all__:
        assert getattr(topokit, name) is not None


def test_pd_and_decompose_never_load_scipy(tmp_path):
    """scipy is imported only inside the functions that call it."""
    grid = tmp_path / "grid.csv"
    grid.write_text("0.42,0.46\n0.30,0.90\n")
    src = Path(topokit.__file__).resolve().parent.parent
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        import topokit
        import topokit.cli
        codes = [
            topokit.cli.main(["pd", {str(grid)!r}]),
            topokit.cli.main(["decompose", {str(grid)!r}, "--phi", "0.1",
                              "--signal-out", {str(tmp_path / "s.csv")!r},
                              "--noise-out", {str(tmp_path / "n.csv")!r}]),
        ]
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print("codes", codes, "scipy", loaded)
    """)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "codes [0, 0] scipy []"
