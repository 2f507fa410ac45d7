"""The package's public namespace and what importing it costs."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import topokit
from topokit import (compute_diagram, load_diagram_csv, match_diagrams, save_diagram_csv,
                     save_grid_csv, save_mask_pgm)

SRC = Path(topokit.__file__).resolve().parent.parent


def _run_fresh(tmp_path, body: str) -> str:
    """The last stdout line of body run in a fresh interpreter that imports topokit from SRC."""
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + textwrap.dedent(body)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_all_names_resolve_once():
    assert len(set(topokit.__all__)) == len(topokit.__all__)
    for name in topokit.__all__:
        assert getattr(topokit, name) is not None


def test_pd_and_decompose_never_load_scipy(tmp_path):
    """scipy is imported only inside the functions that call it."""
    grid = tmp_path / "grid.csv"
    grid.write_text("0.42,0.46\n0.30,0.90\n")
    line = _run_fresh(tmp_path, f"""
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
    assert line == "codes [0, 0] scipy []"


def _diagram_files(tmp_path):
    rng = np.random.default_rng(15)
    paths = []
    for side in ("left", "right"):
        path = tmp_path / f"{side}.csv"
        save_diagram_csv(compute_diagram(rng.uniform(size=(7, 7))), path)
        paths.append(str(path))
    return paths


def _subcommand_argv(tmp_path, command):
    if command in ("wasserstein-2", "wasserstein-inf"):
        return ["wasserstein", *_diagram_files(tmp_path), "--p", command.split("-")[1]]
    if command == "loss":
        rng = np.random.default_rng(16)
        save_grid_csv(rng.uniform(size=(6, 6)), tmp_path / "s.csv")
        save_grid_csv(rng.uniform(size=(6, 6)), tmp_path / "t.csv")
        return ["loss", "--student", str(tmp_path / "s.csv"), "--teacher", str(tmp_path / "t.csv")]
    rng = np.random.default_rng(17)
    save_mask_pgm(rng.uniform(size=(12, 12)) < 0.45, tmp_path / "pred.pgm")
    save_mask_pgm(rng.uniform(size=(12, 12)) < 0.45, tmp_path / "gt.pgm")
    return ["metrics", "--pred", str(tmp_path / "pred.pgm"), "--gt", str(tmp_path / "gt.pgm")]


_LSAP = (("scipy.optimize", "scipy.linalg", "scipy.fft"), "scipy.optimize._lsap")
_MATCHING = (("scipy.sparse.csgraph",), "scipy.sparse.csgraph._matching")
_LABEL = (("scipy.ndimage",), "scipy.ndimage._ni_label")
KERNELS_OF = {"wasserstein-2": [_LSAP], "loss": [_LSAP], "wasserstein-inf": [],
              "metrics": [_MATCHING, _LABEL]}


@pytest.mark.parametrize("command", KERNELS_OF)
def test_matching_kernels_load_without_their_packages(tmp_path, command):
    """Each subcommand loads its scipy kernel modules, never the packages that export them."""
    kernels = KERNELS_OF[command]
    argv = _subcommand_argv(tmp_path, command)
    line = _run_fresh(tmp_path, f"""
        import json
        import topokit.cli
        code = topokit.cli.main({argv!r})
        loaded = [sorted(m for m in sys.modules if m.startswith(packages))
                  for packages, _ in {kernels!r}]
        print(json.dumps([code, loaded]))
    """)
    assert json.loads(line) == [0, [[kernel] for _, kernel in kernels]]


def test_bottleneck_loads_no_scipy(tmp_path):
    """wasserstein --p inf matches in topokit's own Hopcroft-Karp: no scipy module at all."""
    argv = _subcommand_argv(tmp_path, "wasserstein-inf")
    line = _run_fresh(tmp_path, f"""
        import json
        import topokit.cli
        code = topokit.cli.main({argv!r})
        print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy"))]))
    """)
    assert json.loads(line) == [0, []]


@pytest.mark.parametrize("command", ["wasserstein-2", "loss"])
def test_assignment_subcommands_load_no_scipy_sparse(tmp_path, command):
    """Only metrics builds sparse graphs; W_p loads no scipy.sparse module."""
    argv = _subcommand_argv(tmp_path, command)
    line = _run_fresh(tmp_path, f"""
        import json
        import topokit.cli
        code = topokit.cli.main({argv!r})
        print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy.sparse"))]))
    """)
    assert json.loads(line) == [0, []]


def test_grad_check_leaves_numpy_ma_unloaded(tmp_path):
    """np.unique imports numpy.ma on its first call; grad-check dedupes without it."""
    rng = np.random.default_rng(18)
    save_grid_csv(rng.uniform(0.1, 0.9, size=(5, 5)), tmp_path / "s.csv")
    save_grid_csv(rng.uniform(0.1, 0.9, size=(5, 5)), tmp_path / "t.csv")
    line = _run_fresh(tmp_path, """
        import json
        import topokit.cli
        code = topokit.cli.main(["grad-check", "--student", "s.csv", "--teacher", "t.csv"])
        print(json.dumps([code, "numpy.ma" in sys.modules]))
    """)
    assert json.loads(line) == [0, False]


@pytest.mark.parametrize("public_first", [False, True])
def test_kernel_functions_are_the_public_ones(tmp_path, public_first):
    public = "import scipy.optimize, scipy.sparse.csgraph, scipy.ndimage._measurements"
    line = _run_fresh(tmp_path, f"""
        {public if public_first else ""}
        from topokit.grid import _scipy_extension
        lsap = _scipy_extension("scipy.optimize", "_lsap")
        matching = _scipy_extension("scipy.sparse.csgraph", "_matching")
        label = _scipy_extension("scipy.ndimage", "_ni_label")
        {"" if public_first else public}
        csgraph = scipy.sparse.csgraph
        print(lsap.linear_sum_assignment is scipy.optimize.linear_sum_assignment,
              matching.maximum_bipartite_matching is csgraph.maximum_bipartite_matching,
              label is scipy.ndimage._measurements._ni_label)  # what ndimage.label calls
    """)
    assert line == "True True True"


def test_kernel_falls_back_to_the_public_module(tmp_path):
    """With no extension module found by file, the public import serves the same results."""
    left, right = _diagram_files(tmp_path)
    mask = np.random.default_rng(18).random((40, 50)) < 0.5
    np.save(tmp_path / "mask.npy", mask)
    line = _run_fresh(tmp_path, f"""
        import importlib.machinery
        import json
        import numpy as np
        from topokit import label_components, load_diagram_csv, match_diagrams

        find_spec = importlib.machinery.PathFinder.find_spec

        def no_extension(name, path=None, target=None):  # the import system asks by dotted name
            if name in ("_lsap", "_matching", "_ni_label"):
                return None
            return find_spec(name, path, target)
        importlib.machinery.PathFinder.find_spec = no_extension
        left, right = load_diagram_csv({left!r}), load_diagram_csv({right!r})
        results = [match_diagrams(left, right, p) for p in (2.0, float("inf"))]
        labeling = label_components(np.load("mask.npy"), 8)
        print(json.dumps([[r.pairs.tolist(), r.cost] for r in results]
                         + [[labeling.labels.tolist(), labeling.count]]
                         + [sorted(m for m in ("scipy.optimize", "scipy.sparse.csgraph",
                                               "scipy.ndimage") if m in sys.modules)]))
    """)
    left, right = load_diagram_csv(left), load_diagram_csv(right)
    expected = [[r.pairs.tolist(), r.cost] for r in (match_diagrams(left, right, p)
                                                     for p in (2.0, float("inf")))]
    labeling = topokit.label_components(mask, 8)
    expected.append([labeling.labels.tolist(), labeling.count])
    assert json.loads(line) == expected + [["scipy.ndimage", "scipy.optimize"]]
