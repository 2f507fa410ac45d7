"""End-to-end CLI behavior: exit codes, JSON shapes, byte-stable outputs."""

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topokit import cli
from topokit.cli import main
from topokit.grid import load_mask_pgm, save_grid_csv, save_mask_pgm, strict_float, strict_int
from topokit.persistence import load_diagram_csv, save_diagram_csv

from _support import diagram_from_pairs, random_distinct_grid

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError

SRC = Path(cli.__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NON_FINITE = ["nan", "inf", "-inf"]


def assert_data_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.fixture
def quad_grid(tmp_path):
    path = tmp_path / "quad.csv"
    save_grid_csv(np.array([[0.42, 0.46, 0.30, 0.90]]), path)
    return str(path)


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("pd", "decompose", "wasserstein", "loss", "grad-check",
                     "metrics", "demo"):
            assert name in out

    def test_demo_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for default in ("0.7", "0.002", "0.999", "0.1"):
            assert f"default: {default}" in out

    def test_metrics_help_shows_window_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["metrics", "--help"])
        assert "default: 256" in capsys.readouterr().out

    def test_no_command_returns_one(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 1
        assert "COMMAND" in out

    def test_unknown_subcommand_returns_one(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert err

    def test_unknown_flag_returns_one(self, capsys, quad_grid):
        code, _, err = run_cli(capsys, "pd", quad_grid, "--sideways")
        assert code == 1
        assert err

    def test_bad_choice_returns_one(self, capsys, quad_grid):
        code, _, _ = run_cli(capsys, "pd", quad_grid, "--connectivity", "5")
        assert code == 1

    def test_format_flag_is_unrecognized(self, capsys, quad_grid):
        # The reader is chosen by the file's first token; there is no flag to override it.
        code, out, err = run_cli(capsys, "pd", quad_grid, "--format", "csv")
        assert code == 1
        assert out == "" and "--format" in err

    @pytest.mark.parametrize("name", ["grid.txt", "grid"])
    def test_grid_under_any_name_loads(self, capsys, tmp_path, quad_grid, name):
        path = tmp_path / name
        path.write_bytes(Path(quad_grid).read_bytes())
        assert run_cli(capsys, "pd", str(path)) == run_cli(capsys, "pd", quad_grid)

    @pytest.mark.parametrize("command", ["pd", "wasserstein"])
    def test_non_utf8_file_named_in_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe0.5,0.1\n")
        argv = [str(bad)] if command == "pd" else [str(bad), str(bad)]
        code, out, err = run_cli(capsys, command, *argv)
        assert_data_error(code, out, err)
        assert err == f"error: {bad}: not UTF-8 text\n"

    def test_non_utf8_byte_a_mebibyte_past_an_over_limit_field(self, capsys, tmp_path):
        # csv.reader stops at the quoted field over its size limit, and the rest of the file
        # is read on in 1 MiB pieces: the bad byte, in the second piece, is what is named.
        field = '"0.' + "0" * csv.field_size_limit() + '9"'
        rows = "".join(f"0.1,0.9,{i},{i + 1},0\n" for i in range(60_000))
        assert len(rows) > 1 << 20
        bad = tmp_path / "bad.csv"
        bad.write_bytes(f"birth,death,birth_px,death_px,essential\n{field},0.9,3,4,0\n{rows}"
                        .encode() + b"\xff\n")
        code, out, err = run_cli(capsys, "wasserstein", str(bad), str(bad))
        assert_data_error(code, out, err)
        assert err == f"error: {bad}: not UTF-8 text\n"

    # float() and int() read digit separators and non-ASCII digits; the loaders do not.
    @pytest.mark.parametrize("argv", [
        ["decompose", "GRID", "--phi", "0_5", "--signal-out", "OUT", "--noise-out", "OUT"],
        ["decompose", "GRID", "--phi", "\u0660.\u0665", "--signal-out", "OUT", "--noise-out", "OUT"],
        ["pd", "GRID", "--connectivity", "\u0664"],
        ["wasserstein", "DIAGRAM", "DIAGRAM", "--p", "1_0"],
        ["wasserstein", "DIAGRAM", "DIAGRAM", "--p", "\u0662"],
        ["loss", "--student", "GRID", "--teacher", "GRID", "--phi", "0_1"],
        ["grad-check", "--student", "GRID", "--teacher", "GRID", "--tolerance", "1_0"],
        ["metrics", "--pred", "MASK", "--gt", "MASK", "--window", "1_6"],
        ["demo", "--steps", "1_0", "--trace-out", "OUT", "--student-out", "OUT", "--teacher-out", "OUT"],
        ["demo", "--steps", "1", "--seed", "\u0663", "--trace-out", "OUT", "--student-out", "OUT",
         "--teacher-out", "OUT"],
        ["demo", "--steps", "1", "--eta", "0.0_1", "--trace-out", "OUT", "--student-out", "OUT",
         "--teacher-out", "OUT"],
    ])
    def test_numeric_flags_use_the_loaders_grammar(self, capsys, tmp_path, quad_grid, argv):
        diagram, mask = tmp_path / "d.csv", tmp_path / "m.pgm"
        run_cli(capsys, "pd", quad_grid, "-o", str(diagram))
        save_mask_pgm(np.ones((4, 4), dtype=bool), mask)
        paths = {"GRID": quad_grid, "DIAGRAM": str(diagram), "MASK": str(mask), "OUT": str(tmp_path / "o")}
        code, out, err = run_cli(capsys, *(paths.get(arg, arg) for arg in argv))
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_every_numeric_flag_is_read_by_the_grid_grammar(self):
        subs = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        numeric = []
        for command, sub in subs.choices.items():
            for action in sub._actions:
                if action.type is not None or type(action.default) in (int, float):
                    numeric.append((command, action.dest, action.type))
        assert numeric and all(parse in (strict_float, strict_int) for *_, parse in numeric), numeric


class TestOutOfMemory:
    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "error: out of memory\n"),
        (_ArrayMemoryError((1 << 28,), np.dtype(np.int64)),
         "error: Unable to allocate 2.00 GiB for an array with shape (268435456,) "
         "and data type int64\n"),
    ])
    def test_memory_error_returns_two(self, capsys, monkeypatch, quad_grid, exc, message):
        def compute_diagram(*args):
            raise exc
        monkeypatch.setattr(cli, "compute_diagram", compute_diagram)
        code, out, err = run_cli(capsys, "pd", quad_grid)
        assert_data_error(code, out, err)
        assert err == message


@pytest.fixture(scope="module")
def random_p5_4096(tmp_path_factory):
    """Two random 4096 x 4096 P5 grids: one kernel call on either needs GiBs."""
    rng = np.random.default_rng(0)
    paths = []
    for name in ("a.pgm", "b.pgm"):
        path = tmp_path_factory.mktemp("p5") / name
        path.write_bytes(b"P5\n4096 4096\n255\n" + rng.bytes(4096 * 4096))
        paths.append(str(path))
    return paths


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmSize from /proc")
class TestAddressSpaceLimit:
    """Each grid subcommand in a child process whose address space is capped with RLIMIT_AS."""

    @staticmethod
    def child(body: str, **kwargs) -> subprocess.CompletedProcess:
        script = f"import resource, sys\nsys.path.insert(0, {str(SRC)!r})\n{body}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # no per-thread buffers to map
        return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, **kwargs)

    @pytest.fixture(scope="class")
    def limit(self):
        # The address space of a child that has imported all that a subcommand imports, plus
        # 256 MiB: below what one 4096^2 grid needs (a float64 copy alone is 128 MiB, the
        # kernel several more), above what the imports and a 16 MiB input file need.
        probe = "import topokit.cli, scipy.ndimage, scipy.sparse, scipy.special\n" \
                "print(open('/proc/self/status').read())"
        status = self.child(probe, check=True).stdout
        return int(re.search(r"VmSize:\s+(\d+) kB", status)[1]) * 1024 + (256 << 20)

    @pytest.mark.parametrize("argv", [
        ["pd", "A"],
        ["decompose", "A", "--signal-out", "s.csv", "--noise-out", "n.csv"],
        ["loss", "--student", "A", "--teacher", "B", "--grad-out", "g.csv"],
        ["metrics", "--pred", "A", "--gt", "B"],
    ], ids=lambda argv: argv[0])
    def test_exits_two_with_one_error_line(self, tmp_path, random_p5_4096, limit, argv):
        paths = dict(zip("AB", random_p5_4096))
        argv = [paths.get(arg, arg) for arg in argv]
        run = self.child(f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                         f"from topokit.cli import main\nsys.exit(main({argv!r}))\n", cwd=tmp_path)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
        assert "Traceback" not in run.stderr
        assert list(tmp_path.iterdir()) == []


class TestPd:
    def test_stdout_diagram(self, capsys, quad_grid):
        code, out, _ = run_cli(capsys, "pd", quad_grid)
        assert code == 0
        assert out.splitlines() == [
            "birth,death,birth_px,death_px,essential",
            "0.42,0.46,0,1,0",
            "0.3,1,2,,1",
        ]

    def test_output_file_round_trips(self, capsys, tmp_path, quad_grid):
        out_path = tmp_path / "diagram.csv"
        code, out, _ = run_cli(capsys, "pd", quad_grid, "-o", str(out_path))
        assert code == 0
        assert out == ""
        diagram = load_diagram_csv(out_path)
        assert len(diagram.dots) == 2
        assert diagram.birth[diagram.essential].tolist() == [pytest.approx(0.3)]

    @pytest.mark.parametrize("direction,connectivity", [("sublevel", "4"), ("superlevel", "8")])
    def test_stdout_and_file_bytes_identical(self, capsys, tmp_path, direction, connectivity):
        grid = tmp_path / "grid.csv"
        save_grid_csv(random_distinct_grid(np.random.default_rng(5), 7, 9), grid)
        flags = ["--direction", direction, "--connectivity", connectivity]
        code, out, _ = run_cli(capsys, "pd", str(grid), *flags)
        assert code == 0
        out_path = tmp_path / "diagram.csv"
        run_cli(capsys, "pd", str(grid), *flags, "-o", str(out_path))
        assert out_path.read_bytes() == out.encode()

    def test_missing_file_returns_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "pd", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "nope.csv" in err

    @pytest.mark.parametrize("command", ["pd", "decompose", "loss", "metrics"])
    def test_p2_sample_past_int64_returns_two(self, capsys, tmp_path, command):
        path = tmp_path / "big.pgm"
        path.write_text("P2\n2 1\n255\n99999999999999999999 3\n")
        argv = {"pd": [str(path)],
                "decompose": [str(path), "--signal-out", str(tmp_path / "s"),
                              "--noise-out", str(tmp_path / "n")],
                "loss": ["--student", str(path), "--teacher", str(path)],
                "metrics": ["--pred", str(path), "--gt", str(path)]}[command]
        code, out, err = run_cli(capsys, command, *argv)
        assert_data_error(code, out, err)
        assert err.endswith("sample 99999999999999999999 at pixel 0 exceeds maxval 255\n")

    def test_p2_sample_past_the_int_digit_limit_returns_two(self, capsys, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_text(f"P2\n2 1\n255\n{'9' * 5000} 3\n")
        code, out, err = run_cli(capsys, "pd", str(path))
        assert_data_error(code, out, err)
        assert err == f"error: {path}: sample of over 4300 digits at pixel 0 exceeds maxval 255\n"

    def test_csv_value_outside_range_prints_a_plain_float(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.5,nan\n")
        code, out, err = run_cli(capsys, "pd", str(path))
        assert_data_error(code, out, err)
        assert err == "error: value nan at pixel 1 is outside [0, 1]\n"

    def test_malformed_grid_returns_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2\n0.3\n")
        code, _, err = run_cli(capsys, "pd", str(bad))
        assert code == 2
        assert err.startswith("error:")


    @pytest.mark.parametrize("name, text", [
        ("g.csv", "0.1,0.2_5\n0.3,0.4\n"),
        ("g.pgm", "P2\n2 2\n255\n1_0 20 30 40\n"),
        ("h.pgm", "P2\n2 2\n25_5\n10 20 30 40\n"),
    ])
    def test_digit_separators_return_two(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert_data_error(*run_cli(capsys, "pd", str(path)))

    @pytest.mark.parametrize("name, text", [
        ("g.csv", "0.1,\u0660.\u0665\n0.3,0.4\n"),
        ("g.pgm", "P2\n2 2\n255\n+5 20 30 40\n"),
        ("h.pgm", "P2\n+2 2\n255\n10 20 30 40\n"),
    ])
    def test_non_ascii_digits_and_signs_return_two(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert_data_error(*run_cli(capsys, "pd", str(path)))


class TestDecompose:
    def test_split_and_json(self, capsys, tmp_path, quad_grid):
        signal = tmp_path / "signal.csv"
        noise = tmp_path / "noise.csv"
        code, out, _ = run_cli(
            capsys, "decompose", quad_grid, "--phi", "0.2",
            "--signal-out", str(signal), "--noise-out", str(noise),
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["signal_dots", "noise_dots", "phi"]
        assert payload == {"signal_dots": 1, "noise_dots": 1, "phi": 0.2}
        assert len(load_diagram_csv(signal).dots) == 1
        assert len(load_diagram_csv(noise).dots) == 1

    @pytest.mark.parametrize("phi", NON_FINITE)
    def test_non_finite_phi_returns_two(self, capsys, tmp_path, quad_grid, phi):
        signal = tmp_path / "signal.csv"
        noise = tmp_path / "noise.csv"
        code, out, err = run_cli(
            capsys, "decompose", quad_grid, f"--phi={phi}",
            "--signal-out", str(signal), "--noise-out", str(noise),
        )
        assert_data_error(code, out, err)
        assert "threshold" in err
        assert not signal.exists() and not noise.exists()


class TestWasserstein:
    def test_identity_distance_zero(self, capsys, tmp_path, quad_grid):
        diagram = tmp_path / "d.csv"
        run_cli(capsys, "pd", quad_grid, "-o", str(diagram))
        code, out, _ = run_cli(capsys, "wasserstein", str(diagram), str(diagram))
        assert code == 0
        assert json.loads(out) == {"distance": 0.0}

    def test_pairs_out(self, capsys, tmp_path, quad_grid):
        diagram = tmp_path / "d.csv"
        run_cli(capsys, "pd", quad_grid, "-o", str(diagram))
        pairs = tmp_path / "pairs.csv"
        code, _, _ = run_cli(
            capsys, "wasserstein", str(diagram), str(diagram),
            "--p", "inf", "--pairs-out", str(pairs),
        )
        assert code == 0
        lines = pairs.read_text().splitlines()
        assert lines[0] == "left_idx,right_idx"
        assert sorted(lines[1:]) == ["0,0", "1,1"]

    @pytest.mark.parametrize("p", ["0.5", "0", "-1", "nan", "garbage"])
    def test_invalid_order_returns_one(self, capsys, tmp_path, quad_grid, p):
        diagram = tmp_path / "d.csv"
        run_cli(capsys, "pd", quad_grid, "-o", str(diagram))
        code, _, err = run_cli(capsys, "wasserstein", str(diagram), str(diagram), "--p", p)
        assert code == 1
        assert "p" in err

    @pytest.mark.parametrize("bad_row", ["nan,0.9,0,1,0", "0.1,inf,0,1,0"])
    def test_non_finite_diagram_returns_two(self, capsys, tmp_path, quad_grid, bad_row):
        good = tmp_path / "d.csv"
        run_cli(capsys, "pd", quad_grid, "-o", str(good))
        bad = tmp_path / "bad.csv"
        bad.write_text(f"birth,death,birth_px,death_px,essential\n{bad_row}\n")
        code, out, err = run_cli(capsys, "wasserstein", str(bad), str(good), "--p", "inf")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_oversized_pair_returns_two(self, capsys, tmp_path, p):
        rows = "".join(f"0.25,0.75,{i},{i + 1},0\n" for i in range(6000))
        diagram = tmp_path / "big.csv"
        diagram.write_text("birth,death,birth_px,death_px,essential\n" + rows)
        code, out, err = run_cli(capsys, "wasserstein", str(diagram), str(diagram), "--p", p)
        assert_data_error(code, out, err)
        assert err == ("error: matching 6000 against 6000 dots needs a 1152000000-byte distance "
                       "matrix, over the 1073741824-byte limit\n")

    def test_oversized_field_returns_two(self, capsys, tmp_path):
        diagram = tmp_path / "d.csv"
        diagram.write_text("birth,death,birth_px,death_px,essential\n" + "1" * 200_000 + ",0.5,0,1,0\n")
        code, out, err = run_cli(capsys, "wasserstein", str(diagram), str(diagram))
        assert_data_error(code, out, err)
        assert "d.csv" in err

    def test_large_order_does_not_underflow(self, capsys, tmp_path):
        left, right = tmp_path / "a.csv", tmp_path / "b.csv"
        left.write_text("birth,death,birth_px,death_px,essential\n0.1,0.9,0,1,0\n")
        right.write_text("birth,death,birth_px,death_px,essential\n0.2,0.3,0,1,0\n")
        code, out, _ = run_cli(capsys, "wasserstein", str(left), str(right), "--p", "5000")
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.8 / np.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("row", ["0.1,0.9,3,99999999999999999999999,0",
                                     "0.1,0.9,99999999999999999999999,4,0"])
    def test_pixel_past_int64_returns_two(self, capsys, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"birth,death,birth_px,death_px,essential\n{row}\n")
        code, out, err = run_cli(capsys, "wasserstein", str(bad), str(bad))
        assert_data_error(code, out, err)
        assert err.endswith("bad.csv: line 2: unparseable diagram row\n")

    @pytest.mark.parametrize("row", ["0.1,0.9,1_0,1,0", "0.2_5,0.9,0,1,0"])
    def test_digit_separators_return_two(self, capsys, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"birth,death,birth_px,death_px,essential\n{row}\n")
        assert_data_error(*run_cli(capsys, "wasserstein", str(bad), str(bad)))

    @pytest.mark.parametrize("row", ["0.1,0.9,\u0661,2,0", "\u0660.\u0662,0.9,0,1,0"])
    def test_non_ascii_digits_return_two(self, capsys, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"birth,death,birth_px,death_px,essential\n{row}\n", encoding="utf-8")
        assert_data_error(*run_cli(capsys, "wasserstein", str(bad), str(bad)))

    def test_missing_diagram_returns_two(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "wasserstein", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        )
        assert code == 2


class TestLoss:
    def test_frozen_example(self, capsys, tmp_path):
        student = tmp_path / "student.csv"
        teacher = tmp_path / "teacher.csv"
        save_grid_csv(np.array([[0.3, 0.8, 0.1]]), student)
        save_grid_csv(np.array([[0.2, 0.9, 0.1]]), teacher)
        grad_out = tmp_path / "grad.csv"
        code, out, _ = run_cli(
            capsys, "loss", "--student", str(student), "--teacher", str(teacher),
            "--phi", "0.2", "--grad-out", str(grad_out),
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["cons", "rem", "topo", "pixel_ce"]
        assert payload["cons"] == pytest.approx(0.02, abs=1e-12)
        assert payload["rem"] == 0.0
        assert payload["topo"] == pytest.approx(0.02, abs=1e-12)
        assert payload["pixel_ce"] > 0.0
        assert grad_out.read_text() == "0.2,-0.2,0\n"

    @pytest.mark.parametrize("phi", NON_FINITE)
    def test_non_finite_phi_returns_two(self, capsys, quad_grid, phi):
        code, out, err = run_cli(
            capsys, "loss", "--student", quad_grid, "--teacher", quad_grid, f"--phi={phi}",
        )
        assert_data_error(code, out, err)


class TestGradCheck:
    def _write_pair(self, tmp_path):
        rng = np.random.default_rng(61)
        student = tmp_path / "student.csv"
        teacher = tmp_path / "teacher.csv"
        save_grid_csv(random_distinct_grid(rng, 5, 5), student)
        save_grid_csv(random_distinct_grid(rng, 5, 5), teacher)
        return str(student), str(teacher)

    def test_pass_exits_zero(self, capsys, tmp_path):
        student, teacher = self._write_pair(tmp_path)
        code, out, _ = run_cli(capsys, "grad-check", "--student", student,
                               "--teacher", teacher)
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["max_relative_error", "tolerance", "pass"]
        assert payload["pass"] is True
        assert payload["max_relative_error"] < 1e-3

    def test_impossible_tolerance_exits_one(self, capsys, tmp_path):
        student, teacher = self._write_pair(tmp_path)
        code, out, _ = run_cli(capsys, "grad-check", "--student", student,
                               "--teacher", teacher, "--tolerance", "0")
        assert code == 1
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("flag", ["--tolerance", "--h"])
    def test_non_finite_tolerance_and_step_return_two(self, capsys, tmp_path, flag, value):
        student, teacher = self._write_pair(tmp_path)
        code, out, err = run_cli(capsys, "grad-check", "--student", student,
                                 "--teacher", teacher, f"{flag}={value}")
        assert_data_error(code, out, err)

    def test_tied_values_exit_two(self, capsys, tmp_path):
        grid = tmp_path / "tied.csv"
        save_grid_csv(np.array([[0.4, 0.4], [0.1, 0.9]]), grid)
        code, _, err = run_cli(capsys, "grad-check", "--student", str(grid),
                               "--teacher", str(grid))
        assert code == 2
        assert "gap" in err


class TestMetrics:
    def test_identity_masks(self, capsys, tmp_path):
        rng = np.random.default_rng(67)
        mask = rng.uniform(size=(9, 9)) < 0.4
        pred = tmp_path / "pred.pgm"
        gt = tmp_path / "gt.pgm"
        save_mask_pgm(mask, pred)
        save_mask_pgm(mask, gt)
        assert np.array_equal(load_mask_pgm(pred), mask)
        code, out, _ = run_cli(capsys, "metrics", "--pred", str(pred), "--gt", str(gt))
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == [
            "betti_error", "betti_matching_error", "voi", "window_size", "window_count",
        ]
        assert payload == {
            "betti_error": 0.0, "betti_matching_error": 0, "voi": 0.0,
            "window_size": 256, "window_count": 1,
        }

    def test_shape_mismatch_returns_two(self, capsys, tmp_path):
        pred = tmp_path / "pred.pgm"
        gt = tmp_path / "gt.pgm"
        save_mask_pgm(np.ones((2, 2), dtype=bool), pred)
        save_mask_pgm(np.ones((3, 3), dtype=bool), gt)
        code, _, err = run_cli(capsys, "metrics", "--pred", str(pred), "--gt", str(gt))
        assert code == 2
        assert "differ" in err


class TestDemo:
    def test_noise_removal_smoke(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        student = tmp_path / "student.pgm"
        teacher = tmp_path / "teacher.pgm"
        code, out, _ = run_cli(
            capsys, "demo", "--steps", "2",
            "--trace-out", str(trace), "--student-out", str(student),
            "--teacher-out", str(teacher),
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == [
            "steps", "final_pixel_loss", "final_cons_loss", "final_rem_loss",
            "signal_dots", "noise_dots", "trace",
        ]
        assert payload["steps"] == 2
        assert payload["signal_dots"] == 3
        assert payload["noise_dots"] == 10
        assert len(trace.read_text().splitlines()) == 3
        assert load_mask_pgm(student).shape == (32, 32)
        assert load_mask_pgm(teacher).shape == (32, 32)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        args = lambda: run_cli(
            capsys, "demo", "--scenario", "three-basins", "--steps", "3",
            "--sigma", "0.4", "--seed", "11",
            "--trace-out", str(tmp_path / "t.csv"),
            "--student-out", str(tmp_path / "s.pgm"),
            "--teacher-out", str(tmp_path / "te.pgm"),
        )
        code1, out1, _ = args()
        first = [(tmp_path / n).read_bytes() for n in ("t.csv", "s.pgm", "te.pgm")]
        code2, out2, _ = args()
        second = [(tmp_path / n).read_bytes() for n in ("t.csv", "s.pgm", "te.pgm")]
        assert code1 == code2 == 0
        assert out1 == out2
        assert first == second

    def test_custom_init_grid(self, capsys, tmp_path):
        rng = np.random.default_rng(71)
        init = tmp_path / "init.csv"
        save_grid_csv(random_distinct_grid(rng, 6, 6), init)
        code, out, _ = run_cli(
            capsys, "demo", "--init", str(init), "--steps", "1",
            "--trace-out", str(tmp_path / "t.csv"),
            "--student-out", str(tmp_path / "s.pgm"),
            "--teacher-out", str(tmp_path / "te.pgm"),
        )
        assert code == 0
        assert json.loads(out)["steps"] == 1

    def test_custom_init_and_teacher_grids(self, capsys, tmp_path):
        rng = np.random.default_rng(73)
        init, teacher = tmp_path / "init.csv", tmp_path / "teacher.pgm"
        save_grid_csv(random_distinct_grid(rng, 6, 5), init)
        save_mask_pgm(rng.uniform(size=(6, 5)) < 0.5, teacher)
        outputs = [tmp_path / name for name in ("t.csv", "s.pgm", "te.pgm")]
        code, out, err = run_cli(
            capsys, "demo", "--init", str(init), "--teacher-init", str(teacher), "--steps", "1",
            "--trace-out", str(outputs[0]), "--student-out", str(outputs[1]),
            "--teacher-out", str(outputs[2]),
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["steps"] == 1
        assert len(outputs[0].read_text().splitlines()) == 2
        assert load_mask_pgm(outputs[1]).shape == load_mask_pgm(outputs[2]).shape == (6, 5)

    def test_mismatched_labeled_mask_returns_two(self, capsys, tmp_path):
        mask = tmp_path / "mask.pgm"
        save_mask_pgm(np.ones((3, 3), dtype=bool), mask)
        code, _, err = run_cli(
            capsys, "demo", "--steps", "1", "--labeled-mask", str(mask),
            "--trace-out", str(tmp_path / "t.csv"),
            "--student-out", str(tmp_path / "s.pgm"),
            "--teacher-out", str(tmp_path / "te.pgm"),
        )
        assert code == 2
        assert "labeled mask" in err

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("flag", ["--phi", "--eta", "--lambda-u2", "--w1"])
    def test_non_finite_real_returns_two(self, capsys, tmp_path, flag, value):
        mask = tmp_path / "mask.pgm"
        save_mask_pgm(np.ones((32, 32), dtype=bool), mask)
        code, out, err = run_cli(
            capsys, "demo", "--steps", "1", f"{flag}={value}", "--labeled-mask", str(mask),
            "--trace-out", str(tmp_path / "t.csv"),
            "--student-out", str(tmp_path / "s.pgm"),
            "--teacher-out", str(tmp_path / "te.pgm"),
        )
        assert_data_error(code, out, err)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("scenario", ["noise-removal", "three-basins"])
    def test_negative_seed_is_named(self, capsys, tmp_path, scenario):
        code, out, err = run_cli(
            capsys, "demo", "--scenario", scenario, "--seed", "-1",
            "--trace-out", str(tmp_path / "t.csv"),
            "--student-out", str(tmp_path / "s.pgm"),
            "--teacher-out", str(tmp_path / "te.pgm"),
        )
        assert_data_error(code, out, err)
        assert err == "error: seed must be nonnegative, got -1\n"

    def test_diverging_run_prints_one_error_line(self, tmp_path):
        # A process, so that a numpy RuntimeWarning would reach stderr as it does for a user.
        argv = ["demo", "--steps", "50", "--eta", "1e300", "--lambda-u2", "1e300"]
        script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" \
                 f"from topokit.cli import main\nsys.exit(main({argv!r}))\n"
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             cwd=tmp_path)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == "error: student logits are not finite after step 1: " \
                             "the run diverged\n"
        assert list(tmp_path.iterdir()) == []

    def test_invalid_steps_returns_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "demo", "--steps", "0",
            "--trace-out", str(tmp_path / "t.csv"),
            "--student-out", str(tmp_path / "s.pgm"),
            "--teacher-out", str(tmp_path / "te.pgm"),
        )
        assert code == 2
        assert "steps" in err


def _matching_sides(case):
    rng = np.random.default_rng(97)
    if case == "random":
        sides = []
        for n in (12, 9):
            birth = rng.uniform(0.0, 0.9, n)
            sides.append(list(zip(birth, rng.uniform(birth, 1.0))))
        return sides
    if case == "tied":  # eighths: repeated dots and many with birth == death
        birth = rng.integers(0, 9, (2, 16)) / 8
        death = np.maximum(birth, rng.integers(0, 9, (2, 16)) / 8)
        return [list(zip(b, d)) for b, d in zip(birth, death)]
    return [[(0.1, 0.9), (0.3, 0.3), (0.2, 0.45), (0.5, 0.75), (0.0, 1.0)], []]


FROZEN_WASSERSTEIN_DIGESTS = {
    "random/1": "22bc4a37d5f81eae63c180af58d8b295f5d884c28de9e1abfccccda1fe283a8a",
    "random/2": "f5d44f5a5ba655a20b38c0b6152edc0505ac45ee59ecbe194ffb5f28bdd08631",
    "random/3.5": "e6fe090805fba639555574773a0423c082f4498ab14ed3cabf52dba22f1ad707",
    "random/inf": "a2ceb6f378f3b0629e0e9ddace161716c13aa460b16418f0604d27d7932b91f6",
    "tied/1": "6c5684275c7ea3eac8e9a48624b2af4a68ff46d3e032db7046dfa64743dbde41",
    "tied/2": "061dd222cdc6a3424cfda8e7a20d4ca1bf8cbad63b4edfde724ce2ff79f3ed43",
    "tied/3.5": "0b559f260f2794a47b484ed0927505177eb185cfced46d684a3c279f86c39b4a",
    "tied/inf": "cedfce805f272227ffabdfea5c0f3e2920a964d3bfa39103c74a21bd7747f80b",
    "empty-side/1": "71ed00c7a8bea5e99447391b38a5e2920a2b7b74f8932679c65a66f51fbe8b22",
    "empty-side/2": "07087b4ede7e29fa5b063ce67bdd9051632c495b3235842add44a97287afc01f",
    "empty-side/3.5": "1e0e3f445759cf961c6b63ff72d7c2c115789fb191d7b41c9d00b62993433ac2",
    "empty-side/inf": "ec54760a13514095a546943f4eedc9d3c4c9bdb0e40160dfed9a74945bd3b0b6",
}
FROZEN_GRAD_DIGESTS = {
    "squared-values": "da70ccf21e88621f2dd4898c0f2b9f36c088e00a2080ef095b0083e5eb6aa040",
    "diagonal": "0c14cd008590e211d814522e83d41e3dae3af4eb13774d59cd5be3fe9c956381",
}


class TestFrozenBytes:
    """SHA-256 of stdout followed by the file, recorded with the per-pair and per-cell writers."""

    @pytest.mark.parametrize("case", sorted(FROZEN_WASSERSTEIN_DIGESTS))
    def test_wasserstein_stdout_and_pairs(self, capsys, tmp_path, case):
        name, p = case.split("/")
        paths = [str(tmp_path / "left.csv"), str(tmp_path / "right.csv")]
        for path, dots in zip(paths, _matching_sides(name)):
            save_diagram_csv(diagram_from_pairs(dots), path)
        pairs = tmp_path / "pairs.csv"
        code, out, _ = run_cli(capsys, "wasserstein", *paths, "--p", p, "--pairs-out", str(pairs))
        assert code == 0
        digest = hashlib.sha256(out.encode() + pairs.read_bytes()).hexdigest()
        assert digest == FROZEN_WASSERSTEIN_DIGESTS[case]

    @pytest.mark.parametrize("mode", sorted(FROZEN_GRAD_DIGESTS))
    def test_loss_grad_out(self, capsys, tmp_path, mode):
        rng = np.random.default_rng(98)
        student = rng.random((10, 10))
        teacher = np.clip(student + rng.normal(0.0, 0.1, student.shape), 0.0, 1.0)
        paths = [str(tmp_path / "student.csv"), str(tmp_path / "teacher.csv")]
        save_grid_csv(student, paths[0])
        save_grid_csv(teacher, paths[1])
        grad = tmp_path / "grad.csv"
        code, out, _ = run_cli(capsys, "loss", "--student", paths[0], "--teacher", paths[1],
                               "--phi", "0.1", "--noise-mode", mode, "--grad-out", str(grad))
        assert code == 0
        digest = hashlib.sha256(out.encode() + grad.read_bytes()).hexdigest()
        assert digest == FROZEN_GRAD_DIGESTS[mode]
