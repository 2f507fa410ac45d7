"""The CLI contract under fuzzed files and flags: exit 0/1/2, no traceback, valid JSON."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from topokit.cli import main

LEVELS = [f"{k / 16:g}" for k in range(17)]
CELLS = st.sampled_from(LEVELS[::4] + ["1.5", "-0.1", "nan", "inf", "", "x"])
OVERFLOW = ["99999999999999999999999", "-99999999999999999999999"]  # past int64
P2_TOKENS = st.sampled_from(["0", "7", "255"] * 3 + ["300", "-5", "-", "#", "#7", "5#", *OVERFLOW])


@st.composite
def csv_grids(draw):
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.sampled_from(LEVELS), min_size=h * w, max_size=h * w,
                          unique=draw(st.booleans())))  # distinct values let grad-check run
    return ".csv", "".join(",".join(cells[r * w:(r + 1) * w]) + "\n" for r in range(h)).encode()


@st.composite
def pgms(draw):
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    samples = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    if draw(st.booleans()):
        return ".pgm", f"P2\n{w} {h}\n255\n{' '.join(map(str, samples))}\n".encode()
    return ".pgm", f"P5\n{w} {h}\n255\n".encode() + bytes(samples)


@st.composite
def diagram_csvs(draw):
    rows = ["birth,death,birth_px,death_px,essential"]
    for i in range(draw(st.integers(0, 4))):
        birth, death = draw(st.sampled_from(LEVELS)), draw(st.sampled_from(LEVELS))
        rows.append(f"{birth},{death},{i},{'' if i == 0 else 9},{int(i == 0)}")
    return ".csv", ("\n".join(rows) + "\n").encode()


@st.composite
def p2_rasters(draw):
    """A P2 file whose raster holds hashes, dashes and integers past int64 among the samples."""
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = w * h + draw(st.sampled_from([0, 0, 1]))
    tokens = draw(st.lists(P2_TOKENS, min_size=count, max_size=count))
    return ".pgm", f"P2 {w} {h}\n255\n{' '.join(tokens)}\n".encode()


JUNK = st.one_of(st.tuples(st.sampled_from([".csv", ".pgm"]), st.one_of(
    st.binary(max_size=32),
    st.just(b"\xff\xfe0.5\n"),
    st.builds(lambda rows, breaks: "".join(",".join(r) + b for r, b in zip(rows, breaks)).encode(),
              st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=4),
              st.lists(st.sampled_from(["\n", "\n\n", "\n \n", "\r\n"]), min_size=4, max_size=4)),
    st.builds(lambda header, rows: (header + "".join(",".join(r) + "\n" for r in rows)).encode(),
              st.sampled_from(["birth,death,birth_px,death_px,essential\n", "birth,death\n", ""]),
              st.lists(st.tuples(CELLS, CELLS, st.sampled_from(["0", "-1", "x", *OVERFLOW]),
                                 st.sampled_from(["", "1", "-2", "x", *OVERFLOW]),
                                 st.sampled_from(["0", "1", "2"])), max_size=4)),
    st.builds(lambda magic, w, h, maxval, raster: magic + f" {w} {h}\n{maxval}\n".encode() + raster,
              st.sampled_from([b"P2", b"P5", b"P6"]), st.integers(0, 3), st.integers(0, 3),
              st.sampled_from([0, 1, 255, 256, 65535, 70000]), st.binary(max_size=20)),
)), p2_rasters())
VALID_FILES = {"grid": st.one_of(csv_grids(), pgms()), "diagram": diagram_csvs(), "mask": pgms()}
ROLE = {"wasserstein": "diagram", "metrics": "mask"}  # every other subcommand reads grids

# Each flag takes a valid value, or an invalid one in about half of the draws.
FLAGS = {
    "real": (["0.05", "0.3", "0.7", "1e-3"], ["nan", "inf", "-inf", "-1", "0", "x"]),
    "h": (["1e-5", "1e-3"], ["nan", "inf", "-inf", "-1", "0", "x"]),
    "int": (["1", "2", "3"], ["-1", "0", "x"]),
    "p": (["1", "2", "3.5", "inf"], ["0", "nan", "-inf", "x"]),
}

SUBCOMMANDS = ("pd", "decompose", "wasserstein", "loss", "grad-check", "metrics", "demo")


def _reject_constant(name):
    raise ValueError(f"stdout JSON holds {name}")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(SUBCOMMANDS))
def test_contract_holds_for_any_files_and_flags(data, command):
    draw = data.draw

    def flag(name, kind):
        good, bad = FLAGS[kind]
        return f"--{name}={draw(st.sampled_from(bad if draw(st.booleans()) else good))}"

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in "abc":
            valid = draw(st.sampled_from([True, True, True, False]))
            suffix, content = draw(VALID_FILES[ROLE.get(command, "grid")] if valid else JUNK)
            paths.append(str(Path(tmp) / (name + suffix)))
            Path(paths[-1]).write_bytes(content)
        a, b, c = paths
        b = draw(st.sampled_from([a, b]))  # one file on both sides always matches in shape
        out = str(Path(tmp) / "out")
        grid_io = [f"--direction={draw(st.sampled_from(['sublevel', 'superlevel']))}",
                   f"--connectivity={draw(st.sampled_from(['4', '8']))}"]
        argv = {
            "pd": lambda: [a, *grid_io],
            "decompose": lambda: [a, *grid_io, flag("phi", "real"),
                                  "--signal-out", out + "s", "--noise-out", out + "n"],
            "wasserstein": lambda: [a, b, flag("p", "p"), "--pairs-out", out],
            "loss": lambda: ["--student", a, "--teacher", b, *grid_io, flag("phi", "real"),
                             f"--noise-mode={draw(st.sampled_from(['squared-values', 'diagonal']))}",
                             "--grad-out", out],
            "grad-check": lambda: ["--student", a, "--teacher", b, *grid_io, flag("phi", "real"),
                                   flag("h", "h"), flag("tolerance", "real")],
            "metrics": lambda: ["--pred", a, "--gt", b, flag("window", "int")],
            "demo": lambda: [
                flag("steps", "int"), flag("eta", "real"), flag("phi", "real"), flag("sigma", "real"),
                "--trace-out", out + "t", "--student-out", out + "s", "--teacher-out", out + "u",
                *draw(st.sampled_from([[], ["--init", a], ["--init", a, "--teacher-init", b],
                                       ["--scenario=three-basins"]])),
                *draw(st.sampled_from([[], ["--labeled-mask", c]]))],
        }[command]()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, *argv])
    out, err = stdout.getvalue(), stderr.getvalue()
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    if code == 0 and command == "pd":
        assert out.startswith("birth,death,birth_px,death_px,essential\n")
    elif out:  # a failed grad-check also prints its JSON report
        json.loads(out, parse_constant=_reject_constant)
