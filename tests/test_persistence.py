"""Union-find diagram computation against the replay oracle and worked cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topokit.grid import SUBLEVEL, SUPERLEVEL, GridFormatError, label_components, threshold
from topokit.persistence import (
    PersistenceDiagram,
    PersistentDot,
    betti_curve,
    compute_diagram,
    load_diagram_csv,
    save_diagram_csv,
)

from _support import ORACLE_PIXEL_LIMIT, oracle_diagram, random_distinct_grid


def dot_tuples(diagram):
    return sorted(
        (d.birth, d.death, d.birth_pixel, d.death_pixel, d.essential)
        for d in diagram.dots
    )


class TestWorkedExamples:
    def test_three_by_three(self):
        grid = [[0.1, 0.9, 0.2], [0.9, 0.9, 0.9], [0.9, 0.9, 0.9]]
        diagram = compute_diagram(grid)
        assert len(diagram) == 2
        finite, essential = diagram.dots
        assert (finite.birth, finite.death) == (0.2, 0.9)
        assert finite.birth_pixel == 2
        assert finite.death_pixel == 1
        assert not finite.essential
        assert (essential.birth, essential.death) == (0.1, 1.0)
        assert essential.birth_pixel == 0
        assert essential.death_pixel is None
        assert essential.essential

    def test_three_by_three_matches_oracle_exactly(self):
        grid = [[0.1, 0.9, 0.2], [0.9, 0.9, 0.9], [0.9, 0.9, 0.9]]
        assert dot_tuples(compute_diagram(grid)) == dot_tuples(oracle_diagram(grid))

    def test_one_by_four_walkthrough(self):
        diagram = compute_diagram([[0.42, 0.46, 0.30, 0.90]])
        assert len(diagram) == 2
        finite, essential = diagram.dots
        assert (finite.birth, finite.death) == (0.42, 0.46)
        assert finite.birth_pixel == 0
        assert finite.death_pixel == 1
        assert (essential.birth, essential.death) == (0.30, 1.0)
        assert essential.birth_pixel == 2

    def test_constant_grid_single_essential(self):
        diagram = compute_diagram(np.full((3, 5), 0.5))
        assert len(diagram) == 1
        dot = diagram.dots[0]
        assert (dot.birth, dot.death, dot.birth_pixel, dot.essential) == (0.5, 1.0, 0, True)

    def test_constant_two_by_two_oracle(self):
        grid = [[0.3, 0.3], [0.3, 0.3]]
        assert dot_tuples(compute_diagram(grid)) == dot_tuples(oracle_diagram(grid))
        assert len(compute_diagram(grid)) == 1

    def test_essential_dot_is_last(self):
        rng = np.random.default_rng(2)
        grid = random_distinct_grid(rng, 6, 6)
        diagram = compute_diagram(grid)
        assert diagram.dots[-1].essential
        assert not any(d.essential for d in diagram.dots[:-1])
        assert diagram.essential_dot is diagram.dots[-1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            compute_diagram(np.zeros((0, 2)))


class TestBettiCurve:
    def test_frozen_values(self):
        diagram = compute_diagram([[0.1, 0.9, 0.2], [0.9, 0.9, 0.9], [0.9, 0.9, 0.9]])
        assert betti_curve(diagram, 0.5) == 2
        assert betti_curve(diagram, 0.95) == 1
        assert betti_curve(diagram, 0.05) == 0

    def test_essential_counts_at_one(self):
        diagram = compute_diagram([[0.1, 0.9, 0.2], [0.9, 0.9, 0.9], [0.9, 0.9, 0.9]])
        assert betti_curve(diagram, 1.0) == 1

    def test_matches_component_count_at_every_distinct_value(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            grid = rng.uniform(0.0, 1.0, (6, 7))
            diagram = compute_diagram(grid)
            for c in np.unique(grid):
                expected = label_components(threshold(grid, c, SUBLEVEL), 4).count
                assert betti_curve(diagram, float(c)) == expected

    def test_matches_component_count_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            grid = rng.integers(0, 5, (6, 6)) / 5.0
            diagram = compute_diagram(grid)
            for c in np.unique(grid):
                expected = label_components(threshold(grid, c, SUBLEVEL), 4).count
                assert betti_curve(diagram, float(c)) == expected


class TestOracleEquivalence:
    def test_full_dots_on_random_distinct_grids(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            grid = random_distinct_grid(rng, 8, 8)
            assert dot_tuples(compute_diagram(grid)) == dot_tuples(oracle_diagram(grid))

    def test_full_dots_with_ties(self):
        rng = np.random.default_rng(18)
        for _ in range(60):
            grid = rng.integers(0, 4, (6, 6)) / 4.0
            assert dot_tuples(compute_diagram(grid)) == dot_tuples(oracle_diagram(grid))

    def test_connectivity_eight(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            grid = random_distinct_grid(rng, 7, 7)
            left = compute_diagram(grid, SUBLEVEL, 8)
            right = oracle_diagram(grid, 8)
            assert dot_tuples(left) == dot_tuples(right)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 6), min_size=12, max_size=12))
    def test_hypothesis_small_grids(self, cells):
        grid = np.array(cells, dtype=np.float64).reshape(3, 4) / 6.0
        assert dot_tuples(compute_diagram(grid)) == dot_tuples(oracle_diagram(grid))

    def test_oracle_guard_rejects_large_grids(self):
        grid = np.random.default_rng(0).uniform(size=(21, 21))
        assert grid.size > ORACLE_PIXEL_LIMIT
        with pytest.raises(ValueError, match="400"):
            oracle_diagram(grid)


class TestStructuralInvariants:
    def test_critical_pixel_faithfulness(self):
        rng = np.random.default_rng(23)
        for direction in (SUBLEVEL, SUPERLEVEL):
            for _ in range(20):
                grid = rng.uniform(0.0, 1.0, (7, 6))
                for dot in compute_diagram(grid, direction).dots:
                    assert grid.flat[dot.birth_pixel] == dot.birth
                    if dot.death_pixel is not None:
                        assert grid.flat[dot.death_pixel] == dot.death

    def test_dot_count_equals_tie_broken_minima(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            grid = rng.integers(0, 6, (6, 6)) / 6.0
            minima = 0
            h, w = grid.shape
            for r in range(h):
                for c in range(w):
                    idx = r * w + c
                    is_min = True
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                        if 0 <= rr < h and 0 <= cc < w:
                            other = (grid[rr, cc], rr * w + cc)
                            if other < (grid[r, c], idx):
                                is_min = False
                    minima += is_min
            assert len(compute_diagram(grid)) == minima

    def test_exactly_one_essential(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            grid = rng.uniform(0.0, 1.0, (5, 5))
            dots = compute_diagram(grid).dots
            assert sum(d.essential for d in dots) == 1

    def test_determinism(self):
        grid = np.random.default_rng(37).uniform(0.0, 1.0, (9, 9))
        assert compute_diagram(grid) == compute_diagram(grid)


class TestSuperlevel:
    def test_matches_sublevel_of_reflected_grid(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            grid = rng.uniform(0.0, 1.0, (6, 6))
            sup = compute_diagram(grid, SUPERLEVEL)
            ref = compute_diagram(1.0 - grid, SUBLEVEL)
            got = sorted((round(d.birth, 12), round(d.death, 12)) for d in sup.dots)
            want = sorted(
                (round(1.0 - d.birth, 12), round(1.0 - d.death, 12)) for d in ref.dots
            )
            assert got == want

    def test_essential_death_is_zero(self):
        sup = compute_diagram([[0.2, 0.8], [0.6, 0.4]], SUPERLEVEL)
        essential = sup.essential_dot
        assert essential.death == 0.0
        assert essential.birth == 0.8

    def test_persistence_uses_absolute_gap(self):
        sup = compute_diagram([[0.2, 0.8], [0.6, 0.4]], SUPERLEVEL)
        for dot in sup.dots:
            assert dot.persistence == abs(dot.death - dot.birth)
            assert dot.persistence >= 0.0


class TestDiagramCsv:
    def test_round_trip(self, tmp_path):
        grid = random_distinct_grid(np.random.default_rng(43), 6, 6)
        diagram = compute_diagram(grid)
        path = tmp_path / "dgm.csv"
        save_diagram_csv(diagram, path)
        back = load_diagram_csv(path)
        assert len(back) == len(diagram)
        for a, b in zip(back.dots, diagram.dots):
            assert a.birth == pytest.approx(b.birth, abs=1e-9)
            assert a.death == pytest.approx(b.death, abs=1e-9)
            assert a.birth_pixel == b.birth_pixel
            assert a.death_pixel == b.death_pixel
            assert a.essential == b.essential

    def test_header_line(self, tmp_path):
        path = tmp_path / "dgm.csv"
        save_diagram_csv(compute_diagram([[0.1, 0.9]]), path)
        assert path.read_text().splitlines()[0] == "birth,death,birth_px,death_px,essential"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_text("birth,death\n0.1,0.9\n")
        with pytest.raises(ValueError):
            load_diagram_csv(path)

    def test_rejects_essential_with_death_pixel(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_text("birth,death,birth_px,death_px,essential\n0.1,1,0,3,1\n")
        with pytest.raises(ValueError):
            load_diagram_csv(path)

    def test_rejects_finite_without_death_pixel(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_text("birth,death,birth_px,death_px,essential\n0.1,0.9,0,,0\n")
        with pytest.raises(ValueError):
            load_diagram_csv(path)

    def test_dot_without_death_pixel_is_essential_and_round_trips(self, tmp_path):
        dot = PersistentDot(0.25, 1.0, 3)
        assert dot.essential
        path = tmp_path / "dgm.csv"
        save_diagram_csv(PersistenceDiagram((dot,)), path)
        assert load_diagram_csv(path).dots == (dot,)

    @pytest.mark.parametrize("row", [
        "nan,0.9,0,1,0", "0.1,inf,0,1,0", "-inf,0.9,0,1,0", "-0.1,0.9,0,1,0",
        "0.1,1.5,0,1,0", "0.1,0.9,-1,1,0", "0.1,0.9,0,-2,0", "0.1,1,0,,2",
    ])
    def test_rejects_invalid_values(self, tmp_path, row):
        path = tmp_path / "dgm.csv"
        path.write_text(f"birth,death,birth_px,death_px,essential\n{row}\n")
        with pytest.raises(GridFormatError, match="line 2"):
            load_diagram_csv(path)
