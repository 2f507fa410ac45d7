"""Union-find diagram computation against the replay oracle and worked cases."""

import csv
import hashlib
import io
import re
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from topokit import persistence
from topokit.losses import NOISE_DIAGONAL, finite_difference_check
from topokit.scenarios import noise_removal_grid, perturbed_student_logits, three_basin_teacher
from topokit.trainer import TrainConfig, likelihood_to_logits, run_simulation
from topokit.grid import (
    SUBLEVEL,
    SUPERLEVEL,
    GridFormatError,
    format_real,
    label_components,
    threshold,
)
from topokit.persistence import (
    PersistenceDiagram,
    PersistentDot,
    compute_diagram,
    compute_diagrams,
    format_diagram_csv,
    load_diagram_csv,
    save_diagram_csv,
)

from _support import (
    ORACLE_PIXEL_LIMIT,
    betti_curve,
    chain_grid,
    diagram_from_dots,
    loop_diagram,
    oracle_diagram,
    random_distinct_grid,
    reference_diagram_csv,
    walk_pair,
)


HEADER = "birth,death,birth_px,death_px,essential\n"
CHUNK = 1024  # the long-file tests put rows on both sides of its multiples


def dot_tuples(diagram):
    return sorted(zip(diagram.birth.tolist(), diagram.death.tolist(),
                      diagram.birth_px.tolist(), diagram.death_px.tolist()))


class TestWorkedExamples:
    def test_three_by_three(self):
        grid = [[0.1, 0.9, 0.2], [0.9, 0.9, 0.9], [0.9, 0.9, 0.9]]
        diagram = compute_diagram(grid)
        assert len(diagram) == 2
        finite, essential = diagram.dots
        assert (finite.birth, finite.death) == (0.2, 0.9)
        assert finite.birth_pixel == 2
        assert finite.death_pixel == 1
        assert (essential.birth, essential.death) == (0.1, 1.0)
        assert essential.birth_pixel == 0
        assert essential.death_pixel is None
        assert diagram.essential.tolist() == [False, True]

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
        assert (dot.birth, dot.death, dot.birth_pixel, dot.death_pixel) == (0.5, 1.0, 0, None)

    def test_constant_two_by_two_oracle(self):
        grid = [[0.3, 0.3], [0.3, 0.3]]
        assert dot_tuples(compute_diagram(grid)) == dot_tuples(oracle_diagram(grid))
        assert len(compute_diagram(grid)) == 1

    def test_essential_dot_is_last(self):
        rng = np.random.default_rng(2)
        grid = random_distinct_grid(rng, 6, 6)
        diagram = compute_diagram(grid)
        assert diagram.essential.tolist() == [False] * (len(diagram) - 1) + [True]
        assert diagram.dots[-1].death_pixel is None

    def test_columns_are_read_only_and_survive_a_reuse(self):
        grid = random_distinct_grid(np.random.default_rng(4), 5, 6)
        first = compute_diagram(grid)
        pixels = first.birth_px.copy()
        for column in (first.birth, first.death, first.birth_px, first.death_px):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        again = compute_diagram(grid)  # reuses the remembered pairing
        assert np.array_equal(again.birth_px, pixels)
        assert again == first

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            compute_diagram(np.zeros((0, 2)))


class TestBettiCurve:
    def test_frozen_values(self):
        diagram = compute_diagram([[0.1, 0.9, 0.2], [0.9, 0.9, 0.9], [0.9, 0.9, 0.9]])
        assert betti_curve(diagram, 0.5) == 2
        assert betti_curve(diagram, 0.95) == 1
        assert betti_curve(diagram, 0.05) == 0

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, c):
        diagram = compute_diagram([[0.1, 0.9, 0.2], [0.9, 0.9, 0.9], [0.9, 0.9, 0.9]])
        with pytest.raises(ValueError, match="finite"):
            betti_curve(diagram, c)

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

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("shape", [(1, 19), (19, 1), (1, 1)])
    def test_one_pixel_wide_grids(self, shape, connectivity):
        rng = np.random.default_rng(47)
        for levels in (3, 0):
            for _ in range(10):
                grid = (rng.integers(0, levels, shape) / (levels - 1) if levels
                        else random_distinct_grid(rng, *shape))
                left = compute_diagram(grid, SUBLEVEL, connectivity)
                assert dot_tuples(left) == dot_tuples(oracle_diagram(grid, connectivity))

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

    def test_birth_pixels_are_distinct_and_never_death_pixels(self):
        # topo_loss_and_gradient relies on this to add all births before all deaths.
        rng = np.random.default_rng(30)
        for levels in (0, 3, 8):
            for _ in range(20):
                grid = rng.integers(0, levels, (7, 6)) / (levels - 1) if levels else rng.random((7, 6))
                for direction in (SUBLEVEL, SUPERLEVEL):
                    for connectivity in (4, 8):
                        diagram = compute_diagram(grid, direction, connectivity)
                        assert np.unique(diagram.birth_px).size == len(diagram)
                        assert not np.isin(diagram.birth_px, diagram.death_px).any()

    def test_exactly_one_essential(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            grid = rng.uniform(0.0, 1.0, (5, 5))
            assert compute_diagram(grid).essential.sum() == 1

    def test_determinism(self):
        grid = np.random.default_rng(37).uniform(0.0, 1.0, (9, 9))
        assert compute_diagram(grid) == compute_diagram(grid)


def fresh_diagram(grid, direction, connectivity):
    """compute_diagram with nothing remembered, leaving the remembered batch as it was."""
    saved, persistence._last = persistence._last, None
    try:
        return compute_diagram(grid, direction, connectivity)
    finally:
        persistence._last = saved


def _base_grid(rng, kind, h, w):
    if kind == "distinct":
        return random_distinct_grid(rng, h, w)
    if kind == "ties4":
        return rng.integers(0, 4, (h, w)) / 3.0
    blocks = rng.integers(0, 256, (-(-h // 3), -(-w // 3)))  # 8-bit plateaus of up to 3x3 pixels
    return np.kron(blocks, np.ones((3, 3)))[:h, :w] / 255.0


def _perturb(rng, kind, grid, op):
    """One small step: a monotone rescale keeps the pixel order, a nudge may change it."""
    if op == "same":
        return grid
    if op == "rescale":
        return grid * rng.uniform(0.9, 1.0)
    if op == "ema":
        return 0.5 * grid + 0.5 * np.clip(grid + rng.normal(0.0, 0.01, grid.shape), 0.0, 1.0)
    out = grid.copy()
    i = rng.integers(out.size)
    if kind == "distinct":
        out.flat[i] = np.clip(out.flat[i] + rng.normal(0.0, 0.05), 0.0, 1.0)
    else:
        levels = 3.0 if kind == "ties4" else 255.0
        out.flat[i] = np.clip(np.rint(out.flat[i] * levels) + rng.choice([-1, 1]), 0, levels) / levels
    return out


class TestLoopReference:
    """compute_diagram against the pixel-by-pixel union-find, dots and emission order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  st.tuples(st.just(1), st.integers(1, 40)),
                  st.tuples(st.integers(1, 40), st.just(1))),
        st.sampled_from(["distinct", "ties4", "plateaus8"]),
        st.sampled_from([SUBLEVEL, SUPERLEVEL]), st.sampled_from([4, 8]), st.integers(0, 2**32 - 1),
    )
    def test_dots_equal_the_loop_in_order(self, shape, kind, direction, connectivity, seed):
        grid = _base_grid(np.random.default_rng(seed), kind, *shape)
        got = compute_diagram(grid, direction, connectivity)
        assert got.dots == loop_diagram(grid, direction, connectivity).dots

    def test_peak_memory_on_random_512(self):
        # The pixel-by-pixel loop peaked at 29.7 MiB here (Python lists of the argsort,
        # the values and a parent and birth slot per framed cell). The basin kernel peaks
        # at 16.7 MiB with its edges found where they lie (18.1 with an n x 4 table of
        # them in rank order), and the 52,714 dots it returns hold 1.6.
        grid = np.random.default_rng(0).random((512, 512))
        tracemalloc.start()
        try:
            compute_diagram(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26 * 2**20

    def test_peak_memory_on_random_512_at_8_connectivity(self):
        # 20.2 MiB, 23.9 with an n x 8 table of the edges in rank order.
        grid = np.random.default_rng(0).random((512, 512))
        assert _traced_peak(grid, SUBLEVEL, 8) <= 28 * 2**20

    def test_peak_memory_on_smooth_1024_superlevel_8(self):
        # The cli-grids pd-smooth1024-p2 call: 49.0 MiB. An n x 8 int32 table of the
        # edges in rank order took it to 80.2, though only 20,226 edges fill it.
        assert _traced_peak(_bench_grid("smooth-1024"), SUPERLEVEL, 8) <= 64 * 2**20


def _traced_peak(grid, direction, connectivity):
    """tracemalloc's peak over a compute_diagram call that pairs afresh."""
    persistence._last = None
    tracemalloc.start()
    try:
        compute_diagram(grid, direction, connectivity)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stacked(grids, direction):
    """The arguments compute_diagrams gives _pair for grids of one shape, a separator row below each but the last."""
    h, w = grids[0].shape
    orders = [np.argsort(-g.ravel() if direction == SUPERLEVEL else g.ravel(), kind="stable")
              for g in grids]
    stacked = np.concatenate([order + i * (h + 1) * w for i, order in enumerate(orders)])
    return stacked, len(grids) * (h + 1) - 1, w


def _bench_grid(name):
    """The kinds of grid the cli-grids benchmark pairs: uniform noise as floats and at 16
    bits, blurred noise at 16 and 8 bits, 8 levels, and a sin-cos wave."""
    rng = np.random.default_rng(1)
    n = int(name.rsplit("-", 1)[1])
    if name.startswith("random16"):
        return np.rint(rng.random((n, n)) * 65535) / 65535
    if name.startswith("random"):
        return rng.random((n, n))
    if name.startswith("level8"):
        return rng.integers(0, 8, (n, n)) / 7
    if name.startswith("sincos"):
        y, x = np.mgrid[:n, :n]
        return np.sin(y / 37) * np.cos(x / 29) * 0.5 + 0.5
    blurred = ndimage.gaussian_filter(rng.random((n, n)), sigma=n / 16, mode="wrap")
    levels = 255 if name.startswith("bit8") else 65535
    return np.rint((blurred - blurred.min()) / np.ptp(blurred) * levels) / levels


def _settled(grid, direction, connectivity):
    """compute_diagram, and how many dots at multi-kill pixels the rounds killed and how
    many the union-find after them killed."""
    found, union_find = [], persistence._union_find

    def spy(edges, into):
        result = union_find(edges, into)
        found.extend(result[0])
        return result

    persistence._last = None
    with mock.patch.object(persistence, "_union_find", spy):
        diagram = compute_diagram(grid, direction, connectivity)
    flat = -grid.ravel() if direction == SUPERLEVEL else grid.ravel()
    rank = np.argsort(np.argsort(flat, kind="stable"))
    basin = np.argsort(np.argsort(rank[diagram.birth_px]))  # basins go in their minima's rank order
    shared = np.unique(diagram.death_px[:-1], return_counts=True)
    multi = np.isin(diagram.death_px, shared[0][shared[1] > 1])
    by_union_find = np.isin(basin, found)
    return diagram, np.count_nonzero(multi & ~by_union_find), np.count_nonzero(multi & by_union_find)


class TestMerge:
    """The numpy merge in _pair against the Python walk it replaced, and on chain grids."""

    @pytest.mark.parametrize("name, connectivity, direction", [
        ("random-1024", 4, SUBLEVEL), ("random-1024", 8, SUBLEVEL), ("smooth-1024", 4, SUBLEVEL),
        ("smooth-1024", 8, SUBLEVEL), ("bit8-256", 4, SUBLEVEL), ("bit8-256", 8, SUBLEVEL),
        ("random-256", 4, SUBLEVEL), ("level8-512", 8, SUBLEVEL), ("sincos-1024", 4, SUBLEVEL),
        ("smooth-1024", 8, SUPERLEVEL)])  # the last is the cli-grids pd-smooth1024-p2 call
    def test_bench_shaped_grids_equal_the_walk_in_order(self, name, connectivity, direction):
        grid = _bench_grid(name)
        flat = -grid.ravel() if direction == SUPERLEVEL else grid.ravel()
        args = np.argsort(flat, kind="stable"), *grid.shape, connectivity
        for got, want in zip(persistence._pair(*args), walk_pair(*args)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("direction", [SUBLEVEL, SUPERLEVEL])
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("batch", [2, 3])
    def test_stacked_batches_equal_the_walk_in_order(self, batch, connectivity, direction):
        rng = np.random.default_rng(batch)
        grids = [rng.random((96, 80)), rng.integers(0, 4, (96, 80)) / 3, chain_grid(96)[:, :80]]
        args = *_stacked(grids[:batch], direction), connectivity
        for got, want in zip(persistence._pair(*args), walk_pair(*args)):
            assert np.array_equal(got, want)

    def test_chain_grids_equal_the_loop_in_order(self):
        # Chains stall the rounds at once and leave their edges to the union-find; random
        # pixels put multi-kill pixels on both sides.
        reached = {"rounds": 0, "union-find": 0}

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(st.integers(2, 16), st.sampled_from([0.0, 0.1, 0.3]),
               st.sampled_from([SUBLEVEL, SUPERLEVEL]), st.sampled_from([4, 8]),
               st.integers(0, 2**32 - 1))
        def check(n, share, direction, connectivity, seed):
            rng = np.random.default_rng(seed)
            grid = np.where(rng.random((n, n)) < share, rng.random((n, n)), chain_grid(n))
            got, by_rounds, by_union_find = _settled(grid, direction, connectivity)
            assert got.dots == loop_diagram(grid, direction, connectivity).dots
            reached["rounds"] += by_rounds > 0
            reached["union-find"] += by_union_find > 0

        check()
        assert reached["rounds"] > 0 and reached["union-find"] > 0, reached

    def test_chain_512_in_bounded_time(self):
        # Rounds alone settle one basin of this chain each, a number of rounds that grows
        # with the pixels, each over every edge left; the union-find takes it in one pass.
        grid = chain_grid(512)
        start = time.perf_counter()
        diagram = compute_diagram(grid)
        assert time.perf_counter() - start < 10.0
        assert len(diagram) == 65_664  # one dot per corridor minimum


class TestRecentPairings:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 12), st.integers(1, 12), st.sampled_from(["distinct", "ties4", "plateaus8"]),
        st.sampled_from([SUBLEVEL, SUPERLEVEL]), st.sampled_from([4, 8]), st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.sampled_from(["rescale", "nudge", "ema"]),
                           st.sampled_from(["same", "rescale", "ema", "nudge"])),
                 min_size=1, max_size=8),
    )
    def test_reuse_equals_recomputation(self, h, w, kind, direction, connectivity, seed, steps):
        # Each step pairs student and teacher in one call, as topo_loss_and_gradient does;
        # the second step rescales both, which keeps their pixel orders, so it reuses.
        persistence._last = None
        rng = np.random.default_rng(seed)
        student, teacher = _base_grid(rng, kind, h, w), _base_grid(rng, kind, h, w)
        calls = 0
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as loop:
            for i, (op_s, op_t) in enumerate([("same", "same")] + steps):
                student = _perturb(rng, kind, student, "rescale" if i == 1 else op_s)
                teacher = _perturb(rng, kind, teacher, "rescale" if i == 1 else op_t)
                got = compute_diagrams([student, teacher], direction, connectivity)
                calls += 1
                for diagram, grid in zip(got, (student, teacher), strict=True):
                    assert diagram == fresh_diagram(grid, direction, connectivity)
            hits = calls - (loop.call_count - 2 * calls)  # every fresh_diagram call runs the loop
        assert hits >= 1

    @pytest.mark.parametrize("direction", [SUBLEVEL, SUPERLEVEL])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_repeated_batch_makes_no_kernel_call(self, direction, connectivity):
        rng = np.random.default_rng(3)
        student, teacher = random_distinct_grid(rng, 6, 5), random_distinct_grid(rng, 6, 5)
        first = compute_diagrams([student, teacher], direction, connectivity)
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel, \
                mock.patch.object(persistence, "_stable_order",
                                  wraps=persistence._stable_order) as sort:
            again = compute_diagrams([student, teacher], direction, connectivity)
            assert compute_diagrams([], direction, connectivity) == []  # forgets nothing
            scaled = compute_diagrams([0.5 * student, 0.9 * teacher],  # the same pixel orders
                                      direction, connectivity)
        assert kernel.call_count == 0
        assert sort.call_count == 0  # a hit is told from the remembered orders alone
        assert again == first
        assert scaled == [fresh_diagram(0.5 * student, direction, connectivity),
                          fresh_diagram(0.9 * teacher, direction, connectivity)]

    @pytest.mark.parametrize("changed", [0, 1, 2])
    def test_one_changed_order_pairs_the_whole_batch(self, changed):
        rng = np.random.default_rng(11)
        grids = [random_distinct_grid(rng, 6, 7) for _ in range(3)]
        compute_diagrams(grids)
        grids[changed] = grids[changed][::-1].copy()  # a new pixel order for one grid
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel:
            got = compute_diagrams(grids)
        assert kernel.call_count == 1
        assert len(kernel.call_args.args[0]) == 3 * 6 * 7
        for diagram, grid in zip(got, grids, strict=True):
            assert diagram == fresh_diagram(grid, SUBLEVEL, 4)

    @pytest.mark.parametrize("batch, connectivity", [
        ("a", 4), ("abb", 4), ("ba", 4), ("ab", 8), ("AB", 4)])
    def test_other_length_order_shape_or_connectivity_misses(self, batch, connectivity):
        # A and B are a and b with rows and columns swapped in the same flat order.
        rng = np.random.default_rng(12)
        a, b = random_distinct_grid(rng, 4, 6), random_distinct_grid(rng, 4, 6)
        pool = {"a": a, "b": b, "A": a.reshape(6, 4), "B": b.reshape(6, 4)}
        compute_diagrams([a, b])
        grids = [pool[name] for name in batch]
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel:
            got = compute_diagrams(grids, SUBLEVEL, connectivity)
        assert kernel.call_count == 1
        for diagram, grid in zip(got, grids, strict=True):
            assert diagram == fresh_diagram(grid, SUBLEVEL, connectivity)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_equal_orders_across_directions_hit(self, connectivity):
        # 1 - v ranks superlevel as v ranks sublevel: the pairing is reused and only the
        # essential death follows the direction.
        rng = np.random.default_rng(14)
        student, teacher = random_distinct_grid(rng, 5, 6), random_distinct_grid(rng, 5, 6)
        below = compute_diagrams([student, teacher], SUBLEVEL, connectivity)
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel:
            above = compute_diagrams([1 - student, 1 - teacher], SUPERLEVEL, connectivity)
        assert kernel.call_count == 0
        for low, high, grid in zip(below, above, (1 - student, 1 - teacher), strict=True):
            assert high == fresh_diagram(grid, SUPERLEVEL, connectivity)
            assert (low.death[-1], high.death[-1]) == (1.0, 0.0)
            assert np.array_equal(low.birth_px, high.birth_px)

    def test_grad_check_makes_one_kernel_call(self):
        # finite_difference_check pairs the student with a fixed teacher in one batch, then
        # probes the student one pixel at a time without changing its order, so every
        # probe's batch reuses the first one's pairings, and the remembered orders pass
        # the hit test without a sort: the first batch sorts its two grids, no probe
        # sorts. A memo of one grid, not one batch, makes 3,147 kernel calls on this grid
        # instead, and the check runs about 5x longer.
        rng = np.random.default_rng(64)
        student, teacher = random_distinct_grid(rng, 64, 64), random_distinct_grid(rng, 64, 64)
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel, \
                mock.patch.object(persistence, "_stable_order",
                                  wraps=persistence._stable_order) as sort:
            finite_difference_check(student, teacher)
        assert kernel.call_count == 1
        assert sort.call_count == 2

    @pytest.mark.parametrize("direction", [SUBLEVEL, SUPERLEVEL])
    @pytest.mark.parametrize("rising, calls", [(True, 0), (False, 1)])
    def test_a_new_tie_hits_only_in_pixel_order(self, direction, rising, calls):
        # Two pixels next to each other in the order come to tie: the stable order keeps
        # them when the first has the smaller index, and swaps them when it has the larger.
        grid = random_distinct_grid(np.random.default_rng(16), 7, 6)
        ranked = -grid.ravel() if direction == SUPERLEVEL else grid.ravel()
        order = np.argsort(ranked, kind="stable")
        compute_diagram(grid, direction)
        i = next(i for i in range(order.size - 1) if (order[i] < order[i + 1]) == rising)
        tied = grid.copy()
        tied.flat[order[i + 1]] = grid.flat[order[i]]
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel:
            got = compute_diagram(tied, direction)
        assert kernel.call_count == calls
        assert got == fresh_diagram(tied, direction, 4)

    @pytest.mark.parametrize("direction", [SUBLEVEL, SUPERLEVEL])
    def test_flipping_the_sign_of_a_zero_hits(self, direction):
        # -0.0 ties with 0.0, so the stable order and the pairing are kept; the dot values
        # are read from the new grid, sign bits included.
        grid = np.random.default_rng(17).integers(0, 3, (6, 7)) / 2.0
        compute_diagram(grid, direction)
        flipped = grid.copy()
        flipped[::2][flipped[::2] == 0.0] = -0.0
        assert np.signbit(flipped).any()
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel:
            got = compute_diagram(flipped, direction)
        assert kernel.call_count == 0
        want = fresh_diagram(flipped, direction, 4)
        assert got == want
        for column in ("birth", "death"):
            assert np.array_equal(np.signbit(getattr(got, column)),
                                  np.signbit(getattr(want, column)))

    def test_mutating_the_input_after_a_call(self):
        grid = random_distinct_grid(np.random.default_rng(5), 6, 6)
        original = grid.copy()
        first = compute_diagram(grid)
        grid *= 0.5  # same pixel order, new values
        assert compute_diagram(grid) == fresh_diagram(grid, SUBLEVEL, 4)
        assert first == fresh_diagram(original, SUBLEVEL, 4)
        assert compute_diagram(original) == first

    def test_shape_connectivity_and_direction(self):
        # Equal pixel orders, different diagrams: the 2x3 and 3x2 framings pair differently,
        # so do 4- and 8-connectivity, and the essential death follows the direction.
        row = np.array([0.1, 0.9, 0.8, 0.2, 0.3, 0.7])
        for grid, direction, connectivity in [(row.reshape(2, 3), SUBLEVEL, 4),
                                              (row.reshape(3, 2), SUBLEVEL, 4),
                                              (row.reshape(3, 2), SUBLEVEL, 8),
                                              (np.full((3, 2), 0.5), SUBLEVEL, 4),
                                              (np.full((3, 2), 0.5), SUPERLEVEL, 4)]:
            got = compute_diagram(grid, direction, connectivity)
            assert got == fresh_diagram(grid, direction, connectivity)


@st.composite
def ranked_values(draw):
    """The flat values compute_diagrams orders: a grid of 1 x 1 up to 8 x 8 or 1 x 30
    pixels at 2, 3 or 5 levels or as floats, zeros of either sign, negated for the
    superlevel direction."""
    h, w = draw(st.one_of(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                          st.tuples(st.just(1), st.integers(1, 30))))
    levels = draw(st.sampled_from([2, 3, 5, None]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.random(h * w) if levels is None else rng.integers(0, levels, h * w) / (levels - 1)
    flat[(flat == 0.0) & (rng.random(h * w) < 0.5)] = -0.0
    event(f"levels={levels}")
    return -flat if draw(st.sampled_from([SUBLEVEL, SUPERLEVEL])) == SUPERLEVEL else flat


class TestPixelOrder:
    """_stable_order (a miss) and _still_orders (the hit test) against the stable argsort."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ranked_values())
    def test_miss_order_is_the_stable_argsort(self, values):
        got, want = persistence._stable_order(values), np.argsort(values, kind="stable")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ranked_values(), st.sampled_from(["stable", "swap", "other", "shuffled"]),
           st.integers(0, 2**32 - 1))
    def test_hit_test_is_equality_with_the_stable_argsort(self, values, kind, seed):
        rng = np.random.default_rng(seed)
        stable = np.argsort(values, kind="stable")
        order = stable.copy()
        if kind == "swap" and order.size > 1:  # two neighbours in the order, tied or not
            i = rng.integers(order.size - 1)
            order[i:i + 2] = order[i + 1], order[i]
        elif kind == "other":  # the stable order of other values of the same kind
            order = np.argsort(rng.permutation(values), kind="stable")
        elif kind == "shuffled":
            order = rng.permutation(order.size)
        event(kind)
        assert persistence._still_orders(order, values) == np.array_equal(order, stable)

    @pytest.mark.parametrize("direction", [SUBLEVEL, SUPERLEVEL])
    @pytest.mark.parametrize("name", ["random-1024", "random16-1024", "smooth-1024",
                                      "bit8-1024"])
    def test_bench_shaped_grids(self, name, direction):
        flat = _bench_grid(name).ravel()
        values = -flat if direction == SUPERLEVEL else flat
        stable = np.argsort(values, kind="stable")
        assert np.array_equal(persistence._stable_order(values), stable)
        assert persistence._still_orders(stable, values)
        seen = values[stable]
        for tie in (True, False):  # two neighbours in the order swapped, tied and not
            i = np.flatnonzero((seen[1:] == seen[:-1]) == tie)[:1]
            if i.size:
                swapped = stable.copy()
                swapped[[i[0], i[0] + 1]] = stable[[i[0] + 1, i[0]]]
                assert not persistence._still_orders(swapped, values)


class TestComputeDiagrams:
    """Several grids in one kernel call, stacked with a separator row between them."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.one_of(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  st.tuples(st.just(1), st.integers(1, 30)),
                  st.tuples(st.integers(1, 30), st.just(1))),
        st.lists(st.sampled_from(["distinct", "ties4", "plateaus8"]), min_size=1, max_size=4),
        st.sampled_from([SUBLEVEL, SUPERLEVEL]), st.sampled_from([4, 8]), st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_each_grid_alone(self, shape, kinds, direction, connectivity, seed):
        rng = np.random.default_rng(seed)
        grids = [_base_grid(rng, kind, *shape) for kind in kinds]
        persistence._last = None
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel:
            got = compute_diagrams(grids, direction, connectivity)
        assert kernel.call_count == 1
        assert len(got) == len(grids)
        for diagram, grid in zip(got, grids):
            assert diagram == fresh_diagram(grid, direction, connectivity)
            assert diagram.dots == loop_diagram(grid, direction, connectivity).dots

    @pytest.mark.parametrize("direction, connectivity, message", [
        ("up", 4, r"direction must be one of \('sublevel', 'superlevel'\), got 'up'"),
        (SUBLEVEL, 6, "connectivity must be 4 or 8, got 6"),
    ])
    def test_bad_direction_and_connectivity_rejected(self, direction, connectivity, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            compute_diagrams([np.full((2, 2), 0.5)], direction, connectivity)

    @pytest.mark.parametrize("name, calls", [("noise-removal", 31), ("three-basins", 1000)])
    def test_one_kernel_call_per_step_at_most(self, name, calls):
        # The bench scenarios at seed 1: noise removal reuses almost every pairing, while
        # the three-basins student and teacher change order at nearly every step.
        if name == "three-basins":
            teacher = three_basin_teacher()
            student = perturbed_student_logits(teacher, 0.5, 1)
            config = TrainConfig(steps=1000, learning_rate=0.5, ema_decay=0.999, phi=0.7,
                                 lambda_u2=0.002, ramp_k=0.1, strong_noise_sigma=0.5, seed=1)
            teacher = likelihood_to_logits(teacher)
        else:
            student, teacher = likelihood_to_logits(noise_removal_grid()), None
            config = TrainConfig(steps=500, learning_rate=0.1, ema_decay=0.0, phi=0.7,
                                 lambda_u2=1.0, ramp_k=0.0, strong_noise_sigma=0.0,
                                 noise_mode=NOISE_DIAGONAL, seed=0)
        persistence._last = None
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel:
            run_simulation(student, config, teacher_init_logits=teacher)
        assert kernel.call_count == calls

    @pytest.mark.parametrize("direction", [SUBLEVEL, SUPERLEVEL])
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("kinds", ["crr", "rcr", "rrc", "crs", "scrc", "1x1"])
    def test_grids_without_finite_dots_anywhere_in_a_batch(self, kinds, connectivity, direction):
        # c (constant) and s (a ramp falling in raster order) have no finite dot in either
        # direction, r (random) has many; the kernel output is split grid by grid.
        rng = np.random.default_rng(15)
        ramp = np.arange(72.0)[::-1].reshape(9, 8) / 71
        make = {"c": lambda: np.full((9, 8), 0.5), "s": lambda: ramp,
                "r": lambda: random_distinct_grid(rng, 9, 8)}
        grids = ([rng.random((1, 1)) for _ in range(3)] if kinds == "1x1"
                 else [make[kind]() for kind in kinds])
        persistence._last = None
        with mock.patch.object(persistence, "_pair", wraps=persistence._pair) as kernel:
            got = compute_diagrams(grids, direction, connectivity)
        assert kernel.call_count == 1
        for diagram, grid in zip(got, grids, strict=True):
            assert diagram == fresh_diagram(grid, direction, connectivity)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 3\) vs \(3, 2\)"):
            compute_diagrams([np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2))])

    def test_no_grids(self):
        assert compute_diagrams([]) == []


def _spread(n, modulus=257):
    """n distinct integers in [0, modulus) from integer arithmetic (modulus prime, n <= modulus)."""
    return np.arange(n) * 7919 % modulus


FROZEN_GRIDS = {
    "distinct-13x11": _spread(143).reshape(13, 11) / 256,
    "distinct-37x29": _spread(1073, 1201).reshape(37, 29) / 1200,
    "ties8-15x12": (_spread(180) % 8).reshape(15, 12) / 7,
    "row-1x23": (_spread(23) % 5).reshape(1, 23) / 4,
    "col-23x1": (_spread(23) % 5).reshape(23, 1) / 4,
    "single-1x1": np.array([[0.5]]),
    # Sublevel, 4-connected: the centre pixel kills the three younger arms at once.
    "kill3-3x3": np.array([[1.0, 0.25, 1.0], [0.25, 0.5, 0.25], [1.0, 0.25, 1.0]]),
    # Sublevel, 4-connected: the centre kills three of four arms, meeting their roots
    # in neither birth order nor lowest-neighbour-first order.
    "kill3-crossed-5x5": np.array([[1.0, 1.0, 0.1, 1.0, 1.0],
                                   [1.0, 1.0, 0.55, 1.0, 1.0],
                                   [0.25, 0.5, 0.9, 0.6, 0.2],
                                   [1.0, 1.0, 0.65, 1.0, 1.0],
                                   [1.0, 1.0, 0.15, 1.0, 1.0]]),
}

# SHA-256 of format_diagram_csv(compute_diagram(grid, direction, connectivity)),
# recorded with the earlier kernel that bounds-checked every neighbour and
# compared (value, pixel) pairs. The CSV lists dots in emission order, so these
# also pin the order of several dots killed at one pixel.
FROZEN_DIGESTS = {
    "distinct-13x11-sublevel-4": "80ab923c998f129fe96ed891c50b1b9895ab22b934a8172667dfa41c8e5bb0ad",
    "distinct-13x11-sublevel-8": "e1b0edd3cf58f3ff1c617be90eeafe5afb6ca8e0ba257492d1831bf5c47c0152",
    "distinct-13x11-superlevel-4": "5688cc7190a3b5f40126aac0a956ac0cdc722428cf17dc002fd8d359d51564cf",
    "distinct-13x11-superlevel-8": "03bc5b3b0ce75949109ba76c70953b7df58a2395ad22a0d99c12122416880d7f",
    "distinct-37x29-sublevel-4": "d84f573d5a22090ac6aab81df959f13337d1c697e2266dbaa35d1e6d1c5ce0e6",
    "distinct-37x29-sublevel-8": "4e751f0a330a69e93943709843b32df9596507b9bb31780861b38c081bc60714",
    "distinct-37x29-superlevel-4": "054b36523200085fd7ba3a0e9a94c1045738d2ac1687e57fd19ae4e6ad1f40b4",
    "distinct-37x29-superlevel-8": "8881b3ea82227d88e5e9b146654bed28072d98e3710a39422682922d1b741d26",
    "ties8-15x12-sublevel-4": "2e52bcf9759a84d7861370b8cf9ded2e388dee1489a06e5e33ee25392bfd8b7e",
    "ties8-15x12-sublevel-8": "a37f4edc0051f3d61b5b66ac9acac82ffd07c81e667f67f4db794cf28a5e6a02",
    "ties8-15x12-superlevel-4": "ee35905d3aa52e436c9c04db2ab3c07c27eab89194ea26cbfefc1ebd8a7cf91d",
    "ties8-15x12-superlevel-8": "ee35905d3aa52e436c9c04db2ab3c07c27eab89194ea26cbfefc1ebd8a7cf91d",
    "row-1x23-sublevel-4": "5dd0b07a6c253173b2218bec991d1a168d8643906fe8c6901e649b5fdebab966",
    "row-1x23-sublevel-8": "5dd0b07a6c253173b2218bec991d1a168d8643906fe8c6901e649b5fdebab966",
    "row-1x23-superlevel-4": "0d5115a95fcf1617385bbcbd5e802b1f88843728294aab72201fcead58ec00de",
    "row-1x23-superlevel-8": "0d5115a95fcf1617385bbcbd5e802b1f88843728294aab72201fcead58ec00de",
    "col-23x1-sublevel-4": "5dd0b07a6c253173b2218bec991d1a168d8643906fe8c6901e649b5fdebab966",
    "col-23x1-sublevel-8": "5dd0b07a6c253173b2218bec991d1a168d8643906fe8c6901e649b5fdebab966",
    "col-23x1-superlevel-4": "0d5115a95fcf1617385bbcbd5e802b1f88843728294aab72201fcead58ec00de",
    "col-23x1-superlevel-8": "0d5115a95fcf1617385bbcbd5e802b1f88843728294aab72201fcead58ec00de",
    "single-1x1-sublevel-4": "9fdb01589b8edcc2439a0aada4cfedf3bb07d40c0a29b905f3d098c22f3a549f",
    "single-1x1-sublevel-8": "9fdb01589b8edcc2439a0aada4cfedf3bb07d40c0a29b905f3d098c22f3a549f",
    "single-1x1-superlevel-4": "e979a3da000a630742d74beda7df38dd1d9b90c313e1b2d8fe9fe1cb764fc077",
    "single-1x1-superlevel-8": "e979a3da000a630742d74beda7df38dd1d9b90c313e1b2d8fe9fe1cb764fc077",
    "kill3-3x3-sublevel-4": "e139880f3c3baee97ba43c840ae4b4b9c57147f4a501181c07f25fb5233479de",
    "kill3-3x3-sublevel-8": "cd7b25a0f0fdd55fe0df4d8e05eb71cc97cb9f8e4b1e26809d13b40799422010",
    "kill3-3x3-superlevel-4": "f59670bf096e87cec674eae5a8706fec6507c9a14a677af863f67c6d3f64a765",
    "kill3-3x3-superlevel-8": "50197d01df526b1ce32e24d8ed81e0c9df4eb4c611137b0b6b1992cbe180b12a",
    # Recorded with the pixel-by-pixel union-find (now loop_diagram in _support).
    "kill3-crossed-5x5-sublevel-4": "afbd218460785279fdbb2f408a241005e002b27ac44e485f14c276f62fd35faf",
    "kill3-crossed-5x5-sublevel-8": "2e4f646798b262e68c41c42fea0094255eb789696b234b3d866da9f9e3b8f343",
    "kill3-crossed-5x5-superlevel-4": "346db41ec48ad228818a50fc4b8571b80e46ec492547678db5e1ecea212d00d0",
    "kill3-crossed-5x5-superlevel-8": "82537d763200e593558410b6567938071023e0d97b77800ffad4cf9fba11011c",
}


class TestFrozenBytes:
    @pytest.mark.parametrize("case", sorted(FROZEN_DIGESTS))
    def test_diagram_csv_digest(self, case):
        name, direction, connectivity = case.rsplit("-", 2)
        text = format_diagram_csv(compute_diagram(FROZEN_GRIDS[name], direction, int(connectivity)))
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_DIGESTS[case]

    def test_one_pixel_kills_three_in_neighbour_order(self):
        # Roots are met up, down, left, right; the elder is the arm with the smallest
        # pixel index (all arms tie at 0.25), and the others die in that order.
        dots = compute_diagram(FROZEN_GRIDS["kill3-3x3"]).dots
        assert [(d.birth_pixel, d.death_pixel) for d in dots] == [(7, 4), (3, 4), (5, 4), (1, None)]

    def test_one_pixel_kills_three_in_scan_order_not_pairwise(self):
        # Arms: up born 0.1 (pixel 2), down 0.15 (22), left 0.25 (10), right 0.2 (14). The
        # centre's scan meets up, down, left, right; up is the elder, the others die in
        # scan order. Merging one edge at a time would kill left first: 10, 22, 14 in
        # offset order, or 10, 14, 22 taking the lowest neighbour first.
        dots = compute_diagram(FROZEN_GRIDS["kill3-crossed-5x5"]).dots
        assert [d.birth_pixel for d in dots if d.death_pixel == 12] == [22, 10, 14]


ULP_CLOSE = sorted({float(x) for v in (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 1.0)
                    for x in (np.nextafter(v, 0), v, np.nextafter(v, 1))})


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

    def test_values_ulps_apart_below_one_half_stay_distinct(self):
        # 1 - v would round both 0.1 and the next float up to one value, and the tie would
        # make pixel 0 the elder.
        sup = compute_diagram([[0.1, 0.05, np.nextafter(0.1, 1)]], SUPERLEVEL)
        assert sup.birth_px.tolist() == [0, 2]
        assert sup.death_px.tolist() == [1, -1]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([4, 8]), st.data())
    def test_pixels_equal_sublevel_pixels_of_the_rank_reversed_grid(self, h, w, connectivity,
                                                                   data):
        cell = st.one_of(st.sampled_from(ULP_CLOSE), st.floats(0, 1))
        grid = np.array(data.draw(st.lists(cell, min_size=h * w, max_size=h * w))).reshape(h, w)
        # The same ties, in reverse value order: 0 for the largest value.
        reversed_ranks = np.unique(-grid.ravel(), return_inverse=True)[1].reshape(h, w)
        sup = compute_diagram(grid, SUPERLEVEL, connectivity)
        sub = compute_diagram(reversed_ranks / grid.size, SUBLEVEL, connectivity)
        assert np.array_equal(sup.birth_px, sub.birth_px)
        assert np.array_equal(sup.death_px, sub.death_px)

    def test_essential_death_is_zero(self):
        sup = compute_diagram([[0.2, 0.8], [0.6, 0.4]], SUPERLEVEL)
        assert sup.death[sup.essential].tolist() == [0.0]
        assert sup.birth[sup.essential].tolist() == [0.8]

    def test_persistence_uses_absolute_gap(self):
        sup = compute_diagram([[0.2, 0.8], [0.6, 0.4]], SUPERLEVEL)
        assert sup.persistence.tolist() == [abs(d - b) for b, d in zip(sup.birth, sup.death)]
        assert (sup.persistence >= 0.0).all()


class TestDiagramCsv:
    def test_round_trip(self, tmp_path):
        grid = random_distinct_grid(np.random.default_rng(43), 6, 6)
        diagram = compute_diagram(grid)
        path = tmp_path / "dgm.csv"
        save_diagram_csv(diagram, path)
        back = load_diagram_csv(path)
        assert np.allclose(back.birth, diagram.birth, rtol=0.0, atol=1e-9)
        assert np.allclose(back.death, diagram.death, rtol=0.0, atol=1e-9)
        assert np.array_equal(back.birth_px, diagram.birth_px)
        assert np.array_equal(back.death_px, diagram.death_px)

    def test_rows_render_reals_like_format_real(self):
        rng = np.random.default_rng(44)
        birth = np.concatenate((rng.random(50), [0.0, 1.0, 1e-300, 5e-324, 0.1 + 0.2]))
        death = rng.random(birth.size)
        death_px = np.append(rng.integers(0, 10**6, birth.size - 1), -1)
        diagram = PersistenceDiagram(birth, death, np.arange(birth.size), death_px)
        rows = format_diagram_csv(diagram).splitlines()[1:]
        assert rows == [f"{format_real(d.birth)},{format_real(d.death)},{d.birth_pixel},"
                        f"{'' if d.death_pixel is None else d.death_pixel},{int(d.death_pixel is None)}"
                        for d in diagram.dots]

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
        path = tmp_path / "dgm.csv"
        save_diagram_csv(diagram_from_dots([dot]), path)
        back = load_diagram_csv(path)
        assert back.dots == (dot,)
        assert back.essential.tolist() == [True]

    def test_padding_spaces_accepted(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_text("birth,death,birth_px,death_px,essential\n 0.1 ,0.9, 3 ,4,0\n")
        assert load_diagram_csv(path).dots == (PersistentDot(0.1, 0.9, 3, 4),)

    def test_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_bytes(b"\xff\xfebirth,death,birth_px,death_px,essential\n")
        with pytest.raises(GridFormatError, match=r"dgm\.csv: not UTF-8 text"):
            load_diagram_csv(path)

    @pytest.mark.parametrize("row", [
        "nan,0.9,0,1,0", "0.1,inf,0,1,0", "-inf,0.9,0,1,0", "-0.1,0.9,0,1,0",
        "0.1,1.5,0,1,0", "0.1,0.9,-1,1,0", "0.1,0.9,0,-2,0", "0.1,1,0,,2",
        "0.1,0.9,1_0,1,0", "0.1,0.9_0,0,1,0", "0_0.1,0.9,0,1,0", "0.1,0.9,0,1_1,0", "0.1,1,0,,0_1",
        "\u0660.1,0.9,0,1,0", "0.1,0.9,\u0661,2,0", "0.1,0.9,0,\uff12,0", "0.1,1,0,,\u0661",
    ])
    def test_rejects_invalid_values(self, tmp_path, row):
        path = tmp_path / "dgm.csv"
        path.write_text(f"birth,death,birth_px,death_px,essential\n{row}\n", encoding="utf-8")
        with pytest.raises(GridFormatError, match="line 2"):
            load_diagram_csv(path)

    @pytest.mark.parametrize("row", [
        "0.1,0.9,3,99999999999999999999999,0", "0.1,0.9,3,-99999999999999999999999,0",
        "0.1,0.9,99999999999999999999999,4,0", "0.1,0.9,3,4,99999999999999999999999",
        "0.1,0.9,3,9223372036854775808,0",
    ])
    def test_integers_past_int64_are_unparseable(self, tmp_path, row):
        path = tmp_path / "dgm.csv"
        path.write_text(f"birth,death,birth_px,death_px,essential\n0.1,0.9,3,4,0\n{row}\n")
        with pytest.raises(GridFormatError, match="line 3: unparseable diagram row$"):
            load_diagram_csv(path)

    def test_largest_int64_pixel_is_read(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_text("birth,death,birth_px,death_px,essential\n0.1,0.9,3,9223372036854775807,0\n")
        assert load_diagram_csv(path).death_px.tolist() == [2**63 - 1]

    def test_quoted_fields_and_empty_death_pixel(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_text('"birth",death,birth_px,death_px,essential\r\n'
                        '"0.1",0.9,"3","4\n",0\r\n0.25,1,7,"",1\r\n')
        back = load_diagram_csv(path)
        assert back.dots == (PersistentDot(0.1, 0.9, 3, 4), PersistentDot(0.25, 1.0, 7))
        assert back.birth.flags.c_contiguous and back.death_px.dtype == np.int64

    def test_empty_line_inside_quotes_is_part_of_the_field(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_text('birth,death,birth_px,death_px,essential\n"0.1\n\n",0.9,3,4,0\n')
        assert load_diagram_csv(path).dots == (PersistentDot(0.1, 0.9, 3, 4),)

    @pytest.mark.parametrize("text, message", [
        ("0.1,0.9,3,4,0\n\n0.2,0.9,3,4,0\n", "line 3: expected 5 columns, got 0"),
        ("0.1,0.9,3,4,0\r\n\r\n", "line 3: expected 5 columns, got 0"),
        ("0.1,0.9,3,4,0\r\r", "line 3: expected 5 columns, got 0"),
        ("0.1,0.9,3,4,0\n0.1,1.5,3,4,0\n0.1,0.9,x,4,0\n", "line 3: birth/death outside"),
        ("0.1,0.9,3,4,0\n0.1,0.9,x,4,0\n0.1,1.5,3,4,0\n", "line 3: unparseable diagram row"),
        ("0.1,1,3,, 2\n", "line 2: essential must be 0 or 1, got ' 2'"),
        ("0.1,0.9,3,4\x1f,0\n", "line 2: unparseable diagram row"),
        ('"0.1\n",0.9,3,4,0\n0.2,0.9,-3,4,0\n', "line 3: negative pixel index"),
        ('0.1,0.9,3,4,0\n0.1,0.9,"3""",4,0\n0.1,0.9,3,"4"",""0",0\n', "line 3: unparseable"),
    ])
    def test_first_bad_row_is_named(self, tmp_path, text, message):
        path = tmp_path / "dgm.csv"
        path.write_text("birth,death,birth_px,death_px,essential\n" + text, newline="")
        with pytest.raises(GridFormatError, match=re.escape(message)):
            load_diagram_csv(path)

    def test_field_over_the_csv_size_limit_rejected(self, tmp_path):
        path = tmp_path / "dgm.csv"
        path.write_text("birth,death,birth_px,death_px,essential\n"
                        f"0.1,0.{'0' * csv.field_size_limit()}9,3,4,0\n")
        with pytest.raises(GridFormatError, match="field larger than field limit"):
            load_diagram_csv(path)

    # Bad rows at CHUNK and 2 * CHUNK, give or take one, and one far into the file.
    @pytest.mark.parametrize("bad", [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, 2500])
    def test_first_bad_row_of_a_long_file(self, tmp_path, bad):
        rows = [f"0.1,0.9,{i},{i + 1},0" for i in range(3000)]
        rows[bad] = f"0.1,0.9,{bad},-1,0"
        rows[bad + 1] = "0.1,1.5,0,1,0"  # the next row is bad too: the first is named
        path = tmp_path / "dgm.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n")
        with pytest.raises(GridFormatError, match=f"line {bad + 2}: negative pixel index"):
            load_diagram_csv(path)

    @pytest.mark.parametrize("n, multiline", [(CHUNK, False), (CHUNK + 1, False),
                                              (2 * CHUNK + 1, False), (2 * CHUNK + 1, True)])
    def test_files_of_several_chunks_read_like_the_old_parser(self, tmp_path, n, multiline):
        rows = [f"{(i % 97) / 97:.9g},1,{i},,1" if i % 5 == 0 else
                f"{(i % 89) / 97:.9g},{(i % 89 + 8) / 97:.9g},{i},{3 * i + 1},0" for i in range(n)]
        if multiline:  # quoted fields with line breaks in two adjacent rows
            rows[CHUNK - 1] = f'"0.25\n\n",0.75,{CHUNK - 1},"7\r\n",0'
            rows[CHUNK] = f'"0.5\r\n",1,{CHUNK},"",1'
        path = tmp_path / "dgm.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n", newline="")
        new, old = load_diagram_csv(path), reference_diagram_csv(path)
        assert len(new) == n
        for a, b in zip(vars(new).values(), vars(old).values()):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    # The whole file is read before a header or row error is raised, so a non-UTF-8 byte
    # or a field over csv's size limit after the bad row is reported instead.
    @pytest.mark.parametrize("head, tail, message", [
        (HEADER + "0.1,1.5,3,4,0\n", b"\xff\n", "not UTF-8 text"),
        ("birth,death\n", b"\xff\n", "not UTF-8 text"),
        (HEADER + "0.1,1.5,3,4,0\n", f"0.1,0.{'0' * csv.field_size_limit()}9,3,4,0\n".encode(),
         "field larger than field limit"),
        (HEADER + f"0.1,0.{'0' * csv.field_size_limit()}9,3,4,0\n", b"\xff\n", "not UTF-8 text"),
    ], ids=["bad-row/non-utf8", "bad-header/non-utf8", "bad-row/over-limit", "over-limit/non-utf8"])
    def test_a_later_encoding_or_field_limit_error_wins(self, tmp_path, head, tail, message):
        filler = "".join(f"0.1,0.9,{i},{i + 1},0\n" for i in range(3 * CHUNK))
        path = tmp_path / "dgm.csv"
        path.write_bytes((head + filler).encode() + tail)
        with pytest.raises(GridFormatError, match=re.escape(f"dgm.csv: {message}")):
            load_diagram_csv(path)

    def test_peak_memory_of_a_long_file(self, tmp_path):
        # A whole-file parse of this 2 MB file (decode, then one np.loadtxt over a structured
        # dtype with an object column) peaked at 27.5 MiB; a row at a time peaks at 2.0.
        rng = np.random.default_rng(5)
        n = 60_000
        birth = rng.random(n)
        death_px = np.append(rng.integers(0, 10**6, n - 1), -1)
        death = np.where(death_px < 0, 1.0, np.minimum(birth + rng.random(n), 1.0))
        path = tmp_path / "dgm.csv"
        save_diagram_csv(PersistenceDiagram(birth, death, np.arange(n), death_px), path)
        tracemalloc.start()
        try:
            assert len(load_diagram_csv(path)) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


REALS = ["0", "1", " 0.5 ", "\t0.25", "+0.5", ".5", "1e-3", "nan", "inf", "1.5", "-0.1", "",
         "0.2_5", "\u0660.5", "0.5\u00a0", "0.5\x1f", "x", "0.5\n"]
PIXELS = ["0", "7", " 3 ", "+3", "007", "-0", "-1", "", "1_0", "\u0661", "9223372036854775807",
          "9223372036854775808", "99999999999999999999999", "-99999999999999999999999", "4\n", "x"]
FLAGS = ["0", "1", "2", " 1", "1 ", "x", "", "1_0"]
OVERFLOW = re.compile(r"\s*[-+]?0*[1-9][0-9]{18,}\s*")


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def diagram_rows(draw):
    if draw(st.sampled_from([True, True, False])):  # a valid row
        birth = draw(st.floats(0, 1))
        death = draw(st.floats(birth, 1))
        essential = draw(st.booleans())
        cells = [repr(birth), f"{death:.9g}", str(draw(st.integers(0, 10**6))),
                 "" if essential else str(draw(st.integers(0, 10**6))), str(int(essential))]
    else:
        cells = [draw(st.sampled_from(REALS)), draw(st.sampled_from(REALS)),
                 draw(st.sampled_from(PIXELS)), draw(st.sampled_from(PIXELS)),
                 draw(st.sampled_from(FLAGS))]
        cells = cells[:draw(st.sampled_from([5, 5, 5, 4, 0]))] + [""] * draw(st.sampled_from([0, 0, 1]))
    quoted = st.booleans() if draw(st.booleans()) else st.just(False)
    return ",".join(_quote(c) if draw(quoted) or "\n" in c else c for c in cells)


@st.composite
def diagram_files(draw):
    header = draw(st.sampled_from(["birth,death,birth_px,death_px,essential"] * 4 + [
        '"birth",death,birth_px,death_px,essential', "birth,death", ""]))
    rows = draw(st.lists(diagram_rows(), max_size=5))
    breaks = st.sampled_from(["\n", "\r\n"] if draw(st.booleans()) else ["\n", "\r\n", "\r", "\n\n"])
    return "".join(line + draw(breaks) for line in [header, *rows]).encode("utf-8")


def _diagram_outcome(read, content: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(content)
        try:
            return read(path)
        except (GridFormatError, OverflowError) as exc:
            return type(exc).__name__, str(exc).replace(str(path), "F")


class TestDiagramCsvAgainstTheOldParser:
    """load_diagram_csv gives the columns and the messages of the old whole-file parser.

    Both split rows with csv.reader and read them with float() and int(), refusing "_" and
    non-ASCII text. The old one (reference_diagram_csv) listed every row first and checked
    each row's text as a whole; the loader reads one row at a time and checks each cell.
    The intended difference: an integer past int64 makes its row unparseable. The old
    parser read it, so it failed later: at a check of that row or of a later one, or
    with an OverflowError once every row had passed.
    """

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(diagram_files())
    def test_diagram_csvs(self, content):
        new = _diagram_outcome(load_diagram_csv, content)
        old = _diagram_outcome(reference_diagram_csv, content)
        event("loaded" if isinstance(old, PersistenceDiagram) else old[0])
        if isinstance(old, PersistenceDiagram):
            assert isinstance(new, PersistenceDiagram)
            for a, b in zip(vars(new).values(), vars(old).values()):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        elif new != old:
            line = int(re.fullmatch(r"F: line (\d+): unparseable diagram row", new[1])[1])
            rows = list(csv.reader(io.StringIO(content.decode(), newline="")))
            assert any(OVERFLOW.fullmatch(cell) for cell in rows[line - 1])
            # The old parser read such a row and failed later, at a check or at the end.
            assert old[0] == "OverflowError" or int(re.match(r"F: line (\d+)", old[1])[1]) >= line
