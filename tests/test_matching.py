"""Diagram matching: Wasserstein, bottleneck, and assignment optimality."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from topokit import matching
from topokit.matching import (
    DIAGONAL,
    _adjacency,
    _augmented,
    _dot_block,
    _hopcroft_karp,
    match_diagrams,
)
from topokit.persistence import PersistenceDiagram

from _support import (
    brute_assignment_cost,
    brute_bottleneck,
    brute_wasserstein,
    diagram_from_pairs,
    oracle_augmented,
    oracle_bottleneck,
    random_diagram_pairs,
    scipy_bottleneck,
)


class TestFrozenExamples:
    def test_single_pair_w2(self):
        left = diagram_from_pairs([(0.2, 0.9)])
        right = diagram_from_pairs([(0.25, 0.85)])
        result = match_diagrams(left, right, 2)
        assert result.cost == pytest.approx(math.hypot(0.05, 0.05), abs=1e-15)
        assert result.cost == pytest.approx(0.07071067811865477, abs=1e-15)
        assert result.pairs.tolist() == [[0, 0]]

    def test_identity_is_exact_zero(self):
        diagram = diagram_from_pairs([(0.1, 0.9), (0.3, 0.5)])
        for p in (1, 2, 3, math.inf):
            assert match_diagrams(diagram, diagram, p).cost == 0.0

    def test_single_dot_against_empty(self):
        left = diagram_from_pairs([(0.1, 0.9)])
        result = match_diagrams(left, diagram_from_pairs([]), 2)
        assert result.cost == pytest.approx(0.8 / math.sqrt(2), abs=1e-15)
        assert result.cost == pytest.approx(0.565685424949238, abs=1e-12)
        assert result.pairs.tolist() == [[0, DIAGONAL]]

    def test_both_empty(self):
        result = match_diagrams(diagram_from_pairs([]), diagram_from_pairs([]), 2)
        assert result.cost == 0.0
        assert result.pairs.shape == (0, 2)

    def test_bottleneck_single_pair(self):
        left = diagram_from_pairs([(0.2, 0.9)])
        right = diagram_from_pairs([(0.25, 0.85)])
        assert match_diagrams(left, right, math.inf).cost == pytest.approx(0.05, abs=1e-12)

    def test_bottleneck_against_empty_uses_half_gap(self):
        left = diagram_from_pairs([(0.2, 0.9)])
        result = match_diagrams(left, diagram_from_pairs([]), math.inf)
        assert result.cost == pytest.approx(0.35, abs=1e-12)


class TestLargeOrder:
    @pytest.mark.parametrize("p", [2100, 5000])
    def test_powers_below_the_float_range(self, p):
        # 0.608 ** 2100 underflows to 0.0; the costs are rescaled by their largest entry.
        left, right = diagram_from_pairs([(0.1, 0.9)]), diagram_from_pairs([(0.2, 0.3)])
        assert match_diagrams(left, right, p).cost == pytest.approx(0.8 / math.sqrt(2), abs=1e-9)

    def test_powers_above_the_float_range(self):
        left = diagram_from_pairs([(0.0, 100.0)])  # gap 70.7; 70.7 ** 200 overflows
        assert match_diagrams(left, diagram_from_pairs([]), 200).cost == \
            pytest.approx(100.0 / math.sqrt(2), rel=1e-12)

    def test_optimal_powers_far_below_the_largest_cost(self):
        # Scaled by the dot-dot distance 0.608, both diagonal gaps still underflow at
        # p=11000; the total is recomputed in units of the largest assigned distance.
        left, right = diagram_from_pairs([(0.1, 0.9)]), diagram_from_pairs([(0.2, 0.3)])
        assert match_diagrams(left, right, 11000).cost == pytest.approx(0.8 / math.sqrt(2), abs=1e-9)

    def test_two_equal_diagonal_gaps_far_below_the_dot_distance(self):
        # Two gaps of 1/sqrt(2) against a dot-dot distance of sqrt(2) at p=3000.
        left, right = diagram_from_pairs([(0.0, 1.0)]), diagram_from_pairs([(1.0, 0.0)])
        assert match_diagrams(left, right, 3000).cost == \
            pytest.approx(2.0 ** (1.0 / 3000) / math.sqrt(2), rel=1e-12)

    def test_ordinary_order_is_not_rescaled(self):
        left, right = diagram_from_pairs([(0.1, 0.9)]), diagram_from_pairs([(0.2, 0.3)])
        assert match_diagrams(left, right, 1000).cost == 0.565685424949238


class TestPairStructure:
    def test_every_dot_used_once(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            lp = random_diagram_pairs(rng, 4)
            rp = random_diagram_pairs(rng, 4)
            result = match_diagrams(diagram_from_pairs(lp), diagram_from_pairs(rp), 2)
            lefts, rights = result.pairs.T
            assert sorted(lefts[lefts != DIAGONAL].tolist()) == list(range(len(lp)))
            assert sorted(rights[rights != DIAGONAL].tolist()) == list(range(len(rp)))
            assert not (result.pairs == DIAGONAL).all(axis=1).any()

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_pairs_are_a_read_only_int64_array_in_the_documented_order(self, p):
        rng = np.random.default_rng(52)
        for _ in range(30):
            lp = random_diagram_pairs(rng, 5)
            rp = random_diagram_pairs(rng, 5)
            pairs = match_diagrams(diagram_from_pairs(lp), diagram_from_pairs(rp), p).pairs
            assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
            with pytest.raises(ValueError):
                pairs[0:1] = 0
            # W_p: every left dot in index order, then right dots sent to the diagonal;
            # the bottleneck: every right dot in column order, then left dots sent there.
            first, second = pairs.T if p != math.inf else pairs.T[::-1]
            head = len(lp) if p != math.inf else len(rp)
            assert first[:head].tolist() == list(range(head))
            assert (first[head:] == DIAGONAL).all()
            assert (np.diff(second[head:]) > 0).all()

    def test_cost_consistent_with_pairs(self):
        rng = np.random.default_rng(53)
        for p in (1.0, 2.0, 3.0):
            lp = random_diagram_pairs(rng, 4)
            rp = random_diagram_pairs(rng, 4)
            result = match_diagrams(diagram_from_pairs(lp), diagram_from_pairs(rp), p)
            total = 0.0
            for li, ri in result.pairs:
                if li == DIAGONAL:
                    b, d = rp[ri]
                    total += ((d - b) / math.sqrt(2)) ** p
                elif ri == DIAGONAL:
                    b, d = lp[li]
                    total += ((d - b) / math.sqrt(2)) ** p
                else:
                    (lb, ld), (rb, rd) = lp[li], rp[ri]
                    total += math.hypot(lb - rb, ld - rd) ** p
            assert result.cost == pytest.approx(total ** (1 / p), abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(55)
        lp = random_diagram_pairs(rng, 4)
        rp = random_diagram_pairs(rng, 4)
        a = match_diagrams(diagram_from_pairs(lp), diagram_from_pairs(rp), 2)
        b = match_diagrams(diagram_from_pairs(lp), diagram_from_pairs(rp), 2)
        assert a.pairs.tolist() == b.pairs.tolist()
        assert a.cost == b.cost


class TestOptimality:
    def test_wasserstein_matches_brute_force(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 60:
            lp = random_diagram_pairs(rng, 3)
            rp = random_diagram_pairs(rng, 3)
            if len(lp) + len(rp) > 6:
                continue
            checked += 1
            for p in (1.0, 2.0, 3.0):
                got = match_diagrams(diagram_from_pairs(lp), diagram_from_pairs(rp), p)
                assert got.cost == pytest.approx(brute_wasserstein(lp, rp, p), abs=1e-9)

    def test_bottleneck_matches_brute_force(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            lp = random_diagram_pairs(rng, 3)
            rp = random_diagram_pairs(rng, 3)
            got = match_diagrams(diagram_from_pairs(lp), diagram_from_pairs(rp), math.inf)
            assert got.cost == pytest.approx(brute_bottleneck(lp, rp), abs=1e-12)

    def test_assignment_solver_matches_permutation_minimum(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            size = int(rng.integers(1, 9))
            cost = rng.integers(0, 50, (size, size))
            rows, cols = linear_sum_assignment(cost)
            assert float(cost[rows, cols].sum()) == brute_assignment_cost(cost)


def grid_shaped_dots(rng, k: int, quantized: bool) -> np.ndarray:
    """k (birth, death) rows shaped like a grid's sublevel diagram, essential dot last.

    Random grids give no zero-persistence dot; on 8-bit grids most dots are born and
    die on one plateau level, so birth == death.
    """
    birth = rng.uniform(0.0, 0.6, k)
    life = rng.uniform(0.002, 0.35, k)
    if quantized:
        birth = np.rint(birth * 255) / 255
        life = np.where(rng.random(k) < 0.85, 0.0, np.rint(life * 255) / 255)
    death = np.minimum(birth + life, 1.0)
    birth[-1], death[-1] = birth.min(), 1.0
    return np.stack([birth, death], axis=1)


def assert_oracle_bottleneck(left, right):
    got = match_diagrams(diagram_from_pairs(left), diagram_from_pairs(right), math.inf)
    pairs, cost = oracle_bottleneck(np.reshape(left, (-1, 2)), np.reshape(right, (-1, 2)))
    assert got.cost == cost
    assert got.pairs.shape == pairs.shape and got.pairs.tobytes() == pairs.tobytes()


@st.composite
def bottleneck_sides(draw):
    """Two sides of 0-8 dots: on a 1/4, 1/8 or 1/255 grid (ties) or continuous, some with
    birth == death; the right side independent, equal to the left, sharing some of its
    dots, or all zero-persistence."""
    steps = draw(st.sampled_from([4, 8, 255, None]))
    value = st.integers(0, steps).map(lambda v: v / steps) if steps else st.floats(0.0, 1.0)

    def side():
        dots = draw(st.lists(st.tuples(value, value, st.booleans()), max_size=8))
        return [(min(a, b), min(a, b) if zero else max(a, b)) for a, b, zero in dots]

    left = side()
    kind = draw(st.sampled_from(["independent", "equal", "shared", "all-zero"]))
    if kind == "equal":
        right = list(left)
    elif kind == "shared":
        right = side() + draw(st.permutations(left))[:draw(st.integers(0, len(left)))]
    else:
        right = side()
        if kind == "all-zero":
            right = [(b, b) for b, _ in right]
    return left, right


class TestBottleneckAgainstTheFullGraphSearch:
    """Cost and pairs bit-equal to the binary search over the whole augmented graph."""

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("sizes", [(50, 50), (200, 200), (400, 400), (400, 150)],
                             ids=lambda sizes: "%dx%d" % sizes)
    def test_grid_shaped_diagrams(self, sizes, quantized):
        rng = np.random.default_rng(sum(sizes) + quantized)
        assert_oracle_bottleneck(*(grid_shaped_dots(rng, k, quantized) for k in sizes))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(bottleneck_sides())
    def test_small_diagrams_ties_and_empty_sides(self, sides):
        left, right = sides
        assume(left or right)
        assert_oracle_bottleneck(left, right)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_one_augmented_size_matching_per_call(self, quantized):
        # The threshold search probes the n x m dot graph only; Hopcroft-Karp runs on the
        # (n+m)^2 augmented graph once, at the optimum, for the pairs.
        rng = np.random.default_rng(83)
        left, right = grid_shaped_dots(rng, 200, quantized), grid_shaped_dots(rng, 150, quantized)
        with mock.patch.object(matching, "_hopcroft_karp", wraps=_hopcroft_karp) as solver:
            match_diagrams(diagram_from_pairs(left), diagram_from_pairs(right), math.inf)
        shapes = [(len(call.args[0]), call.args[1]) for call in solver.call_args_list]
        assert len(shapes) > 1  # the search probed
        assert shapes.count((350, 350)) == 1 and shapes[-1] == (350, 350)
        assert all(rows <= 200 and cols <= 200 for rows, cols in shapes[:-1])


COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0))
DOT = st.one_of(st.tuples(COORDINATE, COORDINATE), COORDINATE.map(lambda v: (v, v)))


@st.composite
def dot_sides(draw):
    """Two sides of 0-30 (birth, death) dots, some with birth == death, some repeated
    within a side or on both sides."""
    def side(pool):
        dots = draw(st.lists(DOT, max_size=30))
        if pool:
            dots += draw(st.lists(st.sampled_from(pool), max_size=30 - len(dots)))
        return dots

    left = side([])
    return left, side(left)


def assert_oracle_augmented(left, right, chebyshev):
    """W_p's whole matrix, or the bottleneck's Chebyshev dot block, against the oracle."""
    lpts, rpts = (np.reshape(np.array(side, np.float64), (-1, 2)) for side in (left, right))
    want = oracle_augmented(lpts, rpts, chebyshev)
    if chebyshev:
        got, want = _dot_block(lpts, rpts, True), want[:lpts.shape[0], :rpts.shape[0]]
    else:
        got = _augmented(lpts, rpts)
    assert np.array_equal(got, want)  # inf cells included
    assert got.tobytes() == want.tobytes()  # 0.0 and -0.0 too


class TestAugmentedMatrix:
    """The in-place builds equal the (n, m, 2) broadcast formula bit for bit: W_p's whole
    (n+m)^2 matrix and the bottleneck's n x m Chebyshev block."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dot_sides(), st.booleans())
    def test_small_sides_ties_and_signed_zeros(self, sides, chebyshev):
        assert_oracle_augmented(*sides, chebyshev)

    @pytest.mark.parametrize("chebyshev", [False, True])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_grid_shaped_diagrams(self, quantized, chebyshev):
        rng = np.random.default_rng(90 + quantized)
        assert_oracle_augmented(grid_shaped_dots(rng, 800, quantized),
                                grid_shaped_dots(rng, 300, quantized), chebyshev)


@st.composite
def masks(draw):
    """0-12 x 0-12 boolean masks: random cells with some all-False rows, all True or all
    False, sometimes a transposed (Fortran-ordered) view."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    fill = draw(st.sampled_from(["cells", "all-true", "all-false"]))
    mask = np.full((rows, cols), fill == "all-true")
    if fill == "cells":
        mask[...] = np.reshape(draw(st.lists(st.booleans(), min_size=rows * cols,
                                             max_size=rows * cols)), (rows, cols))
        if rows:
            mask[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = False
    return np.ascontiguousarray(mask.T).T if draw(st.booleans()) else mask


def assert_scipy_matching(adjacency, mask, block=()):
    """_hopcroft_karp on the listed graph returns both of scipy's outputs on the whole mask."""
    col_of, row_of = _hopcroft_karp(adjacency, mask.shape[1], block)
    graph = csr_matrix(mask)
    assert col_of == maximum_bipartite_matching(graph, perm_type="column").tolist()
    assert row_of == maximum_bipartite_matching(graph, perm_type="row").tolist()


class TestHopcroftKarp:
    """_hopcroft_karp finds the matching scipy's maximum_bipartite_matching finds."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(masks())
    @example(np.zeros((0, 5), bool))
    @example(np.zeros((5, 0), bool))
    @example(np.zeros((0, 0), bool))
    @example(np.ones((7, 4), bool))
    @example(np.ones((12, 12), bool))
    @example(np.zeros((3, 6), bool))
    @example(np.eye(6, dtype=bool)[[0, 0, 2, 5]])
    @example(np.tile([True, False, True, True], (9, 1)))
    def test_the_matching_scipy_finds(self, mask):
        adjacency = _adjacency(mask)
        assert adjacency == [np.flatnonzero(row).tolist() for row in mask]
        assert_scipy_matching(adjacency, mask)

    def test_random_graphs_up_to_40_square(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            rows, cols = rng.integers(0, 41, 2)
            mask = rng.random((rows, cols)) < rng.uniform(0.0, 0.5)
            assert_scipy_matching(_adjacency(mask), mask)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(bottleneck_sides())
    def test_augmented_graphs_at_every_threshold(self, sides):
        # Copy rows list only their dot column; the complete copy-to-copy block is implicit.
        left, right = (np.reshape(np.array(side, np.float64), (-1, 2)) for side in sides)
        n, m = len(left), len(right)
        dist = oracle_augmented(left, right, chebyshev=True)
        for d in np.unique(dist[np.isfinite(dist)]):
            mask = dist <= d
            assert mask[n:, m:].all()
            adjacency = ([np.flatnonzero(row).tolist() for row in mask[:n]]
                         + [np.flatnonzero(row[:m]).tolist() for row in mask[n:]])
            assert_scipy_matching(adjacency, mask, (n, m))


def assert_scipy_bottleneck(left, right):
    lpts, rpts = (np.reshape(np.array(side, np.float64), (-1, 2)) for side in (left, right))
    got = match_diagrams(diagram_from_pairs(lpts), diagram_from_pairs(rpts), math.inf)
    pairs, cost = scipy_bottleneck(lpts, rpts)
    assert np.float64(got.cost).tobytes() == np.float64(cost).tobytes()
    assert got.pairs.shape == pairs.shape and got.pairs.tobytes() == pairs.tobytes()


class TestBottleneckAgainstScipy:
    """Cost and pairs bit-equal to the same search with scipy's Hopcroft-Karp."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dot_sides())
    # Optimum 0: a gap or a dot-to-dot entry, +0.0 whatever the signs of the coordinates,
    # stands for the 0 that joins two diagonal copies, which is no candidate.
    @example(([], [(0.0, -0.0), (-0.0, -0.0), (0.5, 0.5)]))
    @example(([(-0.0, 0.0), (0.25, 0.25)], []))
    @example(([(-0.0, 0.0), (1.0, 1.0)], [(0.0, -0.0), (-0.0, -0.0), (0.25, 0.25)]))
    @example(([(-0.0, 1.0)], [(-0.0, 1.0)]))
    def test_small_sides_ties_and_signed_zeros(self, sides):
        assume(sides[0] or sides[1])
        assert_scipy_bottleneck(*sides)

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("k", [50, 200, 400, 800])
    def test_grid_shaped_diagrams(self, k, quantized):
        rng = np.random.default_rng(k + quantized)
        assert_scipy_bottleneck(grid_shaped_dots(rng, k, quantized),
                                grid_shaped_dots(rng, k, quantized))


def traced_matching_peak(left, right, p) -> int:
    """tracemalloc's peak over one match_diagrams call, its solver module already loaded."""
    left, right = diagram_from_pairs(left), diagram_from_pairs(right)
    match_diagrams(left, right, p)
    tracemalloc.start()
    try:
        match_diagrams(left, right, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_wasserstein_holds_the_matrix_and_one_block(self):
        # The (n, m, 2) difference array, its square and their sum took the peak to
        # 43.97 MiB here. Built in place, the 19.5 MiB matrix and one 4.9 MiB n x m
        # temporary peak at 24.56 MiB.
        n = m = 800
        rng = np.random.default_rng(0)
        peak = traced_matching_peak(grid_shaped_dots(rng, n, False),
                                    grid_shaped_dots(rng, m, False), 2.0)
        assert peak < (n + m) ** 2 * 8 + 1.5 * n * m * 8

    @pytest.mark.parametrize("k, quantized, bound_mib", [(400, False, 6.5), (800, True, 22.0)],
                             ids=["random-400", "quantized-800"])
    def test_bottleneck_holds_no_augmented_matrix(self, k, quantized, bound_mib):
        # Built from a dense (n+m)^2 matrix, random 400/400 peaked at 7.20 MiB and quantized
        # 800/800 at 25.95 MiB. From the n x m block and two gap vectors: 3.54 and 12.83 MiB.
        rng = np.random.default_rng(0)
        peak = traced_matching_peak(grid_shaped_dots(rng, k, quantized),
                                    grid_shaped_dots(rng, k, quantized), math.inf)
        assert peak < bound_mib * 2**20


class TestMetricAxioms:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(73)
        for p in (1.0, 2.0, math.inf):
            for _ in range(25):
                a = diagram_from_pairs(random_diagram_pairs(rng, 4))
                b = diagram_from_pairs(random_diagram_pairs(rng, 4))
                c = diagram_from_pairs(random_diagram_pairs(rng, 4))
                ab = match_diagrams(a, b, p).cost
                ba = match_diagrams(b, a, p).cost
                ac = match_diagrams(a, c, p).cost
                cb = match_diagrams(c, b, p).cost
                assert abs(ab - ba) <= 1e-9
                assert ab <= ac + cb + 1e-9


class TestArgumentValidation:
    def test_p_below_one_rejected(self):
        d = diagram_from_pairs([(0.1, 0.2)])
        with pytest.raises(ValueError):
            match_diagrams(d, d, 0.5)

    def test_nan_rejected(self):
        d = diagram_from_pairs([(0.1, 0.2)])
        with pytest.raises(ValueError):
            match_diagrams(d, d, float("nan"))

    @pytest.mark.parametrize("p", [2.0, math.inf])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["birth", "death"])
    def test_non_finite_dot_rejected(self, p, side, bad, field):
        good = diagram_from_pairs([(0.1, 0.2), (0.3, 0.9)])
        dot = (bad, 0.9) if field == "birth" else (0.3, bad)
        broken = diagram_from_pairs([(0.1, 0.2), dot])
        left, right = (broken, good) if side == "left" else (good, broken)
        with pytest.raises(ValueError, match=f"{side} dot 1 has a non-finite"):
            match_diagrams(left, right, p)

    def test_non_finite_dot_message_shows_floats(self):
        broken = diagram_from_pairs([(0.1, 0.2), (math.nan, 0.9)])
        with pytest.raises(ValueError) as exc:
            match_diagrams(broken, broken)
        assert str(exc.value) == "left dot 1 has a non-finite birth or death: (nan, 0.9)"


def many_dots(count: int) -> PersistenceDiagram:
    return PersistenceDiagram(np.full(count, 0.25), np.full(count, 0.75),
                              np.arange(count), np.arange(1, count + 1))


class TestSizeGuard:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_oversized_pair_rejected_before_allocating(self, p):
        # 6000 + 6000 dots would need a 12000^2 float64 matrix: 1.15 GB, over the 1 GiB limit.
        left, right = many_dots(6000), many_dots(6000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"6000 against 6000 dots needs a 1152000000-byte"):
                match_diagrams(left, right, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_one_side_past_the_limit_rejected(self):
        # 11585^2 * 8 bytes is just under 1 GiB, 11586^2 * 8 just over.
        with pytest.raises(ValueError, match="0 against 11586 dots"):
            match_diagrams(many_dots(0), many_dots(11586))
