"""Signal/noise decomposition."""

import math

import pytest

from topokit.diagram import decompose

from _support import diagram_from_pairs, dot_tuples


def pairs(diagram):
    return list(zip(diagram.birth.tolist(), diagram.death.tolist()))


def make_diagram():
    # persistences 0.9 (essential), 0.7, 0.05
    return diagram_from_pairs([(0.1, 1.0), (0.2, 0.9), (0.4, 0.45)], essential_index=0)


class TestPersistenceOf:
    def test_plain_dot(self):
        assert diagram_from_pairs([(0.2, 0.9)]).persistence.tolist() == [pytest.approx(0.7)]

    def test_diagonal_dot(self):
        assert diagram_from_pairs([(0.5, 0.5)]).persistence.tolist() == [0.0]

    def test_essential_dot(self):
        diagram = diagram_from_pairs([(0.2, 0.4), (0.1, 1.0)], essential_index=1)
        assert diagram.essential.tolist() == [False, True]
        assert diagram.persistence.tolist() == [pytest.approx(0.2), pytest.approx(0.9)]


class TestDecompose:
    def test_worked_example(self):
        dec = decompose(make_diagram(), 0.2)
        assert pairs(dec.signal) == [(0.1, 1.0), (0.2, 0.9)]
        assert pairs(dec.noise) == [(0.4, 0.45)]
        assert dec.phi == 0.2

    def test_partition_is_exact(self):
        diagram = make_diagram()
        dec = decompose(diagram, 0.2)
        assert sorted(dot_tuples(dec.signal) + dot_tuples(dec.noise)) == dot_tuples(diagram)

    def test_phi_zero_noise_only_zero_persistence(self):
        dec = decompose(diagram_from_pairs([(0.3, 0.3), (0.2, 0.8)]), 0.0)
        assert pairs(dec.noise) == [(0.3, 0.3)]
        assert pairs(dec.signal) == [(0.2, 0.8)]

    def test_phi_one_signal_empty(self):
        dec = decompose(make_diagram(), 1.0)
        assert len(dec.signal) == 0
        assert len(dec.noise) == 3

    def test_persistence_equal_phi_is_noise(self):
        dec = decompose(diagram_from_pairs([(0.2, 0.9)]), 0.7)
        assert len(dec.signal) == 0
        assert len(dec.noise) == 1

    def test_negative_phi_rejected(self):
        with pytest.raises(ValueError):
            decompose(make_diagram(), -0.1)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(ValueError, match="finite"):
            decompose(make_diagram(), phi)

    def test_monotone_in_phi(self):
        diagram = diagram_from_pairs(
            [(0.1, 0.95), (0.2, 0.6), (0.3, 0.4), (0.5, 0.55)]
        )
        prev = None
        for phi in (0.0, 0.05, 0.3, 0.5, 0.9):
            signal = set(pairs(decompose(diagram, phi).signal))
            if prev is not None:
                assert signal <= prev
            prev = signal

    def test_essential_participates_normally(self):
        diagram = diagram_from_pairs([(0.5, 1.0)], essential_index=0)
        assert len(decompose(diagram, 0.7).noise) == 1
        assert len(decompose(diagram, 0.3).signal) == 1
