from __future__ import annotations

import math
import random

import numpy as np
import pytest

from f2rank.products import SignMatrix, sign_map
from f2rank.spectral import (
    Spectrum,
    analytic_spectrum,
    graph_spectrum,
    is_hadamard,
    sign_spectrum_expected,
    symmetric_spectrum,
)
from f2rank.constructions import g2, g2_power

from conftest import random_graph


def test_spectrum_type():
    s = Spectrum.from_pairs([(0.0, 1), (2.0, 1), (-1.0, 2)])
    assert s.entries == ((2.0, 1), (0.0, 1), (-1.0, 2))
    assert s.total_multiplicity() == 4
    assert s.weighted_sum() == 0.0
    assert s.to_json()[0] == {"value": 2.0, "multiplicity": 1}


def test_is_hadamard():
    assert is_hadamard(SignMatrix(np.array([[1, 1], [1, -1]])))
    assert not is_hadamard(SignMatrix(np.ones((2, 2), dtype=int)))
    assert not is_hadamard(SignMatrix(np.ones((2, 3), dtype=int)))
    for m in (1, 2, 3):
        assert is_hadamard(sign_map(g2_power(m).adj))


def test_jacobi_known_spectra():
    assert symmetric_spectrum(np.diag([3.0, 1.0, 2.0])).entries == (
        (3.0, 1),
        (2.0, 1),
        (1.0, 1),
    )
    c3 = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    s = symmetric_spectrum(c3)
    assert s.total_multiplicity() == 3
    assert abs(s.entries[0][0] - 2.0) < 1e-10 and s.entries[0][1] == 1
    assert abs(s.entries[1][0] + 1.0) < 1e-10 and s.entries[1][1] == 2
    g2_spec = graph_spectrum(g2())
    assert [m for _, m in g2_spec.entries] == [1, 1, 2]
    with pytest.raises(ValueError):
        symmetric_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_spectrum_trace_invariant():
    rng = random.Random(29)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 10))
        a = g.adj.to_bool_array().astype(float)
        spec = symmetric_spectrum(a)
        assert spec.total_multiplicity() == g.order
        assert abs(spec.weighted_sum() - np.trace(a)) < 1e-8


def test_analytic_spectrum_values():
    assert analytic_spectrum(1).entries == ((2.0, 1), (0.0, 1), (-1.0, 2))
    assert analytic_spectrum(2).entries == ((8.0, 1), (2.0, 5), (0.0, 1), (-2.0, 9))
    for m in range(1, 7):
        spec = analytic_spectrum(m)
        assert spec.total_multiplicity() == 4**m
        assert abs(spec.weighted_sum()) < 1e-9  # adjacency trace is zero


def test_jacobi_matches_analytic():
    for m in (1, 2, 3):
        assert graph_spectrum(g2_power(m)).matches(analytic_spectrum(m), tol=1e-8)


def test_signed_spectrum():
    # eigenvalues of the signed adjacency are exactly +/-sqrt(N)
    for m in (1, 2, 3):
        n_big = 4**m
        s = sign_map(g2_power(m).adj)
        spec = symmetric_spectrum(s.array.astype(float))
        expected = sign_spectrum_expected(m)
        assert spec.matches(expected, tol=1e-8)
        assert expected.weighted_sum() == n_big  # trace of a +1-diagonal matrix


def test_signed_spectrum_multiplicities_order_256():
    s = sign_map(g2_power(4).adj)
    spec = symmetric_spectrum(s.array.astype(float))
    assert spec.matches(sign_spectrum_expected(4), tol=1e-8)
    assert [m for _, m in spec.entries] == [136, 120]  # (N+16)/2 and (N-16)/2


def test_jacobi_rejects_non_square():
    with pytest.raises(ValueError):
        symmetric_spectrum(np.zeros((2, 3)))


def test_spectrum_matches_rejects():
    a = Spectrum.from_pairs([(1.0, 2)])
    assert not a.matches(Spectrum.from_pairs([(1.0, 1)]))
    assert not a.matches(Spectrum.from_pairs([(1.1, 2)]))
    assert a.matches(Spectrum.from_pairs([(1.0 + 1e-10, 2)]))


def test_multiplicity_assignment_is_trace_forced():
    # the swapped +/- multiplicity assignment cannot have zero trace
    for m in (1, 2, 3, 4):
        n_big, root = 4**m, 2**m
        plus, minus = (n_big - root) // 2 - 1, (n_big + root) // 2 - 1
        kept = n_big / 2 + (root / 2) * plus - (root / 2) * minus
        swapped = n_big / 2 + (root / 2) * minus - (root / 2) * plus
        assert math.isclose(kept, 0.0, abs_tol=1e-9)
        assert swapped != 0.0
