"""The code-set view: the standard form on a code set against its numpy
definition, the exact check, and the codes a subspace matrix yields
against their definition."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2rank.codes import (
    is_standard_form,
    odd_family_codes,
    standard_form,
    standard_form_blocks,
    subspace_codes,
)
from f2rank.constructions import (
    complete_graph,
    extremal_odd_plus_one,
    g2_power,
    linegraph_clique_plus_isolated,
)
from f2rank.gf2 import BitMatrix, rank_of_row_ints
from f2rank.graph import Graph

from conftest import random_graph, relabel


def _definition(codes: np.ndarray) -> np.ndarray:
    """The standard form (u v^T + v u^T) & 1, u and v the even and odd code bits."""
    width = int(codes.max(initial=0)).bit_length()
    bits = (codes[:, None] >> np.arange(width + width % 2)) & 1
    u, v = bits[:, 0::2], bits[:, 1::2]
    return (u @ v.T + v @ u.T) & 1


def _bijections() -> list[np.ndarray]:
    """Seeded random bijections of range(4^m), m = 1..4."""
    rng = np.random.default_rng(70)
    return [rng.permutation(4**m) for m in range(1, 5) for _ in range(3)]


def _reference_codes(m: BitMatrix) -> tuple[list[int], list[int]]:
    """subspace_codes by its definition, with no shortcut: the greedy
    first-appearance basis and each row's coordinates in it from an
    explicit table of the span, symplectic Gram-Schmidt on the basis block
    with explicit vectors, and each row's code found by search in the
    pairs (u_a, v_a)."""
    rows = m.row_ints()
    basis: list[int] = []
    span = {0: 0}  # each combination of the basis rows -> its coordinates
    for i, r in enumerate(rows):
        if r not in span:
            span.update({x ^ r: k | 1 << len(basis) for x, k in list(span.items())})
            basis.append(i)
    n = len(basis)
    form = [[(rows[p] >> q) & 1 for q in basis] for p in basis]

    def pair(x, z):
        return sum(x[a] * form[a][b] * z[b] for a in range(n) for b in range(n)) % 2

    remaining = [[int(a == b) for b in range(n)] for a in range(n)]
    symplectic = []  # u_0, v_0, u_1, v_1, ...
    while remaining:
        u = remaining.pop(0)
        v = remaining.pop(next(k for k, w in enumerate(remaining) if pair(u, w)))
        remaining = [
            [(w[t] + pair(w, v) * u[t] + pair(w, u) * v[t]) % 2 for t in range(n)]
            for w in remaining
        ]
        symplectic += [u, v]

    def combine(vectors, mask):
        return [sum((mask >> k) & 1 and vec[t] for k, vec in enumerate(vectors)) % 2 for t in range(n)]

    # bit 2a of a code is the coefficient of u_a, bit 2a+1 that of v_a
    code_of = {tuple(combine(symplectic, c)): c for c in range(1 << n)}
    return basis, [code_of[tuple((span[r] >> t) & 1 for t in range(n))] for r in rows]


def _family_inputs(rng: random.Random, max_m: int) -> list[Graph]:
    out = [Graph(BitMatrix.zeros(1, 1)), linegraph_clique_plus_isolated(6)]
    for m in range(1, max_m + 1):
        out += [g2_power(m), relabel(g2_power(m), rng), relabel(g2_power(m), rng)]
    return out


def _flip(a: BitMatrix, i: int, j: int) -> BitMatrix:
    return a.set_bit(i, j, 1 - a.get(i, j))


def test_standard_form_matches_definition():
    for codes in _bijections():
        want = _definition(codes)
        assert np.array_equal(standard_form(codes).to_bool_array(), want)
        for block_rows in (1, 5, codes.size):
            blocks = list(standard_form_blocks(codes, block_rows))
            assert all(len(b) <= block_rows for b in blocks)
            assert np.array_equal(BitMatrix.from_packed(np.concatenate(blocks), codes.size).to_bool_array(), want)
    for n in (3, 5):
        codes = odd_family_codes(n)
        assert standard_form(codes) == extremal_odd_plus_one(n).adj
        assert np.array_equal(standard_form(codes).to_bool_array(), _definition(codes))


def test_subspace_codes_round_trip():
    # the extracted codes differ from the input's by a symplectic map, but
    # the input is the standard form on them
    for codes in _bijections():
        a = standard_form(codes)
        basis, found = subspace_codes(a)
        assert len(basis) == codes.size.bit_length() - 1
        assert standard_form(found) == a
        for block_rows in (3, a.rows):
            assert is_standard_form(a, codes, block_rows)
            assert is_standard_form(a, found, block_rows)


def test_is_standard_form_rejects():
    rng = random.Random(71)
    for codes in _bijections():
        a = standard_form(codes)
        # from order 16 on no two vertices are twins, so no transposition
        # is an automorphism; at order 4 the triangle's are
        if a.rows > 4:
            i, j = rng.sample(np.flatnonzero(codes).tolist(), 2)
            swapped = codes.copy()
            swapped[[i, j]] = swapped[[j, i]]
            assert not is_standard_form(a, swapped, 5)
        i, j = rng.sample(range(a.rows), 2)
        for flipped in (_flip(a, i, i), _flip(a, i, j), _flip(_flip(a, i, j), j, i)):
            assert not is_standard_form(flipped, codes, 5)


def test_subspace_codes_rows_form_subspace():
    # codes exist only where the rows list a whole subspace once each: a
    # dropped code leaves part of the span out, a duplicated one repeats a row
    rng = random.Random(19)
    for codes in _bijections():
        k = rng.randrange(codes.size)
        dropped = np.delete(codes, k)
        duplicated = codes.copy()
        duplicated[k] = codes[k - 1]
        for c in (dropped, duplicated):
            assert subspace_codes(standard_form(c)) is None
            assert not is_standard_form(standard_form(c), c, 5)
    # independent oracle on a member: distinct rows closed under XOR
    rows = g2_power(2).adj.row_ints()
    assert subspace_codes(g2_power(2).adj) is not None
    assert len(set(rows)) == len(rows) and all(x ^ y in rows for x in rows for y in rows)


def test_subspace_codes_none_off_subspaces():
    rng = random.Random(18)
    inputs = [complete_graph(4).adj, BitMatrix.zeros(4, 4), BitMatrix(0, 0)]
    inputs += [random_graph(rng, 16).adj for _ in range(5)]
    for n in (3, 5, 7):
        codes = odd_family_codes(n)
        inputs.append(standard_form(codes))
        assert not is_standard_form(standard_form(codes), codes, 5)
    for a in inputs:
        assert subspace_codes(a) is None
    with pytest.raises(ValueError):
        subspace_codes(BitMatrix.from_strings(["00", "10", "01", "11"]))
    # rows that list a subspace but are not symmetric: the basis block is
    # not alternating, or it is alternating and degenerate
    for rows in (["00", "01"], ["00", "10"]):
        with pytest.raises(ValueError):
            subspace_codes(BitMatrix.from_strings(rows))


def test_subspace_codes_match_definition():
    rng = random.Random(16)
    for g in _family_inputs(rng, 3):
        basis, codes = subspace_codes(g.adj)
        assert (basis, codes.tolist()) == _reference_codes(g.adj)


def test_subspace_codes_give_standard_form():
    # in the symplectic basis every subspace adjacency is the standard form
    # <c_i, J c_j>, J swapping the bits of each pair, so n is even
    rng = random.Random(17)
    for g in _family_inputs(rng, 5):
        _, codes = subspace_codes(g.adj)
        n = g.order.bit_length() - 1
        assert n % 2 == 0 and sorted(codes.tolist()) == list(range(g.order))
        assert np.array_equal(_definition(codes), g.adj.to_bool_array())
        assert is_standard_form(g.adj, codes, 128)


def test_subspace_codes_convert_rows_one_at_a_time(monkeypatch):
    # the elimination stops at the prefix basis and converts only the rows
    # it reads; the whole-matrix conversion is never needed
    rng = random.Random(20)
    inputs = [linegraph_clique_plus_isolated(6).adj]
    inputs += [relabel(g2_power(m), rng).adj for m in range(1, 7)]
    want = [_reference_codes(a) for a in inputs]

    def no_row_ints(self):
        raise AssertionError("row_ints called")

    monkeypatch.setattr(BitMatrix, "row_ints", no_row_ints)
    for a, (basis, codes) in zip(inputs, want):
        found = subspace_codes(a)
        assert found is not None
        assert (found[0], found[1].tolist()) == (basis, codes)


def _oracle(m: BitMatrix):
    """subspace_codes by full elimination: the rows list a subspace iff
    they are distinct and their rank is log2 of the order; then the
    reference codes."""
    rows = m.row_ints()
    n = m.rows.bit_length() - 1
    if m.rows == 1 << n and len(set(rows)) == m.rows and rank_of_row_ints(rows, m.cols) == n:
        return _reference_codes(m)
    return None


@st.composite
def _near_subspace_matrices(draw):
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["member", "flip", "zero_row", "repeated", "non_spanning"]))
    m = draw(st.integers(1, 3))
    if kind in ("member", "flip"):
        a = relabel(g2_power(m), rnd).adj
        if kind == "flip":
            i, j = rnd.sample(range(a.rows), 2)
            a = _flip(_flip(a, i, j), j, i)
        return a
    if kind == "zero_row":
        # symmetric, zero diagonal, one zero row: the basis block may be degenerate
        return relabel(random_graph(rnd, 4**m - 1).add_isolated_vertex(), rnd).adj
    codes = np.array([rnd.randrange(4**m) for _ in range(4**m)])
    if kind == "non_spanning":
        codes &= rnd.getrandbits(2 * m)
    return standard_form(codes)


@settings(max_examples=200, deadline=None)
@given(_near_subspace_matrices())
def test_subspace_codes_match_full_elimination(a):
    found = subspace_codes(a)
    assert (None if found is None else (found[0], found[1].tolist())) == _oracle(a)
