from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from f2rank.gf2 import (
    BitMatrix,
    BitVector,
    F2MatFormatError,
    rank,
    rank_of_row_ints,
    row_space_contains,
    rows_form_subspace,
)
from f2rank.constructions import complete_graph, g2, g2_power
from f2rank.graph import line_graph

from conftest import random_bitmatrix, xor_combinations


# ---------------------------------------------------------------------------
# BitVector
# ---------------------------------------------------------------------------


def test_bitvector_basics():
    v = BitVector.from_string("0110")
    assert len(v) == 4
    assert [v.bit(i) for i in range(4)] == [0, 1, 1, 0]
    assert v.popcount() == 2
    assert v.support(1) == [1, 2]
    assert v.support(0) == [0, 3]
    assert v.to01() == "0110"


def test_bitvector_set_bit_is_pure():
    v = BitVector.zeros(5)
    w = v.set_bit(3)
    assert v.popcount() == 0 and w.bit(3) == 1
    with pytest.raises(IndexError):
        v.set_bit(5)
    with pytest.raises(IndexError):
        v.bit(-1)


def test_bitvector_slice_concat():
    v = BitVector.from_string("10110100")
    assert v.slice(0, 4).to01() == "1011"
    assert v.slice(4, 8).to01() == "0100"
    assert v.slice(0, 4).concat(v.slice(4, 8)) == v


def test_words_layout():
    v = BitVector(70, (1 << 69) | 1)
    words = v.words
    assert len(words) == 2
    assert words[0] == 1
    assert words[1] == 1 << 5


@given(st.integers(1, 80), st.data())
def test_bitvector_padding_and_self_xor(n, data):
    bits = data.draw(st.integers(0, (1 << n) - 1))
    v = BitVector(n, bits)
    assert (v ^ v).is_zero()
    for u in (v, v.complement(), v ^ v.complement()):
        assert u.bits >> n == 0, "padding bits must stay zero"
    assert v.complement().complement() == v
    assert sorted(v.support(0) + v.support(1)) == list(range(n))


# ---------------------------------------------------------------------------
# BitMatrix plumbing
# ---------------------------------------------------------------------------


def test_matrix_constructors_and_access():
    m = BitMatrix.from_strings(["011", "101", "110"])
    assert m.get(0, 1) == 1 and m.get(0, 0) == 0
    assert m.row(2).to01() == "110"
    assert BitMatrix.identity(3).row_ints() == [1, 2, 4]
    assert BitMatrix.all_ones(2, 3).row_ints() == [7, 7]
    with pytest.raises(IndexError):
        m.get(3, 0)
    with pytest.raises(IndexError):
        m.set_bit(0, 3)


def test_transpose_involution():
    rng = random.Random(1)
    for _ in range(20):
        m = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert m.transpose().transpose() == m


def test_hconcat_submatrix_xor():
    i2 = BitMatrix.identity(2)
    h = i2.hconcat(i2)
    assert rank(h) == 2
    assert h.submatrix([0, 1], [2, 3]) == i2
    m = BitMatrix.from_strings(["01", "11"])
    assert (m ^ m) == BitMatrix.zeros(2, 2)


def test_conjugate_matches_naive():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randrange(1, 8)
        m = random_bitmatrix(rng, n, n)
        perm = list(range(n))
        rng.shuffle(perm)
        c = m.conjugate(perm)
        for i in range(n):
            for j in range(n):
                assert c.get(i, j) == m.get(perm[i], perm[j])


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_examples():
    assert rank(BitMatrix.identity(3)) == 3
    assert rank(BitMatrix.zeros(5, 7)) == 0
    assert rank(g2().adj) == 2
    assert rank(line_graph(complete_graph(6)).adj) == 4


def test_rank_transpose_agreement():
    rng = random.Random(3)
    for _ in range(60):
        m = random_bitmatrix(rng, rng.randrange(1, 13), rng.randrange(1, 13))
        assert rank(m) == rank(m.transpose())


def test_rank_against_combination_oracle():
    rng = random.Random(4)
    for _ in range(40):
        rows = rng.randrange(1, 11)
        cols = rng.randrange(1, 11)
        m = random_bitmatrix(rng, rows, cols)
        span = xor_combinations(m.row_ints())
        assert 1 << rank(m) == len(span)


def test_rank_invariances():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 10)
        m = random_bitmatrix(rng, n, n)
        r = rank(m)
        perm = list(range(n))
        rng.shuffle(perm)
        assert rank(m.permute_rows(perm)) == r
        assert rank(m.submatrix(list(range(n)), perm)) == r
        i, j = rng.sample(range(n), 2)
        added = list(m.row_ints())
        added[i] ^= added[j]
        assert rank_of_row_ints(added, n) == r


# ---------------------------------------------------------------------------
# row_space_contains / rows_form_subspace
# ---------------------------------------------------------------------------


def test_row_space_contains_examples():
    m = BitMatrix.identity(3)
    assert row_space_contains(m, BitVector.zeros(3))
    assert row_space_contains(m, BitVector.from_string("110"))
    two = BitMatrix.from_strings(["100", "010"])
    assert not row_space_contains(two, BitVector.from_string("001"))
    with pytest.raises(ValueError):
        row_space_contains(two, BitVector.zeros(4))


def test_row_space_contains_against_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randrange(1, 13)
        cols = rng.randrange(1, 9)
        m = random_bitmatrix(rng, rows, cols)
        combos = xor_combinations(m.row_ints())
        for _ in range(8):
            v = rng.getrandbits(cols)
            assert row_space_contains(m, BitVector(cols, v)) == (v in combos)
    # the spec bound: enumeration stays the oracle up to 16 rows
    m = random_bitmatrix(rng, 16, 6)
    combos = xor_combinations(m.row_ints())
    for v in range(64):
        assert row_space_contains(m, BitVector(6, v)) == (v in combos)


def test_rows_form_subspace():
    assert rows_form_subspace(BitMatrix.from_strings(["00", "10", "01", "11"]))
    assert not rows_form_subspace(BitMatrix.from_strings(["00", "10", "01"]))
    assert not rows_form_subspace(BitMatrix.from_strings(["10", "01", "11", "10"]))
    assert not rows_form_subspace(BitMatrix.from_strings(["10", "01", "11", "00"]).submatrix([0, 1, 2, 2], [0, 1]))
    a = g2_power(2).adj
    assert rows_form_subspace(a)
    # independent oracle: pairwise XOR closure plus distinctness
    rows = a.row_ints()
    row_set = set(rows)
    assert len(row_set) == len(rows) and 0 in row_set
    assert all(x ^ y in row_set for x in row_set for y in row_set)


# ---------------------------------------------------------------------------
# f2mat text format
# ---------------------------------------------------------------------------


def test_f2mat_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        m = random_bitmatrix(rng, rng.randrange(0, 9), rng.randrange(0, 9))
        text = m.to_f2mat()
        assert BitMatrix.from_f2mat(text) == m
        assert text.endswith("\n") and " \n" not in text


def test_f2mat_exact_text():
    assert g2().adj.to_f2mat() == "f2mat 4 4\n0110\n1010\n1100\n0000\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "f2mat 2\n00\n00\n",
        "f2mat 2 2\n00\n",
        "f2mat 2 2\n00\n0\n",
        "f2mat 2 2\n00\n02\n",
        "f2mat 2 2\n00\n00\nextra\n",
        "f2mat x y\n",
        "notf2mat 2 2\n00\n00\n",
    ],
)
def test_f2mat_malformed(text):
    with pytest.raises(F2MatFormatError):
        BitMatrix.from_f2mat(text)
