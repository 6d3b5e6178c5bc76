from __future__ import annotations

import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2rank import gf2
from f2rank.gf2 import (
    BYTE_RANK_MIN_ROWS,
    BitMatrix,
    BitVector,
    F2MatFormatError,
    _byte_rank,
    echelon,
    rank,
    rank_of_row_ints,
    row_space_contains,
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
    assert BitMatrix(2, 3, [7, 7]).row_ints() == [7, 7]
    with pytest.raises(IndexError):
        m.get(3, 0)
    with pytest.raises(IndexError):
        m.set_bit(0, 3)
    # a negative row; a bit at cols inside the last byte's padding; a bit
    # at cols that needs a byte of its own
    for cols, bad in ((3, -1), (3, 1 << 3), (8, 1 << 8)):
        with pytest.raises(ValueError, match="^row bits outside declared width$"):
            BitMatrix(2, cols, [0, bad])
    assert BitMatrix(1, 8, [255]).row_ints() == [255]
    assert BitMatrix.from_packed(np.array([[5], [3]], dtype=np.uint8), 3).row_ints() == [5, 3]
    with pytest.raises(ValueError, match="^row bits outside declared width$"):
        BitMatrix.from_packed(np.array([[5], [8]], dtype=np.uint8), 3)
    with pytest.raises(ValueError, match="^packed rows of a 9-column matrix need 2 bytes$"):
        BitMatrix.from_packed(np.zeros((2, 1), dtype=np.uint8), 9)


# widths on both sides of a byte and of a 64-bit word, and any other
_WIDTHS = st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]) | st.integers(0, 130)


def _assert_storage_invariants(m: BitMatrix) -> None:
    """The packed rows are a read-only C-contiguous uint8 array of the
    declared shape with zero padding bits, and == and hash agree with the
    integer rows."""
    p = m.packed
    assert p.dtype == np.uint8 and p.flags.c_contiguous and not p.flags.writeable
    assert p.shape == ((m.rows, (m.cols + 7) // 8) if m.rows else (0, 0))
    assert not (p[:, -1:] >> (m.cols % 8 or 8)).any(), "padding bits must stay zero"
    with pytest.raises(ValueError, match="read-only"):
        p[...] = 0
    ints = m.row_ints()
    assert len(ints) == m.rows and all(0 <= r < 1 << m.cols for r in ints)
    copy = BitMatrix(m.rows, m.cols, ints)
    assert copy == m and hash(copy) == hash(m)
    assert copy.to_bool_array().tolist() == [[(r >> j) & 1 for j in range(m.cols)] for r in ints]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), _WIDTHS, st.randoms(use_true_random=False))
def test_storage_invariants(rows, cols, rnd):
    ints = [rnd.getrandbits(cols) for _ in range(rows)]
    dense = np.array([[(r >> j) & 1 for j in range(cols)] for r in ints], dtype=bool)
    dense = dense.reshape(rows, cols)
    m = BitMatrix(rows, cols, ints)
    same = [m, BitMatrix.from_bool_array(dense), BitMatrix.from_f2mat(m.to_f2mat()),
            BitMatrix.from_packed(np.packbits(dense, axis=1, bitorder="little"), cols)]
    if rows:
        same.append(BitMatrix.from_strings([m.row(i).to01() for i in range(rows)]))
    for x in same + [BitMatrix.zeros(rows, cols), BitMatrix.identity(cols)]:
        _assert_storage_invariants(x)
        assert (x == m) == ((x.rows, x.cols, x.row_ints()) == (rows, cols, ints))
    assert all(x == m for x in same)
    lo = rnd.randrange(cols + 1)
    window = list(range(lo, rnd.randrange(lo, cols + 1)))
    picked = [rnd.randrange(rows) for _ in range(rnd.randrange(5))] if rows else []
    scattered = [rnd.randrange(cols) for _ in range(rnd.randrange(10))] if cols else []
    perm = rnd.sample(range(cols), cols)
    square = BitMatrix(cols, cols, [rnd.getrandbits(cols) for _ in range(cols)])
    ops = [
        (m.submatrix(list(range(rows)), window), dense[:, window]),
        (m.submatrix(picked, scattered), dense[np.ix_(picked, scattered)]),
        (m.transpose(), dense.T),
        (square.conjugate(perm), square.to_bool_array()[np.ix_(perm, perm)]),
    ]
    if rows and cols:
        i, j = rnd.randrange(rows), rnd.randrange(cols)
        for value in (0, 1):
            want = dense.copy()
            want[i, j] = value
            ops.append((m.set_bit(i, j, value), want))
    for x, want in ops:
        _assert_storage_invariants(x)
        assert x.to_bool_array().tolist() == want.astype(np.uint8).tolist()
    _assert_storage_invariants(m)
    assert m.row_ints() == ints


@settings(max_examples=150, deadline=None)
@given(_WIDTHS, _WIDTHS, st.randoms(use_true_random=False))
def test_transpose_matches_unpacked(rows, cols, rnd):
    """The packed transpose of any shape, non-square ones and widths on
    both sides of a byte and of a 64-bit word included, against the
    transpose of the unpacked bits."""
    m = BitMatrix(rows, cols, [rnd.getrandbits(cols) for _ in range(rows)])
    bits = np.unpackbits(m.packed, axis=1, count=cols, bitorder="little")
    want = np.packbits(bits.T, axis=1, bitorder="little")
    t = m.transpose()
    _assert_storage_invariants(t)
    assert (t.rows, t.cols) == (cols, rows)
    assert t.packed.tobytes() == want.tobytes() and t.packed.shape == (want.shape if cols else (0, 0))
    assert t.transpose() == m


@pytest.mark.parametrize("rows", [BYTE_RANK_MIN_ROWS - 1, BYTE_RANK_MIN_ROWS, 383, 384, 400])
@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 63, 64, 65, 400])
def test_rank_leaves_matrix_unchanged(rows, cols):
    rng = random.Random(rows * 1000 + cols)
    ints = [rng.getrandbits(cols) for _ in range(rows)]
    m = BitMatrix(rows, cols, ints)
    before = m.packed.copy()
    r = rank(m)
    assert r == len(echelon(ints)[1])
    assert np.array_equal(m.packed, before) and m.row_ints() == ints
    assert rank_of_row_ints(m.packed, cols) == r
    assert np.array_equal(m.packed, before)
    _assert_storage_invariants(m)


def test_transpose_involution():
    rng = random.Random(1)
    for _ in range(20):
        m = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert m.transpose().transpose() == m


def test_submatrix_windows():
    m = BitMatrix.from_strings(["1010", "0101"])
    assert m.submatrix([0, 1], [2, 3]) == BitMatrix.identity(2)
    assert m.submatrix([1, 0], [3, 0, 0]) == BitMatrix.from_strings(["100", "011"])
    assert m.submatrix([], [1]) == BitMatrix(0, 1)
    with pytest.raises(IndexError, match="^row 2 out of range$"):
        m.submatrix([0, 2, -1], [0])
    with pytest.raises(IndexError, match="^column -1 out of range$"):
        m.submatrix([0], [-1, 4])


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
        rows = m.row_ints()
        assert rank(BitMatrix(n, n, [rows[p] for p in perm])) == r
        assert rank(m.submatrix(list(range(n)), perm)) == r
        i, j = rng.sample(range(n), 2)
        added = list(m.row_ints())
        added[i] ^= added[j]
        assert rank_of_row_ints(added, n) == r


def _mixed_identity(rng: random.Random, n: int, r: int, cols: int | None = None) -> list[int]:
    """An n x cols (default n x n) matrix of rank r: an r-row identity
    block (the other rows zero) mixed by random row additions and random
    column additions."""
    cols = n if cols is None else cols
    rows = [1 << i for i in range(r)] + [0] * (n - r)
    for _ in range(2 * max(n, cols)):
        a, b = rng.sample(range(n), 2)
        rows[a] ^= rows[b]
        a, b = rng.sample(range(cols), 2)
        rows = [x ^ (((x >> b) & 1) << a) for x in rows]
    rng.shuffle(rows)
    return rows


# (rows, cols, rank) on both sides of BYTE_RANK_MIN_ROWS, widths that are
# not whole bytes included
_KNOWN_RANKS = (
    (200, 200, 137),
    (255, 255, 0),
    (255, 255, 255),
    (256, 256, 0),
    (256, 256, 1),
    (256, 256, 255),
    (256, 256, 256),
    (300, 300, 137),
    (384, 384, 384),
    (400, 300, 299),
    (512, 512, 500),
    (513, 513, 513),
    (513, 1000, 10),
    (1000, 1000, 997),
    (1000, 513, 513),
)


def test_rank_known_rank_large():
    rng = random.Random(12)
    for n, cols, r in _KNOWN_RANKS:
        rows = _mixed_identity(rng, n, r, cols)
        assert rank_of_row_ints(rows, cols) == r
        assert rank(BitMatrix(n, cols, rows)) == r


def test_rank_routes_by_row_count(monkeypatch):
    # _byte_rank's pivot search may run echelon with a pivot limit; a rank
    # by echelon is an unlimited one
    def no_echelon(row_ints, limit=None):
        if limit is None:
            raise AssertionError("echelon called")
        return echelon(row_ints, limit)

    rng = random.Random(13)
    below = _mixed_identity(rng, BYTE_RANK_MIN_ROWS - 1, 5)
    monkeypatch.setattr(gf2, "echelon", no_echelon)
    for n, cols, r in _KNOWN_RANKS:
        if n >= BYTE_RANK_MIN_ROWS:
            assert rank_of_row_ints(_mixed_identity(rng, n, r, cols), cols) == r
    with pytest.raises(AssertionError, match="echelon called"):
        rank_of_row_ints(below, BYTE_RANK_MIN_ROWS - 1)


@pytest.mark.parametrize("n", [3, BYTE_RANK_MIN_ROWS, 384])
def test_rank_rejects_bits_outside_width(n):
    for bad in (1 << 9, -1):
        rows = [0] * (n - 1) + [bad]
        with pytest.raises(ValueError, match="outside declared width"):
            rank_of_row_ints(rows, 9)
    assert rank_of_row_ints([0] * (n - 1) + [1 << 8], 9) == 1


def _rank_input(rnd: random.Random, rows: int, cols: int, kind: str) -> list[int]:
    if kind == "random":
        return [rnd.getrandbits(cols) for _ in range(rows)]
    if kind == "sparse":  # at most two set bits a row, zero rows likely
        return [
            sum({1 << rnd.randrange(cols) for _ in range(rnd.randrange(3))}) if cols else 0
            for _ in range(rows)
        ]
    if kind == "duplicates":  # rows drawn from a few
        pool = [rnd.getrandbits(cols) for _ in range(rnd.randrange(1, 6))]
        return [rnd.choice(pool) for _ in range(rows)]
    # low rank: combinations of a few random rows
    basis = [rnd.getrandbits(cols) for _ in range(rnd.randrange(6))]
    return [_combine(basis, rnd.getrandbits(len(basis))) for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 200),
    st.integers(0, 200),
    st.sampled_from(["random", "sparse", "duplicates", "low_rank"]),
    st.randoms(use_true_random=False),
)
def test_byte_rank_matches_echelon(rows, cols, kind, rnd):
    """Past 64 rows and 64 columns, so a block is copied per 8 byte columns
    and low-rank columns miss in the first 64 rows."""
    row_ints = _rank_input(rnd, rows, cols, kind)
    data = np.array([[(r >> j) & 1 for j in range(cols)] for r in row_ints], dtype=np.uint8)
    packed = np.packbits(data.reshape(rows, cols), axis=1, bitorder="little")
    assert packed.shape == (rows, (cols + 7) // 8)
    before = packed.copy()
    assert _byte_rank(packed) == len(echelon(row_ints)[1])
    assert np.array_equal(packed, before)


@pytest.mark.parametrize("rows", [9, 64, 65, 130, 700])
@pytest.mark.parametrize("cols", [63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("kind", ["random", "low_rank"])
def test_byte_rank_block_widths(rows, cols, kind):
    # widths around one and two 8-byte column groups, wide and tall
    row_ints = _rank_input(random.Random(rows * 1000 + cols), rows, cols, kind)
    assert _byte_rank(BitMatrix(rows, cols, row_ints).packed) == len(echelon(row_ints)[1])


@pytest.mark.parametrize("seed", range(8))
def test_byte_rank_pivots_below_the_prefix(monkeypatch, seed):
    # the top rows are combinations of d < 8 rows, so in every column the
    # first 64 rows of the block span fewer than 8 dimensions until they
    # run out; random rows further down add the rest
    rng = random.Random(seed)
    cols = rng.choice([63, 64, 65, 127, 128, 129, 200])
    d = rng.randrange(1, 8)
    basis = [rng.getrandbits(cols) for _ in range(d)]
    rows = [_combine(basis, rng.getrandbits(d)) for _ in range(rng.randrange(65, 300))]
    rows += [rng.getrandbits(cols) for _ in range(rng.randrange(1, 40))]
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(len(a[0])) or unique(*a, **k))
    assert _byte_rank(BitMatrix(len(rows), cols, rows).packed) == len(echelon(rows)[1])
    assert calls  # the whole column was searched


@pytest.mark.parametrize("seed", range(8))
def test_byte_rank_skips_zero_columns(seed):
    # rows nonzero in at most three byte columns: the pass jumps over the
    # zero ones, across several 8-byte groups when the matrix is wide
    rng = random.Random(seed)
    cols = rng.choice([70, 200, 513])
    live = rng.sample(range((cols + 7) // 8), 3)
    mask = sum(0xFF << 8 * b for b in live) & ((1 << cols) - 1)
    basis = [rng.getrandbits(cols) & mask for _ in range(rng.randrange(1, 25))]
    rows = [_combine(basis, rng.getrandbits(len(basis))) for _ in range(rng.randrange(1, 300))]
    assert _byte_rank(BitMatrix(len(rows), cols, rows).packed) == len(echelon(rows)[1])


@pytest.mark.parametrize("update_bytes", [1, 100, 1 << 12])
def test_byte_rank_update_blocks(monkeypatch, update_bytes):
    # the update runs a slice of rows at a time: the rank is the same for
    # any slice size, one row included
    monkeypatch.setattr(gf2, "_UPDATE_BYTES", update_bytes)
    rnd = random.Random(update_bytes)
    for rows, cols, kind in [(300, 129, "random"), (130, 300, "low_rank"), (500, 64, "sparse")]:
        row_ints = _rank_input(rnd, rows, cols, kind)
        assert _byte_rank(BitMatrix(rows, cols, row_ints).packed) == len(echelon(row_ints)[1])


def test_rank_of_packed_rows_leaves_them_unchanged():
    rng = random.Random(14)
    for n, cols in [(BYTE_RANK_MIN_ROWS, 65), (600, 129), (1000, 1000)]:
        ints = [rng.getrandbits(cols) for _ in range(n)]
        packed = BitMatrix(n, cols, ints).packed.copy()  # writable
        before = packed.copy()
        assert rank_of_row_ints(packed, cols) == len(echelon(ints)[1])
        assert np.array_equal(packed, before)


# ---------------------------------------------------------------------------
# row_space_contains
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


def _combine(rows: list[int], mask: int) -> int:
    """XOR of the rows selected by the bits of mask."""
    acc = 0
    for i, x in enumerate(rows):
        if (mask >> i) & 1:
            acc ^= x
    return acc


def test_row_space_contains_combinations_large():
    # b is a basis of GF(2)^n; m is spanned by its first r vectors, so a
    # combination lies in rowspace(m) iff it uses none of the other n - r
    rng = random.Random(13)
    n, r = 256, 100
    b = _mixed_identity(rng, n, n)
    rows = b[:r] + [_combine(b[:r], rng.getrandbits(r)) for _ in range(60)]
    rng.shuffle(rows)
    m = BitMatrix(len(rows), n, rows)
    assert rank(m) == r
    for _ in range(40):
        inside = _combine(rows, rng.getrandbits(len(rows)))
        assert row_space_contains(m, BitVector(n, inside))
        outside = _combine(b, rng.getrandbits(n) | 1 << rng.randrange(r, n))
        assert not row_space_contains(m, BitVector(n, outside))


# ---------------------------------------------------------------------------
# f2mat text format
# ---------------------------------------------------------------------------


def test_f2mat_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        m = random_bitmatrix(rng, rng.randrange(0, 9), rng.randrange(0, 9))
        text = m.to_f2mat()
        assert BitMatrix.from_f2mat(text) == BitMatrix.from_f2mat(text.decode("ascii")) == m
        assert text.endswith(b"\n") and b" \n" not in text


def test_f2mat_exact_text():
    assert g2().adj.to_f2mat() == b"f2mat 4 4\n0110\n1010\n1100\n0000\n"


@given(st.integers(0, 12), st.integers(0, 70), st.randoms(use_true_random=False))
def test_f2mat_round_trip_property(rows, cols, rnd):
    """Widths that are not whole bytes, rows = 0 and cols = 0 included."""
    m = random_bitmatrix(rnd, rows, cols)
    data = m.to_f2mat()
    text = data.decode("ascii")
    # reference text: one row at a time, character j is column j
    assert text == f"f2mat {rows} {cols}\n" + "".join(m.row(i).to01() + "\n" for i in range(rows))
    assert BitMatrix.from_f2mat(text) == BitMatrix.from_f2mat(bytes(data)) == BitMatrix.from_f2mat(data) == m
    assert BitMatrix.from_bool_array(m.to_bool_array()) == m
    assert m.to_bool_array().tolist() == [[m.get(i, j) for j in range(cols)] for i in range(rows)]


_ROW_2 = "row 2 is not 2 characters of 0/1"
F2MAT_MALFORMED = {
    "": "missing 'f2mat' header",
    "f2mat 2\n00\n00\n": "bad header line: 'f2mat 2'",
    "f2mat 2 2\n00\n": _ROW_2,
    "f2mat 2 2\n00\n0\n": _ROW_2,
    "f2mat 2 2\n00\n02\n": _ROW_2,
    "f2mat 2 2\n00\n00\nextra\n": "trailing content after matrix rows",
    "f2mat x y\n": "bad header line: 'f2mat x y'",
    "notf2mat 2 2\n00\n00\n": "missing 'f2mat' header",
    # rows int(_, 2) would accept, each at the declared width
    "f2mat 1 2\n+1\n": "row 1 is not 2 characters of 0/1",
    "f2mat 1 3\n1_0\n": "row 1 is not 3 characters of 0/1",
    "f2mat 1 2\n 1\n": "row 1 is not 2 characters of 0/1",
    # the first bad row is named, whether its length or a character is wrong
    "f2mat 3 2\n00\n1\n0x\n": _ROW_2,
    "f2mat 3 2\n00\n0x\n1\n": _ROW_2,
    "f2mat 3 2\n00\n11\n0\u00e9\n": "row 3 is not 2 characters of 0/1",
    "f2mat 2 2\n00\n00\r\n": _ROW_2,
    "f2mat 1 99999999999999999999\n0\n": "row 1 is not 99999999999999999999 characters of 0/1",
    "f2mat 2 2\n00": "expected 2 rows, found 1",
    # no newline after the header: no row lines at all
    "f2mat 2 2": "expected 2 rows, found 0",
    "f2mat 1 0": "expected 1 rows, found 0",
    # the message quotes a str header as given, not as encoded
    "f2mat \u00e9 2\n": "bad header line: 'f2mat \u00e9 2'",
    # a header field is ASCII -?[0-9]+, and nothing else int would read
    "f2mat 2 2\r\n00\r\n00\r\n": "bad header line: 'f2mat 2 2\\r'",
    "f2mat 2 2\r\n00\n00\n": "bad header line: 'f2mat 2 2\\r'",
    "f2mat +1_0 \t2\n" + "00\n" * 10: "bad header line: 'f2mat +1_0 \\t2'",
    "f2mat +2 2\n00\n00\n": "bad header line: 'f2mat +2 2'",
    "f2mat \u0663 2\n00\n00\n00\n": "bad header line: 'f2mat \u0663 2'",
    "f2mat -1 2\n": "negative dimensions in header",
}


@pytest.mark.parametrize("text", list(F2MAT_MALFORMED))
def test_f2mat_malformed(text):
    with pytest.raises(F2MatFormatError, match=f"^{re.escape(F2MAT_MALFORMED[text])}$"):
        BitMatrix.from_f2mat(text)


@pytest.mark.parametrize("block", [1, 3, 100])
def test_f2mat_parse_blocks(monkeypatch, block):
    # rows are checked and packed a block of text at a time: every message
    # and every parsed matrix is the same for any block size
    monkeypatch.setattr(gf2, "_PARSE_BYTES", block)
    for text, message in F2MAT_MALFORMED.items():
        with pytest.raises(F2MatFormatError, match=f"^{re.escape(message)}$"):
            BitMatrix.from_f2mat(text)
    m = random_bitmatrix(random.Random(60), 37, 29)
    text = m.to_f2mat().decode("ascii")
    assert BitMatrix.from_f2mat(text) == m
    bad = text.split("\n")
    bad[30] = bad[30][:7] + "2" + bad[30][8:]
    with pytest.raises(F2MatFormatError, match="^row 30 is not 29 characters of 0/1$"):
        BitMatrix.from_f2mat("\n".join(bad))


def test_from_f2mat_peak_memory_order_4096():
    # the text belongs to the caller; parsing holds one N^2-byte copy of
    # the rows (its ASCII encoding), the packed rows and per-block
    # temporaries, but no second copy and no whole-matrix mask
    m = g2_power(6).adj
    text = m.to_f2mat().decode("ascii")
    tracemalloc.start()
    try:
        got = BitMatrix.from_f2mat(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == m
    assert peak < 2 * m.rows**2


def test_from_f2mat_reads_bytes_in_place():
    # the bytes of an ASCII file parse to the same matrix, or raise the same
    # error, as its text; a non-ASCII byte is one character that is not 0/1
    for text, message in F2MAT_MALFORMED.items():
        if text.isascii():
            with pytest.raises(F2MatFormatError, match=f"^{re.escape(message)}$"):
                BitMatrix.from_f2mat(text.encode("ascii"))
    with pytest.raises(F2MatFormatError, match="^row 2 is not 2 characters of 0/1$"):
        BitMatrix.from_f2mat(b"f2mat 2 2\n00\n0\xe9\n")
    m = g2_power(6).adj
    data = bytes(m.to_f2mat())
    tracemalloc.start()
    try:
        got = BitMatrix.from_f2mat(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == m
    assert peak < m.rows**2 / 4  # the packed rows and per-block temporaries


def test_f2mat_empty_matrices():
    assert BitMatrix.from_f2mat("f2mat 0 5\n") == BitMatrix(0, 5)
    assert BitMatrix.from_f2mat("f2mat 3 0\n\n\n\n") == BitMatrix(3, 0)
    # the last empty row without its newline, and a header without one
    assert BitMatrix.from_f2mat("f2mat 3 0\n\n\n") == BitMatrix(3, 0)
    assert BitMatrix.from_f2mat("f2mat 1 0\n") == BitMatrix(1, 0)
    assert BitMatrix.from_f2mat("f2mat 0 3") == BitMatrix(0, 3)
    # no row to check the width against, and none is allocated
    assert BitMatrix.from_f2mat("f2mat 0 99999999999999999999\n").cols == 99999999999999999999


def test_f2mat_accepts_missing_last_newline_and_blank_lines():
    m = BitMatrix.from_strings(["01", "10"])
    for text in ["f2mat 2 2\n01\n10", "f2mat 2 2\n01\n10\n\n\n"]:
        assert BitMatrix.from_f2mat(text) == BitMatrix.from_f2mat(text.encode("ascii")) == m
    # at order 4096 the rows are still read in place, not split
    big = g2_power(6).adj
    data = bytes(big.to_f2mat())[:-1]
    tracemalloc.start()
    try:
        got = BitMatrix.from_f2mat(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == big
    assert peak < big.rows**2 / 4


@pytest.mark.parametrize("kind", ["str", "bytes"])
def test_from_f2mat_error_peak_memory_order_4096(kind):
    # a bad byte in the last row is named without a decoded copy or a line
    # list: the ends of the lines are found in place
    m = g2_power(6).adj
    data = bytearray(m.to_f2mat())
    data[-3] = ord("2")
    text = data.decode("ascii") if kind == "str" else bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(F2MatFormatError, match="^row 4096 is not 4096 characters of 0/1$"):
            BitMatrix.from_f2mat(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the encoded copy of a str and the packed rows the read had begun
    assert peak < (1.3 if kind == "str" else 0.25) * m.rows**2


# ---------------------------------------------------------------------------
# oracle: the line-splitting f2mat parser that the fixed-width read replaced
# ---------------------------------------------------------------------------

_ORACLE_PARSE_CHARS = 1 << 20


def _parse_lines(body: list[str], rows: int, cols: int) -> np.ndarray:
    """The packed rows of the f2mat lines after the header, or the
    F2MatFormatError that names what is wrong with them."""
    if len(body) < rows:
        raise F2MatFormatError(f"expected {rows} rows, found {len(body)}")
    trailing = body[rows:]
    if any(t != "" for t in trailing):
        raise F2MatFormatError("trailing content after matrix rows")
    # rows before the first one of the wrong length form a text image
    # of width cols; its first byte other than '0'/'1' names an earlier
    # bad row ("replace" keeps one byte per character)
    lengths = np.fromiter(map(len, body[:rows]), dtype=np.int64, count=rows)
    k = int(np.append(lengths != cols, True).argmax())
    step = max(_ORACLE_PARSE_CHARS // max(cols, 1), 1)
    # with k = 0 no row has width cols, which may exceed any dimension
    packed = np.empty((k, (cols + 7) // 8 if k else 0), dtype=np.uint8)
    for lo in range(0, k if cols else 0, step):
        hi = min(lo + step, k)
        chars = np.frombuffer("".join(body[lo:hi]).encode("ascii", "replace"), dtype=np.uint8)
        chars = chars.reshape(hi - lo, cols)
        if chars.min() < ord("0") or chars.max() > ord("1"):
            k = lo + int(((chars | 1) != ord("1")).any(axis=1).argmax())
            break
        packed[lo:hi] = np.packbits(chars & 1, axis=1, bitorder="little")
    if k < rows:
        raise F2MatFormatError(f"row {k + 1} is not {cols} characters of 0/1")
    return packed


def _oracle_from_f2mat(text: str) -> BitMatrix:
    """The matrix of f2mat text, header first, then its lines."""
    header = text.split("\n", 1)[0]
    if not header.startswith("f2mat"):
        raise F2MatFormatError("missing 'f2mat' header")
    fields = header.split(" ")
    # each dimension is one optional "-" and then ASCII digits only
    digits = [f.removeprefix("-") for f in fields[1:]]
    if len(fields) != 3 or fields[0] != "f2mat" or not all(d and set(d) <= set("0123456789") for d in digits):
        raise F2MatFormatError(f"bad header line: {header!r}")
    try:
        rows, cols = int(fields[1]), int(fields[2])
    except ValueError as exc:
        raise F2MatFormatError(f"bad header line: {header!r}") from exc
    if rows < 0 or cols < 0:
        raise F2MatFormatError("negative dimensions in header")
    packed = _parse_lines(text.split("\n")[1:], rows, cols)
    return BitMatrix._wrap(packed, cols)


def _outcome(parse, text):
    """The parsed matrix's shape and bytes, or the error message."""
    try:
        m = parse(text)
    except F2MatFormatError as exc:
        return str(exc)
    return m.rows, m.cols, m.packed.tobytes()


_MUTATION_CHARS = "01\n\r x2\u00e9"


@st.composite
def _mutated_f2mat(draw):
    """Valid f2mat text of 0-5 rows and 0-10 columns, then up to three
    inserted or deleted characters or truncations, anywhere."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 10))
    lines = draw(st.lists(st.text("01", min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    text = f"f2mat {rows} {cols}\n" + "".join(line + "\n" for line in lines)
    for _ in range(draw(st.integers(0, 3))):
        # counted from the end, where the rows are
        at = len(text) - draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(_MUTATION_CHARS)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at]
    return text


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(_mutated_f2mat())
def test_f2mat_reader_matches_line_oracle(text):
    # a str and its ASCII-replaced bytes each give exactly the oracle's
    # matrix or exactly its message (the bytes quote '?' for a non-ASCII
    # character, as the oracle does on their decoded text)
    assert _outcome(BitMatrix.from_f2mat, text) == _outcome(_oracle_from_f2mat, text)
    data = text.encode("ascii", "replace")
    expected = _outcome(_oracle_from_f2mat, data.decode("ascii"))
    assert _outcome(BitMatrix.from_f2mat, data) == _outcome(BitMatrix.from_f2mat, bytearray(data)) == expected
