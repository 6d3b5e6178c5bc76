from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2rank.gf2 import BitMatrix, rank
from f2rank.graph import Graph, is_negation_free, is_twin_free
from f2rank.products import (
    SignMatrix,
    kronecker,
    parity_product,
    parity_product_graph,
    sign_map,
    unsign_map,
)
from f2rank.constructions import g2

from conftest import random_bitmatrix, random_graph, xor_matrices


def swap_operands_permutation(n: int, m: int) -> list[int]:
    """Index map from the (n,m)-major composite order to the (m,n)-major one.

    perm[i*m + k] = k*n + i, so conjugating the B-major product by it
    reproduces the A-major product; states commutativity of the parity
    product up to operand swap.
    """
    perm = [0] * (n * m)
    for i in range(n):
        for k in range(m):
            perm[i * m + k] = k * n + i
    return perm


def test_sign_map_displayed_matrix():
    expected = np.array(
        [[1, -1, -1, 1], [-1, 1, -1, 1], [-1, -1, 1, 1], [1, 1, 1, 1]], dtype=np.int64
    )
    assert np.array_equal(sign_map(g2().adj).array, expected)


def test_sign_map_round_trip():
    rng = random.Random(20)
    assert sign_map(BitMatrix.from_strings(["00"])).array.tolist() == [[1, 1]]
    for _ in range(20):
        m = random_bitmatrix(rng, 8, 8)
        assert unsign_map(sign_map(m)) == m
    with pytest.raises(ValueError):
        SignMatrix(np.array([[1, 0], [1, 1]]))


def test_kronecker_identities():
    rng = random.Random(21)
    b = random_bitmatrix(rng, 3, 4)
    assert kronecker(BitMatrix.from_strings(["1"]), b) == b
    assert kronecker(BitMatrix.zeros(2, 2), b) == BitMatrix.zeros(6, 8)


def test_kronecker_rank_multiplicative():
    rng = random.Random(22)
    for _ in range(60):
        a = random_bitmatrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        b = random_bitmatrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        assert rank(kronecker(a, b)) == rank(a) * rank(b)


def test_parity_product_identities():
    rng = random.Random(23)
    b = random_bitmatrix(rng, 3, 3)
    assert parity_product(BitMatrix.from_strings(["0"]), b) == b
    complemented = parity_product(BitMatrix.from_strings(["1"]), b)
    full = BitMatrix.from_bool_array(np.ones((3, 3), dtype=bool))
    assert complemented == xor_matrices(b, full)


@settings(max_examples=80)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**64 - 1))
def test_product_entry_semantics(n, nc, m, mc, seed):
    # definitional oracle: entry (i*mr+k, j*mcols+l) is a[i][j] op b[k][l]
    rng = random.Random(seed)
    a = random_bitmatrix(rng, n, nc)
    b = random_bitmatrix(rng, m, mc)
    par = parity_product(a, b)
    kro = kronecker(a, b)
    for i, j, k, l in itertools.product(range(n), range(nc), range(m), range(mc)):
        assert par.get(i * m + k, j * mc + l) == a.get(i, j) ^ b.get(k, l)
        assert kro.get(i * m + k, j * mc + l) == a.get(i, j) & b.get(k, l)


def test_products_with_empty_operands():
    b = random_bitmatrix(random.Random(26), 3, 2)
    for a in (BitMatrix(0, 4), BitMatrix(2, 0), BitMatrix(0, 0)):
        for left, right in ((a, b), (b, a)):
            shape = (left.rows * right.rows, left.cols * right.cols)
            assert parity_product(left, right) == BitMatrix(*shape)
            assert kronecker(left, right) == BitMatrix(*shape)


def test_parity_product_block_layout():
    # with the left-major layout, block (0,0) of g2 [+] g2 is g2 itself
    a = g2().adj
    prod = parity_product(a, a)
    assert prod.submatrix(list(range(4)), list(range(4))) == a


def test_sign_map_identity():
    rng = random.Random(24)
    for _ in range(40):
        a = random_bitmatrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        b = random_bitmatrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        lhs = parity_product(a, b)
        rhs = unsign_map(sign_map(a).kronecker(sign_map(b)))
        assert lhs == rhs


def test_parity_commutes_up_to_swap_permutation():
    rng = random.Random(25)
    for _ in range(20):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        a = random_bitmatrix(rng, n, n)
        b = random_bitmatrix(rng, m, m)
        ab = parity_product(a, b)
        ba = parity_product(b, a)
        perm = swap_operands_permutation(n, m)
        assert ba.conjugate(perm) == ab


def test_parity_product_graph_basics():
    gg = parity_product_graph(g2(), g2())
    assert gg.order == 16 and gg.rank() == 4
    k1 = Graph.empty(1)
    h = random_graph(random.Random(26), 5)
    assert parity_product_graph(k1, h) == h
    # isolated x isolated stays isolated
    assert gg.degree(15) == 0


def test_parity_rank_subadditive():
    rng = random.Random(27)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(1, 11))
        h = random_graph(rng, rng.randrange(1, 11))
        prod = parity_product_graph(g, h)
        assert prod.rank() <= g.rank() + h.rank()


def _tn_free_pool(rng: random.Random, want: int) -> list:
    pool = [g2()]
    while len(pool) < want:
        g = random_graph(rng, rng.randrange(2, 9))
        if is_twin_free(g) and is_negation_free(g):
            pool.append(g)
    return pool


def test_parity_closure_twin_and_negation_free():
    rng = random.Random(28)
    pool = _tn_free_pool(rng, 8)
    for g in pool:
        for h in pool:
            prod = parity_product_graph(g, h)
            assert is_twin_free(prod) and is_negation_free(prod)
