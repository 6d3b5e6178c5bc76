from __future__ import annotations

import random

from f2rank.gf2 import BitMatrix
from f2rank.graph import Graph


def random_bitmatrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def xor_matrices(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Entrywise sum over GF(2) of two matrices of one shape."""
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return BitMatrix(a.rows, a.cols, [x ^ y for x, y in zip(a.row_ints(), b.row_ints())])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g under a seeded random relabelling of its vertices."""
    return Graph(g.adj.conjugate(rng.sample(range(g.order), g.order)))


def xor_combinations(rows: list[int]) -> set[int]:
    """All 2^len(rows) XOR combinations, enumerated explicitly."""
    out = set()
    for mask in range(1 << len(rows)):
        acc = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                acc ^= rows[i]
            m >>= 1
            i += 1
        out.add(acc)
    return out


def alternating_rank_counts(n: int) -> list[int]:
    """counts[r] = number of n x n alternating matrices over GF(2) of rank r.

    MacWilliams, "Orthogonal matrices over finite fields" (1969): rank 2k
    occurs 2^(k(k-1)) * prod_{i<2k} (2^(n-i) - 1) / prod_{i=1..k} (2^(2i) - 1)
    times, and odd ranks never occur.
    """
    counts = [0] * (n + 1)
    for k in range(n // 2 + 1):
        num = 1 << (k * (k - 1))
        for i in range(2 * k):
            num *= (1 << (n - i)) - 1
        den = 1
        for i in range(1, k + 1):
            den *= (1 << (2 * i)) - 1
        counts[2 * k] = num // den
    return counts
