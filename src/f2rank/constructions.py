"""Builders for the concrete graph families of minimal GF(2)-rank."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .gf2 import BitMatrix, standard_form_blocks
from .graph import Graph, line_graph
from .products import parity_product_graph


def g2() -> Graph:
    """Triangle plus one isolated vertex: order 4, GF(2)-rank 2.

    The isolated vertex is last, so the adjacency rows are
    0110 / 1010 / 1100 / 0000.
    """
    return Graph(BitMatrix.from_strings(["0110", "1010", "1100", "0000"]))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


# code bits (2t, 2t + 1) of base-4 digit t: 0 -> 01, 1 -> 10, 2 -> 11, 3 -> 00
_G2_CODES = np.array([2, 1, 3, 0])


def g2_power(m: int) -> Graph:
    """Left-associated parity-product power of g2: order 4^m, rank 2m.

    Vertex v of the power is the tuple of base-4 digits of v, and two
    vertices are adjacent iff an odd number of digit pairs are adjacent in
    g2.  Mapping g2's triangle to the three nonzero vectors of GF(2)^2 and
    its isolated vertex to zero makes each digit pair's adjacency the
    standard alternating form on two bits, so the power is the standard
    form on the 2m-bit codes, built directly on packed rows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    v = np.arange(4**m)
    codes = np.zeros_like(v)
    for t in range(m):
        codes |= _G2_CODES[(v >> 2 * t) & 3] << 2 * t
    (packed,) = standard_form_blocks(codes, 2 * m, v.size)
    return Graph(BitMatrix.from_packed(packed, v.size))


def linegraph_clique_plus_isolated(k: int) -> Graph:
    """Line graph of the complete graph K_k with one isolated vertex appended.

    Order is C(k,2)+1; for k=6 this is a 16-vertex graph of rank 4.
    """
    if k < 5:
        raise ValueError("k must be >= 5")
    return line_graph(complete_graph(k)).add_isolated_vertex()


def extremal_odd_plus_one(n: int) -> Graph:
    """Twin-free graph of order 2^n and rank n+1, for odd n >= 3.

    The adjacency matrix is the block form [A | ~A ; ~A | A] with A the
    adjacency of g2_power((n-1)/2), i.e. the parity product of a single
    edge with that power.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    k2 = Graph.from_edges(2, [(0, 1)])
    return parity_product_graph(k2, g2_power((n - 1) // 2))
