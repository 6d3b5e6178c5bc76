"""Builders for the concrete graph families of minimal GF(2)-rank."""

from __future__ import annotations

from itertools import combinations

from .codes import g2_power_codes, odd_family_codes, standard_form
from .gf2 import BitMatrix
from .graph import Graph, line_graph


def g2() -> Graph:
    """Triangle plus one isolated vertex: order 4, GF(2)-rank 2.

    The isolated vertex is last, so the adjacency rows are
    0110 / 1010 / 1100 / 0000.
    """
    return Graph(BitMatrix.from_strings(["0110", "1010", "1100", "0000"]))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


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
    return Graph(standard_form(g2_power_codes(m)))


def linegraph_clique_plus_isolated(k: int) -> Graph:
    """Line graph of the complete graph K_k with one isolated vertex appended.

    Order is C(k,2)+1; for k=6 this is a 16-vertex graph of rank 4.
    """
    if k < 5:
        raise ValueError("k must be >= 5")
    return line_graph(complete_graph(k)).add_isolated_vertex()


def extremal_odd_plus_one(n: int) -> Graph:
    """Twin-free graph of order 2^n and rank n+1, for odd n >= 3.

    The parity product of an edge with A = g2_power(k), k = (n-1)/2, is the
    block form [A | ~A ; ~A | A]: the standard form on A's codes with top
    bit pair 01, then 10: the complement of the hyperplane x_2k + x_2k+1 = 0.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    return Graph(standard_form(odd_family_codes(n)))
