"""Simple undirected graphs over a bit-packed adjacency matrix.

A Graph wraps a symmetric, zero-diagonal BitMatrix.  The row of vertex v
is the indicator vector of its neighbourhood, so twin and negation checks
are set operations on packed rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf2 import BitMatrix, rank_of_row_ints


class NotSymmetricError(ValueError):
    """Adjacency matrix is not symmetric."""


class NonzeroDiagonalError(ValueError):
    """Adjacency matrix has a nonzero diagonal entry."""


class Graph6FormatError(ValueError):
    """Raised when graph6 text input is malformed."""


class Graph:
    """Immutable simple graph; adj is validated on construction."""

    __slots__ = ("adj",)

    def __init__(self, adj: BitMatrix):
        if adj.rows != adj.cols:
            raise NotSymmetricError("adjacency matrix must be square")
        n = adj.rows
        arr = adj.to_bool_array()
        # an offending entry is a diagonal 1 or an entry that differs from
        # its transpose; report the first one in row-major order
        bad = arr != arr.T
        np.fill_diagonal(bad, arr.diagonal())
        if bad.any():
            i, j = divmod(int(bad.argmax()), n)
            if i == j:
                raise NonzeroDiagonalError(f"diagonal entry ({i},{i}) is 1")
            raise NotSymmetricError(f"entries ({i},{j}) and ({j},{i}) differ")
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> Graph:
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise NonzeroDiagonalError("self-loop")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(BitMatrix(n, n, rows))

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(BitMatrix.zeros(n, n))

    @property
    def order(self) -> int:
        return self.adj.rows

    def row_ints(self) -> list[int]:
        return self.adj.row_ints()

    def neighbors(self, v: int) -> list[int]:
        return self.adj.row(v).support(1)

    def degree(self, v: int) -> int:
        return self.adj.popcount_row(v)

    def common_neighbors(self, u: int, v: int) -> int:
        return (self.adj.row_int(u) & self.adj.row_int(v)).bit_count()

    def edge_count(self) -> int:
        return sum(self.adj.popcount_row(i) for i in range(self.order)) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.order):
            r = self.adj.row_int(i) >> (i + 1)
            j = i + 1
            while r:
                if r & 1:
                    out.append((i, j))
                r >>= 1
                j += 1
        return out

    def isolated_vertices(self) -> list[int]:
        return [i for i in range(self.order) if self.adj.row_int(i) == 0]

    def add_isolated_vertex(self) -> Graph:
        n = self.order
        rows = self.adj.row_ints() + [0]
        return Graph(BitMatrix(n + 1, n + 1, rows))

    def remove_vertex(self, v: int) -> Graph:
        keep = [i for i in range(self.order) if i != v]
        return Graph(self.adj.submatrix(keep, keep))

    def remove_vertices(self, drop: Sequence[int]) -> Graph:
        gone = set(drop)
        keep = [i for i in range(self.order) if i not in gone]
        return Graph(self.adj.submatrix(keep, keep))

    def rank(self) -> int:
        return rank_of_row_ints(self.adj.row_ints(), self.order)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count()})"


def is_twin_free(g: Graph) -> bool:
    """No two vertices share an identical neighbour set.

    Row equality is the whole story: in a loopless graph N(u) = N(v)
    already forces u and v non-adjacent (u in N(v) would put u in N(u)),
    so adjacent twins need no separate treatment.
    """
    rows = g.adj.row_ints()
    return len(set(rows)) == len(rows)


def is_negation_free(g: Graph) -> bool:
    """No neighbour set is the complement (within V) of another."""
    n = g.order
    full = (1 << n) - 1
    rows = set(g.adj.row_ints())
    return not any((r ^ full) in rows for r in rows)


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of g; two edges adjacent iff they share an endpoint.

    Vertices are the edges of g in lexicographic endpoint order (i < j).
    """
    edges = g.edges()
    if not edges:
        raise ValueError("line graph needs at least one edge")
    m = len(edges)
    rows = [0] * m
    for a in range(m):
        ua, va = edges[a]
        ea = {ua, va}
        for b in range(a + 1, m):
            ub, vb = edges[b]
            if len(ea & {ub, vb}) == 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return Graph(BitMatrix(m, m, rows))


# ---------------------------------------------------------------------------
# graph6 encoding
# ---------------------------------------------------------------------------

_G6_MAX = 1 << 18


def _g6_size_bytes(n: int) -> bytes:
    if n < 0 or n >= _G6_MAX:
        raise ValueError(f"graph6 supports 0 <= n < {_G6_MAX}")
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def _upper_triangle_bits(g: Graph) -> np.ndarray:
    """Upper-triangle entries in column order (0,1),(0,2),(1,2),(0,3),..."""
    arr = g.adj.to_bool_array()
    n = g.order
    if n < 2:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate([arr[:j, j] for j in range(1, n)])


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 line (no header, no trailing newline)."""
    n = g.order
    bits = _upper_triangle_bits(g)
    pad = (-len(bits)) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, 6)
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    body = (groups * weights).sum(axis=1, dtype=np.int64) + 63
    return _g6_size_bytes(n).decode("ascii") + "".join(chr(c) for c in body)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line; the optional '>>graph6<<' header is accepted."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6FormatError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise Graph6FormatError("character out of graph6 range")
    if data[0] == 63:  # byte 126: long size form
        if len(data) < 4:
            raise Graph6FormatError("truncated size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    n_bits = n * (n - 1) // 2
    if len(body) != (n_bits + 5) // 6:
        raise Graph6FormatError(
            f"expected {(n_bits + 5) // 6} data characters for n={n}, got {len(body)}"
        )
    if n == 0:
        return Graph.empty(0)
    vals = np.array(body, dtype=np.uint8)
    bits = np.unpackbits(vals.reshape(-1, 1), axis=1, bitorder="big")[:, 2:].reshape(-1)
    bits = bits[:n_bits]
    arr = np.zeros((n, n), dtype=np.uint8)
    pos = 0
    for j in range(1, n):
        arr[:j, j] = bits[pos : pos + j]
        pos += j
    arr |= arr.T
    return Graph(BitMatrix.from_bool_array(arr))
