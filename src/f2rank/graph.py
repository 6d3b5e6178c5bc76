"""Simple undirected graphs over a bit-packed adjacency matrix.

A Graph wraps a symmetric, zero-diagonal BitMatrix.  The row of vertex v
is the indicator vector of its neighbourhood, so twin and negation checks
are set operations on packed rows.
"""

from __future__ import annotations

import binascii
import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gf2 import BitMatrix, rank_of_row_ints


class NotSymmetricError(ValueError):
    """Adjacency matrix is not symmetric."""


class NonzeroDiagonalError(ValueError):
    """Adjacency matrix has a nonzero diagonal entry."""


class Graph6FormatError(ValueError):
    """Raised when graph6 text input is malformed."""


_BIT = np.uint8(1) << np.arange(8, dtype=np.uint8)  # bit j of a packed byte


def first_offence(adj: BitMatrix) -> tuple[int, int] | None:
    """First entry of a square adj in row-major order that is a diagonal 1
    or differs from its transpose, or None.

    Offences come in mirrored pairs, so the first lies on or above the
    diagonal.  It is the lowest set bit of the first nonzero byte of the
    packed rows of adj XOR its transpose, with the diagonal of adj put in.
    """
    packed = adj.packed
    diff = packed ^ adj.transpose().packed
    # diagonal entry i is bit i % 8 of byte i * row_bytes + i // 8
    v = np.arange(adj.rows)
    at = v * diff.shape[1] + (v >> 3)
    flat = diff.reshape(-1)
    flat[at] |= packed.reshape(-1)[at] & _BIT[v & 7]
    if not flat.any():
        return None
    k = int(flat.astype(bool).argmax())
    i, byte = divmod(k, diff.shape[1])
    low = int(flat[k])
    return i, 8 * byte + (low & -low).bit_length() - 1


class Graph:
    """Immutable simple graph; adj is validated on construction."""

    __slots__ = ("adj",)

    def __init__(self, adj: BitMatrix):
        if adj.rows != adj.cols:
            raise NotSymmetricError("adjacency matrix must be square")
        offence = first_offence(adj)
        if offence is not None:
            i, j = offence
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

    def neighbors(self, v: int) -> list[int]:
        return self.adj.row(v).support(1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.order:
            raise IndexError(f"row {v} out of range")
        return int(np.bitwise_count(self.adj.packed[v]).sum())

    def common_neighbors(self, u: int, v: int) -> int:
        return (self.adj.row_int(u) & self.adj.row_int(v)).bit_count()

    def edge_count(self) -> int:
        return int(np.bitwise_count(self.adj.packed).sum()) // 2

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
        return np.flatnonzero(~self.adj.packed.any(axis=1)).tolist()

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
        return rank_of_row_ints(self.adj.packed, self.order)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count()})"


def _distinct_rows(packed: np.ndarray) -> int:
    """Number of distinct rows of a C-contiguous 2-D uint8 array."""
    if not packed.shape[1]:
        return min(len(packed), 1)
    return np.unique(packed.view(np.dtype((np.void, packed.shape[1])))).size


def is_twin_free(g: Graph) -> bool:
    """No two vertices share an identical neighbour set.

    Row equality is the whole story: in a loopless graph N(u) = N(v)
    already forces u and v non-adjacent (u in N(v) would put u in N(u)),
    so adjacent twins need no separate treatment.
    """
    return _distinct_rows(g.adj.packed) == g.order


def is_negation_free(g: Graph) -> bool:
    """No neighbour set is the complement (within V) of another.

    A row and its complement differ in column 0, so keying each row by
    whichever of the two has column 0 clear maps two distinct rows to one
    key exactly when they are complements.
    """
    rows = g.adj.packed
    full = BitMatrix(1, g.order, [(1 << g.order) - 1]).packed
    keys = rows ^ (rows[:, :1] & 1) * full
    return _distinct_rows(keys) == _distinct_rows(rows)


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of g; two edges adjacent iff they share an endpoint.

    Vertices are the edges of g in lexicographic endpoint order (i < j).
    inc[w] holds the edges at w, so inc[u] ^ inc[v] is every edge sharing
    exactly one endpoint with (u, v): itself cancels, and in a simple
    graph no other edge has both.
    """
    edges = g.edges()
    if not edges:
        raise ValueError("line graph needs at least one edge")
    inc = [0] * g.order
    for e, (u, v) in enumerate(edges):
        inc[u] |= 1 << e
        inc[v] |= 1 << e
    m = len(edges)
    return Graph(BitMatrix(m, m, [inc[u] ^ inc[v] for u, v in edges]))


# ---------------------------------------------------------------------------
# graph6 encoding
# ---------------------------------------------------------------------------

_G6_MAX = 1 << 18
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_TRIANGLE_BLOCK = 1 << 20  # triangle entries unpacked at a time


def _g6_size_bytes(n: int) -> bytes:
    if n < 0 or n >= _G6_MAX:
        raise ValueError(f"graph6 supports 0 <= n < {_G6_MAX}")
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def _triangle_blocks(n: int):
    """Row ranges [lo, hi) of the strict lower triangle of order n, with
    the mask j < i of each as a (hi - lo) x hi bool array.

    A range holds about _TRIANGLE_BLOCK entries, and lo is a multiple of
    16, where the triangle's row-major bit stream is at a byte boundary
    (16a(16a - 1)/2 = 8a(16a - 1)), so each range packs to whole bytes of
    that stream, the last one excepted.  Row i of a mask is the window at
    n - i of n ones followed by n zeros, so the masks are views.
    """
    ones = np.arange(2 * n) < n
    lo = 0
    while lo < n:
        hi = min(n, max(lo + 16, math.isqrt(2 * _TRIANGLE_BLOCK + lo * lo)) // 16 * 16)
        yield lo, hi, sliding_window_view(ones, hi)[n - lo : n - hi : -1]
        lo = hi


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 line (no header, no trailing newline).

    graph6 lists the upper triangle column by column, (0,1),(0,2),(1,2),...;
    in a symmetric matrix that is the strict lower triangle row by row.
    That bit stream, big-endian and zero-padded to a whole number of 6-bit
    groups, is the body read as base64 under the alphabet chr(63..126).
    """
    n = g.order
    n_bits = n * (n - 1) // 2
    stream = np.zeros(-(-n_bits // 24) * 3, dtype=np.uint8)  # whole base64 groups
    for lo, hi, lower in _triangle_blocks(n):
        rows = np.unpackbits(g.adj.packed[lo:hi, : (hi + 7) // 8], axis=1, count=hi, bitorder="little")
        bits = np.packbits(rows[lower])
        stream[lo * (lo - 1) // 16 :][: bits.size] = bits
    body = binascii.b2a_base64(stream.tobytes(), newline=False).translate(_TO_G6)
    return (_g6_size_bytes(n) + body[: -(-n_bits // 6)]).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line; the optional '>>graph6<<' header is accepted.

    The body is base64 of the strict lower triangle's bit stream (see
    to_graph6); the triangle is unpacked into packed rows L a block of rows
    at a time, and the adjacency is L | L^T.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6FormatError("empty graph6 string")
    raw = s.encode("ascii", "replace")
    # bytes below '?' wrap above 63
    data = np.frombuffer(raw, dtype=np.uint8) - 63
    if not s.isascii() or (data > 63).any():
        raise Graph6FormatError("character out of graph6 range")
    if data[0] == 63:  # byte 126: long size form
        if len(data) < 4:
            raise Graph6FormatError("truncated size field")
        hi, mid, lo = data[1:4].tolist()
        n = (hi << 12) | (mid << 6) | lo
        body = raw[4:]
    else:
        n = int(data[0])
        body = raw[1:]
    n_bits = n * (n - 1) // 2
    if len(body) != (n_bits + 5) // 6:
        raise Graph6FormatError(
            f"expected {(n_bits + 5) // 6} data characters for n={n}, got {len(body)}"
        )
    # 'A' is base64 for six zero bits: it completes the last group
    body = body.translate(_FROM_G6) + b"A" * (-len(body) % 4)
    stream = np.frombuffer(binascii.a2b_base64(body), dtype=np.uint8)
    lower = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    for lo, hi, mask in _triangle_blocks(n):
        rows = np.zeros(mask.shape, dtype=np.uint8)
        first = lo * (lo - 1) // 2
        rows[mask] = np.unpackbits(stream[first // 8 :], count=hi * (hi - 1) // 2 - first)
        lower[lo:hi, : (hi + 7) // 8] = np.packbits(rows, axis=1, bitorder="little")
    tri = BitMatrix.from_packed(lower, n)
    return Graph(BitMatrix.from_packed(lower | tri.transpose().packed, n))
