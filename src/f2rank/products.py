"""Kronecker and parity products on GF(2) matrices, plus the +/-1 sign map.

Both products use the same left-major block layout: block (i, j) of the
result covers rows i*rows(B)..(i+1)*rows(B) and the composite row index
of (i, k) is i*rows(B)+k.  The sign map sends 0 to +1 and 1 to -1, turning
XOR of bits into multiplication of signs; under this bijection the parity
product is exactly the real Kronecker product of the signed matrices.
"""

from __future__ import annotations

import numpy as np

from .gf2 import BitMatrix
from .graph import Graph


class SignMatrix:
    """Dense matrix whose entries are all +1 or -1 (exact integers)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        if not np.isin(arr, (-1, 1)).all():
            raise ValueError("entries must be +1 or -1")
        self.array = arr

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def kronecker(self, other: SignMatrix) -> SignMatrix:
        """Real Kronecker product, exact integer arithmetic."""
        return SignMatrix(np.kron(self.array, other.array))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SignMatrix) and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"SignMatrix({self.rows}x{self.cols})"


def sign_map(m: BitMatrix) -> SignMatrix:
    """Entrywise 0 -> +1, 1 -> -1."""
    return SignMatrix(1 - 2 * m.to_bool_array().astype(np.int64))


def unsign_map(s: SignMatrix) -> BitMatrix:
    """Inverse of sign_map: +1 -> 0, -1 -> 1."""
    return BitMatrix.from_bool_array((1 - s.array) // 2)


def kronecker(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) Kronecker product: block (i, j) is b when a[i][j]=1, else zero."""
    return BitMatrix.from_bool_array(np.kron(a.to_bool_array(), b.to_bool_array()))


def parity_product(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Blockwise XOR product: block (i, j) is b with every entry XOR a[i][j]."""
    x, y = a.to_bool_array(), b.to_bool_array()
    blocks = x[:, None, :, None] ^ y[None, :, None, :]  # axes (i, k, j, l)
    return BitMatrix.from_bool_array(blocks.reshape(a.rows * b.rows, a.cols * b.cols))


def parity_product_graph(g: Graph, h: Graph) -> Graph:
    """Graph on V(g) x V(h); (a,x) ~ (b,y) iff exactly one of a~b, x~y."""
    return Graph(parity_product(g.adj, h.adj))

