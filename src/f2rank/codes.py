"""The code-set view A = X^T J X: a symmetric zero-diagonal matrix whose
rows list a linear subspace once each is the standard alternating form on
one code per vertex, entry (i, j) = parity(c_i & J c_j) with J swapping
code bits 2t and 2t + 1.  Only this module knows that layout: the family
code sets, the form on a code set, its exact check, and the extraction of
the codes of a matrix, which that check certifies.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .gf2 import BitMatrix, echelon, rank

# code bits (2t, 2t + 1) of base-4 digit t: 0 -> 01, 1 -> 10, 2 -> 11, 3 -> 00
_G2_CODES = np.array([2, 1, 3, 0])
_BLOCK_ROWS = 128  # rows per block of the compare in subspace_codes


def g2_power_codes(m: int) -> np.ndarray:
    """The code of every vertex of g2_power(m), one base-4 digit per bit pair."""
    v = np.arange(4**m)
    codes = np.zeros_like(v)
    for t in range(m):
        codes |= _G2_CODES[(v >> 2 * t) & 3] << 2 * t
    return codes


def odd_family_codes(n: int) -> np.ndarray:
    """The codes of extremal_odd_plus_one(n), the complement of a hyperplane."""
    k = (n - 1) // 2
    codes = g2_power_codes(k)
    return np.concatenate([codes | 1 << 2 * k, codes | 2 << 2 * k])


def standard_form_blocks(codes: np.ndarray, block_rows: int) -> Iterator[np.ndarray]:
    """The packed rows of the standard alternating form on codes, block_rows
    rows at a time.

    codes holds one nonnegative integer per vertex.  Row i is the XOR, over
    the set bits b of c_i, of the packed row holding bit b ^ 1 of every
    code, read from one table of those XORs per byte of code bits.
    """
    width = int(codes.max(initial=0)).bit_length()
    bits = (codes >> (np.arange(width) ^ 1)[:, None]) & 1
    flipped = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    tables = []
    for lo in range(0, max(width, 1), 8):
        table = np.zeros((1 << min(width - lo, 8), flipped.shape[1]), dtype=np.uint8)
        for t, col in enumerate(flipped[lo : lo + 8]):
            np.bitwise_xor(table[: 1 << t], col, out=table[1 << t : 2 << t])
        tables.append(table)
    for lo in range(0, len(codes), block_rows):
        block = codes[lo : lo + block_rows]
        rows = tables[0].take(block & 255, axis=0)
        for t in range(1, len(tables)):
            rows ^= tables[t].take((block >> 8 * t) & 255, axis=0)
        yield rows


def standard_form(codes: np.ndarray) -> BitMatrix:
    """The standard alternating form on codes, as one square matrix."""
    (packed,) = standard_form_blocks(codes, codes.size)
    return BitMatrix.from_packed(packed, codes.size)


def is_standard_form(a: BitMatrix, codes: np.ndarray, block_rows: int) -> bool:
    """True iff the order of a is 4^m, codes list range(4^m) once each and
    a is the standard form on them.

    The rows of the form are built block_rows at a time and compared with
    the packed rows of a, so no order x order array is built.
    """
    order = a.rows
    if order & (order - 1) or order.bit_length() % 2 == 0:
        return False
    if not np.array_equal(np.sort(codes), np.arange(order)):
        return False
    for lo, want in zip(range(0, order, block_rows), standard_form_blocks(codes, block_rows)):
        if not np.array_equal(want, a.packed[lo : lo + block_rows]):
            return False
    return True


def _xor_rows(row_ints: Sequence[int], x: int) -> int:
    """XOR of the rows selected by the set bits of x."""
    acc = 0
    for i, r in enumerate(row_ints):
        if (x >> i) & 1:
            acc ^= r
    return acc


def subspace_codes(m: BitMatrix) -> tuple[list[int], np.ndarray] | None:
    """The basis (the rows that become pivots of gf2.echelon) and the codes
    of a symmetric zero-diagonal m whose rows list a linear subspace once
    each, else None.  A row's code is its coordinates in a symplectic basis.

    Such an m has a zero row, order N = 2^n and basis P its first n
    independent rows.  With k_i the coordinates of row i in P, entry (i, j)
    is k_i^T M k_j where M = m[P, P], a nondegenerate alternating form, and
    y_i = row i restricted to the columns P is k_i^T M.  Symplectic
    Gram-Schmidt on M in a fixed order (the lowest remaining vector u, the
    first remaining v with M(u, v) = 1, the rest made orthogonal to both)
    gives pairs (u_a, v_a).  Code bit 2a is y_i . v_a and bit 2a+1 is
    y_i . u_a, k_i's coordinates on u_a and v_a, so the codes list range(N)
    and m is the standard form on them.  Conversely, if that holds, the rows
    are the images of GF(2)^n under the injective map c -> <c, J .>: one
    is_standard_form decides.  Costs O(N n), O(n^3) on M, and the compare.
    Raises ValueError if m is not square, or if its rows list a subspace
    and M is not a nondegenerate alternating form (never so if m is
    symmetric with zero diagonal).
    """
    if m.rows != m.cols:
        raise ValueError("symplectic coordinates need a square matrix")
    order = m.rows
    # only an order 2^n with a zero row can list a subspace: most inputs stop here
    if order & (order - 1) or m.packed.any(axis=1).all():
        return None
    n = order.bit_length() - 1
    basis = echelon((m.row_int(i) for i in range(order)), n)[1]
    if len(basis) < n:
        return None
    p = np.asarray(basis, dtype=np.intp)
    y = ((m.packed[:, p >> 3] >> (p & 7)) & 1).astype(np.int64)
    form = y[p]
    # vectors of GF(2)^n are n-bit integers; M(x, z) is the parity of x & Mz
    form_rows = (form << np.arange(n)).sum(axis=1).tolist()
    alternating = np.array_equal(form, form.T) and not form.diagonal().any()
    remaining = [1 << i for i in range(n)] if alternating else []
    pairs = []  # v_0, u_0, v_1, u_1, ...
    while remaining:
        u = remaining.pop(0)
        mu = _xor_rows(form_rows, u)
        k = next((k for k, w in enumerate(remaining) if (w & mu).bit_count() & 1), None)
        if k is None:  # M is degenerate
            break
        v = remaining.pop(k)
        mv = _xor_rows(form_rows, v)
        # w + M(w, v) u + M(w, u) v is orthogonal to both u and v
        remaining = [
            w ^ (u if (w & mv).bit_count() & 1 else 0) ^ (v if (w & mu).bit_count() & 1 else 0)
            for w in remaining
        ]
        pairs += [v, u]
    if len(pairs) < n:
        # a symmetric zero-diagonal m gets here only when rank(m) > n
        if len(np.unique(m.packed, axis=0)) == order and rank(m) == n:
            raise ValueError("basis block is not a nondegenerate alternating form")
        return None
    columns = (np.array(pairs, dtype=np.int64) >> np.arange(n)[:, None]) & 1
    codes = (y @ columns & 1) @ (1 << np.arange(n, dtype=np.int64))
    return (basis, codes) if is_standard_form(m, codes, _BLOCK_ROWS) else None
