"""The code-set view A = X^T J X: a symmetric zero-diagonal matrix whose
rows list a linear subspace once each is the standard alternating form on
one code per vertex, entry (i, j) = parity(c_i & J c_j) with J swapping
code bits 2t and 2t + 1.  Only this module knows that layout: the family
code sets, the form on a code set, the exact check that a matrix is that
form, and the extraction of the codes from a matrix.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .gf2 import BitMatrix, echelon

# code bits (2t, 2t + 1) of base-4 digit t: 0 -> 01, 1 -> 10, 2 -> 11, 3 -> 00
_G2_CODES = np.array([2, 1, 3, 0])


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
    for lo in range(0, width, 8):
        table = np.zeros((1, flipped.shape[1]), dtype=np.uint8)
        for col in flipped[lo : lo + 8]:
            table = np.concatenate([table, table ^ col])
        tables.append(table)
    for lo in range(0, len(codes), block_rows):
        block = codes[lo : lo + block_rows]
        rows = np.zeros((block.size, flipped.shape[1]), dtype=np.uint8)
        for t, table in enumerate(tables):
            rows ^= table[(block >> 8 * t) & 255]
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

    With P the basis and k_i the coordinates of row i in it, entry (i, j)
    is k_i^T M k_j where M = m[P, P], a nondegenerate alternating form,
    and y_i = row i restricted to the columns P is k_i^T M.  Symplectic
    Gram-Schmidt on M in a fixed order (the lowest remaining vector u, the
    first remaining v with M(u, v) = 1, the rest made orthogonal to both)
    gives pairs (u_a, v_a).  Code bit 2a is y_i . v_a and bit 2a+1 is
    y_i . u_a, k_i's coordinates on u_a and v_a, so m is the standard form
    on the codes, and the codes are a linear bijection of the y_i onto
    range(2^n).  Costs O(N n) after the elimination, plus O(n^3).
    """
    if m.rows != m.cols:
        raise ValueError("symplectic coordinates need a square matrix")
    # distinct rows in a span of 2^rank vectors list all of it, zero included;
    # the zero-row test first skips most eliminations and integer conversions
    if m.packed.any(axis=1).all():
        return None
    rows = m.row_ints()
    if len(set(rows)) != m.rows:
        return None
    basis = echelon(rows)[1]
    if m.rows != 1 << len(basis):
        return None
    n = len(basis)
    p = np.asarray(basis, dtype=np.intp)
    y = ((m.packed[:, p >> 3] >> (p & 7)) & 1).astype(np.int64)
    form = y[p]
    if not np.array_equal(form, form.T) or form.diagonal().any():
        raise ValueError("basis block is not an alternating form")
    # vectors of GF(2)^n are n-bit integers; M(x, z) is the parity of x & Mz
    form_rows = (form << np.arange(n)).sum(axis=1).tolist()
    remaining = [1 << i for i in range(n)]
    pairs = []  # v_0, u_0, v_1, u_1, ...
    while remaining:
        u = remaining.pop(0)
        mu = _xor_rows(form_rows, u)
        k = next((k for k, w in enumerate(remaining) if (w & mu).bit_count() & 1), None)
        if k is None:
            raise ValueError("basis block is a degenerate form")
        v = remaining.pop(k)
        mv = _xor_rows(form_rows, v)
        # w + M(w, v) u + M(w, u) v is orthogonal to both u and v
        remaining = [
            w ^ (u if (w & mv).bit_count() & 1 else 0) ^ (v if (w & mu).bit_count() & 1 else 0)
            for w in remaining
        ]
        pairs += [v, u]
    columns = (np.array(pairs, dtype=np.int64) >> np.arange(n)[:, None]) & 1
    return basis, (y @ columns & 1) @ (1 << np.arange(n, dtype=np.int64))
