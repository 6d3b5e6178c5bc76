"""Bit-packed dense linear algebra over GF(2).

A BitVector keeps its bits in one Python integer (coordinate i at bit
i).  A BitMatrix keeps a read-only array of packed bytes, little-endian
within each byte, so bulk work (products, codecs, gathers, Four-Russians
rank) is numpy on that array; integer rows are built on demand for the
elimination by leading bit and for the small-graph helpers.  All public
operations are pure: they never mutate their inputs and padding bits
beyond the declared length are always zero.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np


class F2MatFormatError(ValueError):
    """Raised when f2mat text input is malformed."""


_PARSE_BYTES = 1 << 20  # f2mat text checked and packed per block

# (shift, mask) of the three delta swaps that move bit 8r + c of a
# little-endian 64-bit word to bit 8c + r: an 8x8 bit transpose (0-d
# arrays, which numpy applies faster than its scalars)
_TRANSPOSE_SWAPS = [
    (np.array(shift, dtype=np.uint64), np.array(mask, dtype=np.uint64))
    for shift, mask in [(7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)]
]


def _mask(n: int) -> int:
    return (1 << n) - 1


def _ints(packed: np.ndarray) -> list[int]:
    """The rows of a packed (rows, bytes) uint8 array as integers."""
    data, n = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * n : (i + 1) * n], "little") for i in range(len(packed))]


class BitVector:
    """A length-n vector over GF(2), packed into one integer."""

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("negative length")
        if bits < 0 or bits >> n:
            raise ValueError("bits outside declared length")
        self.n = n
        self._bits = bits

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> BitVector:
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            value |= b << n
            n += 1
        return cls(n, value)

    @classmethod
    def from_string(cls, s: str) -> BitVector:
        """Parse '0110' style text; character j is coordinate j."""
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def zeros(cls, n: int) -> BitVector:
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> BitVector:
        return cls(n, _mask(n))

    @property
    def bits(self) -> int:
        return self._bits

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (self._bits >> i) & 1

    def set_bit(self, i: int, value: int = 1) -> BitVector:
        """Return a copy with coordinate i set to value."""
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        if value:
            return BitVector(self.n, self._bits | (1 << i))
        return BitVector(self.n, self._bits & ~(1 << i))

    def popcount(self) -> int:
        return self._bits.bit_count()

    def is_zero(self) -> bool:
        return self._bits == 0

    def complement(self) -> BitVector:
        return BitVector(self.n, self._bits ^ _mask(self.n))

    def support(self, b: int = 1) -> list[int]:
        """Ascending coordinates whose value equals b."""
        if b not in (0, 1):
            raise ValueError("b must be 0 or 1")
        bits = self._bits if b else self._bits ^ _mask(self.n)
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def slice(self, start: int, stop: int) -> BitVector:
        if not 0 <= start <= stop <= self.n:
            raise IndexError("bad slice bounds")
        width = stop - start
        return BitVector(width, (self._bits >> start) & _mask(width))

    def concat(self, other: BitVector) -> BitVector:
        return BitVector(self.n + other.n, self._bits | (other._bits << self.n))

    def to01(self) -> str:
        return format(self._bits, f"0{self.n}b")[::-1] if self.n else ""

    def __xor__(self, other: BitVector) -> BitVector:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self._bits ^ other._bits)

    def __and__(self, other: BitVector) -> BitVector:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self._bits & other._bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


class BitMatrix:
    """A rows x cols matrix over GF(2), stored as packed bytes.

    packed is a C-contiguous, read-only (rows, ceil(cols / 8)) uint8 array:
    entry (i, j) is bit j % 8 of byte j // 8 of row i, and bits past cols
    are zero.  An empty matrix holds a (0, 0) array, since its width may
    exceed any array dimension.
    """

    __slots__ = ("rows", "cols", "_packed")

    def __init__(self, rows: int, cols: int, row_ints: Sequence[int] | None = None):
        """The matrix whose row i has the bits of the integer row_ints[i]
        (bit j is entry (i, j)); all zero when row_ints is None."""
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        n_bytes = (cols + 7) // 8 if rows else 0
        if row_ints is None:
            packed = np.zeros((rows, n_bytes), dtype=np.uint8)
        else:
            if len(row_ints) != rows:
                raise ValueError("row count mismatch")
            try:
                data = bytearray().join(r.to_bytes(n_bytes, "little") for r in row_ints)
            except OverflowError:  # a negative row, or one wider than n_bytes
                raise ValueError("row bits outside declared width") from None
            packed = np.frombuffer(data, dtype=np.uint8).reshape(rows, n_bytes)
            if cols % 8 and (packed[:, -1:] >> cols % 8).any():
                raise ValueError("row bits outside declared width")
        self._init(packed, cols)

    def _init(self, packed: np.ndarray, cols: int) -> None:
        """Take packed, a (rows, ceil(cols / 8)) uint8 array with zero
        padding bits that nothing else writes, as the storage."""
        self.rows, self.cols = len(packed), cols
        # packbits keeps the memory order of its input, which a transpose flips
        self._packed = np.ascontiguousarray(packed if self.rows else packed.reshape(0, 0))
        self._packed.flags.writeable = False

    @classmethod
    def _wrap(cls, packed: np.ndarray, cols: int) -> BitMatrix:
        m = cls.__new__(cls)
        m._init(packed, cols)
        return m

    @classmethod
    def from_packed(cls, packed: np.ndarray, cols: int) -> BitMatrix:
        """The matrix whose row i is packed[i], a uint8 array laid out as
        BitMatrix.packed.  The matrix takes packed over (it becomes
        read-only) unless it must copy it into C order."""
        if packed.dtype != np.uint8 or packed.ndim != 2 or packed.shape[1] != (cols + 7) // 8:
            raise ValueError(f"packed rows of a {cols}-column matrix need {(cols + 7) // 8} bytes")
        if cols % 8 and (packed[:, -1] >> cols % 8).any():
            raise ValueError("row bits outside declared width")
        return cls._wrap(packed, cols)

    @classmethod
    def from_rows(cls, rows: Sequence[BitVector]) -> BitMatrix:
        if not rows:
            return cls(0, 0)
        cols = rows[0].n
        if any(v.n != cols for v in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, [v.bits for v in rows])

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> BitMatrix:
        return cls.from_rows([BitVector.from_string(s) for s in lines])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls.from_bool_array(np.eye(n, dtype=bool))

    @property
    def packed(self) -> np.ndarray:
        """The read-only packed rows."""
        return self._packed

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_int(i))

    def row_int(self, i: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return int.from_bytes(self._packed[i].tobytes(), "little")

    def row_ints(self) -> list[int]:
        """Row i as an integer whose bit j is entry (i, j)."""
        return _ints(self._packed)

    def get(self, i: int, j: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return int(self._packed[i, j >> 3] >> (j & 7)) & 1

    def set_bit(self, i: int, j: int, value: int = 1) -> BitMatrix:
        """Return a copy with entry (i, j) set to value."""
        old = self.get(i, j)
        packed = self._packed.copy()
        packed[i, j >> 3] ^= (old ^ bool(value)) << (j & 7)
        return BitMatrix._wrap(packed, self.cols)

    def transpose(self) -> BitMatrix:
        """8x8 bit blocks moved as 64-bit words.

        Word (a, b) holds byte b of rows 8a..8a+7, row 8a + k in byte k, so
        its bit 8k + c is entry (8a + k, 8b + c).  Three delta swaps move
        that bit to 8c + k; byte c of the word is then byte a of row 8b + c
        of the transpose.  Rows past self.rows are zero, so the padding
        bits of the result are too.
        """
        rows, n_bytes = self.rows, self._packed.shape[1]
        if not n_bytes:  # no rows or no columns
            return BitMatrix(self.cols, rows)
        blocks = -(-rows // 8)
        packed = self._packed
        if rows % 8:
            packed = np.concatenate([packed, np.zeros((-rows % 8, n_bytes), dtype=np.uint8)])
        grid = packed.reshape(blocks, 8, n_bytes).transpose(0, 2, 1).copy()
        x = grid.view("<u8").reshape(blocks, n_bytes)
        t = np.empty_like(x)
        for shift, mask in _TRANSPOSE_SWAPS:
            np.right_shift(x, shift, out=t)
            t ^= x
            t &= mask
            x ^= t
            t <<= shift
            x ^= t
        # the word grid transposed into t, its bytes into grid's memory
        np.copyto(t.reshape(n_bytes, blocks), x.T)
        out = grid.reshape(n_bytes, 8, blocks)
        np.copyto(out, t.view(np.uint8).reshape(n_bytes, blocks, 8).transpose(0, 2, 1))
        return BitMatrix._wrap(out.reshape(8 * n_bytes, blocks)[: self.cols], rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> BitMatrix:
        """Entry (a, b) of the result is entry (row_idx[a], col_idx[b])."""
        picked = []
        for kind, idx, size in (("row", row_idx, self.rows), ("column", col_idx, self.cols)):
            idx = np.asarray(idx, dtype=np.intp).reshape(-1)
            bad = idx[(idx < 0) | (idx >= size)]
            if bad.size:
                raise IndexError(f"{kind} {bad[0]} out of range")
            picked.append(idx)
        rows, cols = picked
        bits = np.unpackbits(self._packed[rows], axis=1, count=self.cols, bitorder="little")
        return BitMatrix.from_bool_array(bits.take(cols, axis=1))

    def conjugate(self, perm: Sequence[int]) -> BitMatrix:
        """Simultaneous row/column reindexing: out[i][j] = self[perm[i]][perm[j]]."""
        if self.rows != self.cols or len(perm) != self.rows:
            raise ValueError("conjugation needs a square matrix and a full permutation")
        return self.submatrix(perm, perm)

    def to_bool_array(self) -> np.ndarray:
        """Dense uint8 array with arr[i, j] = entry (i, j)."""
        return np.unpackbits(self._packed, axis=1, count=self.cols, bitorder="little")

    @classmethod
    def from_bool_array(cls, arr: np.ndarray) -> BitMatrix:
        """Matrix whose entry (i, j) is 1 where arr[i, j] is nonzero."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls._wrap(np.packbits(arr, axis=1, bitorder="little"), arr.shape[1])

    def to_f2mat(self) -> bytearray:
        """The f2mat text as ASCII bytes, filled in place in one buffer (a
        file is written with one binary write, stdout decodes it once)."""
        header = f"f2mat {self.rows} {self.cols}\n".encode("ascii")
        text = bytearray(len(header) + self.rows * (self.cols + 1))
        text[: len(header)] = header
        # the '0'/'1' bytes of each row, unpacked a block of rows at a
        # time, then a newline column
        image = np.frombuffer(text, dtype=np.uint8, offset=len(header)).reshape(self.rows, self.cols + 1)
        image[:, self.cols] = ord("\n")
        step = max(_PARSE_BYTES // max(self.cols, 1), 1)
        for lo in range(0, self.rows if self.cols else 0, step):
            bits = np.unpackbits(self._packed[lo : lo + step], axis=1, count=self.cols, bitorder="little")
            np.add(bits, ord("0"), out=image[lo : lo + step, : self.cols])
        return text

    @classmethod
    def from_f2mat(cls, text: str | bytes | bytearray) -> BitMatrix:
        """Parse f2mat text, given as a str or as ASCII bytes: a file's, or
        what to_f2mat returns.  A str is encoded once, one byte per
        character ("replace"), so a non-ASCII character or byte reads as
        one that is not 0/1; messages quote the header as given.  The rows
        are read in place as one fixed-width image (_read_rows); only text
        that read rejects is split into lines, to name its first fault."""
        data = text.encode("ascii", "replace") if isinstance(text, str) else text
        end = data.find(b"\n")
        end = end if end >= 0 else len(data)
        header = text[:end] if isinstance(text, str) else data[:end].decode("ascii", "replace")
        if not header.startswith("f2mat"):
            raise F2MatFormatError("missing 'f2mat' header")
        match = re.fullmatch("f2mat (-?[0-9]+) (-?[0-9]+)", header)
        try:
            rows, cols = int(match[1]), int(match[2])
        except (TypeError, ValueError) as exc:  # no match, or more digits than int reads
            raise F2MatFormatError(f"bad header line: {header!r}") from exc
        if rows < 0 or cols < 0:
            raise F2MatFormatError("negative dimensions in header")
        packed = _read_rows(data, end + 1, rows, cols)
        if packed is None:
            raise _first_fault(data, end + 1, rows, cols)
        return cls._wrap(packed, cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._packed.tobytes() == other._packed.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._packed.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _read_rows(data: bytes | bytearray, start: int, rows: int, cols: int) -> np.ndarray | None:
    """The packed rows of well-formed f2mat text whose rows begin at
    data[start], else None.

    Well-formed rows are a fixed-width image: rows lines of cols '0'/'1'
    bytes, each ending in a newline (the last may lack it), then only
    newlines.  It is read in place, checked and packed a block of rows at
    a time: no copy and no whole-matrix mask is made.
    """
    size = rows * (cols + 1)
    tail = len(data) - start - size  # -1: the last newline is missing
    if tail < -1 or data.count(b"\n", start + size) < tail:
        return None
    if not rows:  # cols may exceed any array dimension
        return np.empty((0, 0), dtype=np.uint8)
    chars = np.ndarray((rows, cols), np.uint8, data, start, (cols + 1, 1))
    ends = np.frombuffer(data, dtype=np.uint8)[start + cols :: cols + 1]
    packed = np.empty((rows, (cols + 7) // 8), dtype=np.uint8)
    step = max(_PARSE_BYTES // (cols + 1), 1)
    bits = np.empty((min(step, rows), cols), dtype=np.uint8)
    for lo in range(0, rows, step):
        # uint8 bytes below '0' wrap around, so a byte other than '0'/'1'
        # leaves a value above 1
        block = np.subtract(chars[lo : lo + step], ord("0"), out=bits[: rows - lo])
        if (cols and block.max() > 1) or (ends[lo : lo + step] != ord("\n")).any():
            return None
        packed[lo : lo + step] = np.packbits(block, axis=1, bitorder="little")
    return packed


def _first_fault(data: bytes | bytearray, start: int, rows: int, cols: int) -> F2MatFormatError:
    """The error naming the first fault of f2mat rows that _read_rows
    rejects: too few lines, then content after the rows, then the first
    row that is not cols '0'/'1' bytes.  Only here is text split into
    lines: their ends are found in place, and nothing is packed."""
    bad, end = None, start - 1
    for k in range(rows):
        if end >= len(data):  # line k - 1 was the last
            return F2MatFormatError(f"expected {rows} rows, found {k}")
        lo, end = end + 1, data.find(b"\n", end + 1)
        if end < 0:
            end = len(data)
        if bad is None and (end - lo != cols or data[lo:end].translate(None, b"01")):
            bad = k
    if data.count(b"\n", end) < len(data) - end:
        return F2MatFormatError("trailing content after matrix rows")
    return F2MatFormatError(f"row {bad + 1} is not {cols} characters of 0/1")


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def _reduce(pivots: dict[int, int], v: int) -> int:
    """v reduced against a leading-bit echelon; zero iff v lies in its span."""
    while v:
        p = pivots.get(v.bit_length() - 1)
        if p is None:
            break
        v ^= p
    return v


def echelon(row_ints: Iterable[int], limit: int | None = None) -> tuple[dict[int, int], list[int]]:
    """Leading-bit echelon of packed rows, inserted in order, stopping
    once it holds limit pivots (no stop when limit is None).

    A row that reduces to zero depends on the rows before it; any other
    row becomes a new pivot keyed by the highest set bit of its reduction.
    Returns (pivots, independent): the pivot rows by leading bit, and the
    ascending indices of the rows that became pivots, which is the greedy
    first-appearance basis of the rows read.
    """
    pivots: dict[int, int] = {}
    independent: list[int] = []
    for i, r in enumerate(row_ints):
        if len(independent) == limit:
            break
        v = _reduce(pivots, r)
        if v:
            pivots[v.bit_length() - 1] = v
            independent.append(i)
    return pivots, independent


# row count from which rank_of_row_ints runs _byte_rank rather than echelon;
# random full-rank squares and G(n, 1/2) cross over between 192 and 224 rows
# on a 2-CPU Xeon (sparse full-rank squares, whose byte columns miss in the
# first 64 rows, near 384)
BYTE_RANK_MIN_ROWS = 256

# trailing rows whose leading byte values _byte_rank searches for pivots
# before it falls back to the whole column; 8 independent byte values span
# all 256, which a random column gives within about 10 rows
_PIVOT_PREFIX = 64
_COMBINATIONS = np.arange(256)  # index of each combination in a table
# block bytes that one _byte_rank update gathers and XORs at a time, so the
# gathered table rows are still in cache when they are XORed
_UPDATE_BYTES = 1 << 19


def _byte_rank(packed: np.ndarray) -> int:
    """GF(2) rank of a (rows, bytes) uint8 array of little-endian row
    bytes, by the Method of Four Russians one byte column at a time.
    Does not write its input.

    The rows not yet pivots are one C-contiguous block that starts at the
    current group of 8 byte columns, copied once per group.  For byte
    column j they are zero in every byte before j.  Up to 8 of them whose
    byte j values are independent are swapped to the top of the block:
    the first such rows among the top _PIVOT_PREFIX, or, when those span
    fewer than 8 dimensions and a later row is nonzero in byte j, an
    echelon of the column's distinct values in first-appearance order.
    Every later row then gets the combination of them whose byte j equals
    its own, read from a table of all 2^k combinations over the block's
    full width (the pivots are zero before j too, so every gather and XOR
    is contiguous), which clears byte j; the update runs over
    _UPDATE_BYTES of the block at a time.  Each update adds pivot rows to
    a non-pivot row, so the rank is the number of rows chosen.  A column
    that is zero in the block stays zero under the updates, so the pass
    jumps from it to the next column that is not, and ends when there is
    none.
    """
    block = packed.copy()
    start = 0  # the byte column of block[:, 0]
    lookup = np.empty(256, dtype=np.intp)
    r = j = 0
    while j < packed.shape[1] and len(block):
        if j - start >= 8:  # the bytes before j's group are zero in the block
            block = block[:, j - j % 8 - start :].copy()
            start = j - j % 8
        c = j - start
        col = block[:, c]
        if not col.any():
            later = block[:, c + 1 :].any(axis=0)
            if not later.any():
                break
            j += 1 + int(later.argmax())
            continue
        chosen = echelon(col[:_PIVOT_PREFIX].tolist(), 8)[1]
        if len(chosen) < 8 and col[_PIVOT_PREFIX:].any():
            values, first = np.unique(col, return_index=True)
            order = np.argsort(first)
            chosen = first[order][echelon(values[order].tolist(), 8)[1]].tolist()
        # the chosen rows move to 0..k-1 and the rows there move to the
        # places the chosen ones left, in one gather
        k = len(chosen)
        vacated = [i for i in chosen if i >= k]
        if vacated:
            displaced = [i for i in range(k) if i not in chosen]
            block[[*range(k), *vacated]] = block[[*chosen, *displaced]]
        table = np.zeros((1 << k, block.shape[1]), dtype=np.uint8)
        for t in range(k):
            np.bitwise_xor(table[: 1 << t], block[t], out=table[1 << t : 2 << t])
        # values outside the span index past the table and raise
        lookup.fill(256)
        lookup[table[:, c]] = _COMBINATIONS[: 1 << k]
        r += k
        block = block[k:]
        index = lookup[block[:, c]]
        step = max(_UPDATE_BYTES // block.shape[1], 1)
        for lo in range(0, len(block), step):
            block[lo : lo + step] ^= table.take(index[lo : lo + step], axis=0)
        j += 1
    return r


def rank_of_row_ints(row_ints: Sequence[int] | np.ndarray, cols: int) -> int:
    """GF(2) rank of rows of width cols, given as integers (bit j is
    column j) or as the packed rows of a BitMatrix.

    Fewer than BYTE_RANK_MIN_ROWS rows go through echelon on integers; from
    that many on, _byte_rank ranks the packed rows.  Raises ValueError if
    an integer row is negative or has a bit at or above cols.
    """
    if isinstance(row_ints, np.ndarray):
        if len(row_ints) >= BYTE_RANK_MIN_ROWS:
            return _byte_rank(row_ints)
        row_ints = _ints(row_ints)
    elif len(row_ints) >= BYTE_RANK_MIN_ROWS:
        return _byte_rank(BitMatrix(len(row_ints), cols, row_ints).packed)
    elif any(r >> cols for r in row_ints):
        raise ValueError("row bits outside declared width")
    return len(echelon(row_ints)[1])


def rank(m: BitMatrix) -> int:
    """Dimension of the row space of m over GF(2)."""
    return rank_of_row_ints(m.packed, m.cols)


def row_space_contains(m: BitMatrix, v: BitVector) -> bool:
    """True iff v is a GF(2) combination of the rows of m."""
    if v.n != m.cols:
        raise ValueError(f"vector length {v.n} does not match {m.cols} columns")
    return _reduce(echelon(m.row_ints())[0], v.bits) == 0
