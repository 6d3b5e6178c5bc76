"""Bit-packed dense linear algebra over GF(2).

Vectors and matrices store their bits in Python integers (bit i of a row
lives at integer bit position i), so XOR of two rows is a single
word-parallel operation and popcounts come from ``int.bit_count``.  All
public operations are pure: they never mutate their inputs and padding
bits beyond the declared length are always zero.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

WORD_BITS = 64


class F2MatFormatError(ValueError):
    """Raised when f2mat text input is malformed."""


def _mask(n: int) -> int:
    return (1 << n) - 1


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

    @property
    def words(self) -> tuple[int, ...]:
        """Packed storage, 64 bits per word, coordinate i in word i//64."""
        n_words = max(1, (self.n + WORD_BITS - 1) // WORD_BITS)
        b = self._bits
        return tuple((b >> (WORD_BITS * w)) & _mask(WORD_BITS) for w in range(n_words))

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
    """A rows x cols matrix over GF(2), one packed integer per row."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows: int, cols: int, row_ints: Sequence[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        if row_ints is None:
            self._r = [0] * rows
        else:
            if len(row_ints) != rows:
                raise ValueError("row count mismatch")
            m = _mask(cols)
            for r in row_ints:
                if r < 0 or r & ~m:
                    raise ValueError("row bits outside declared width")
            self._r = list(row_ints)

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
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def all_ones(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols, [_mask(cols)] * rows)

    def row(self, i: int) -> BitVector:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return BitVector(self.cols, self._r[i])

    def row_int(self, i: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return self._r[i]

    def row_ints(self) -> list[int]:
        return list(self._r)

    def get(self, i: int, j: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return (self._r[i] >> j) & 1

    def set_bit(self, i: int, j: int, value: int = 1) -> BitMatrix:
        """Return a copy with entry (i, j) set to value."""
        self.get(i, j)
        new_rows = list(self._r)
        if value:
            new_rows[i] |= 1 << j
        else:
            new_rows[i] &= ~(1 << j)
        return BitMatrix(self.rows, self.cols, new_rows)

    def popcount_row(self, i: int) -> int:
        return self.row_int(i).bit_count()

    def transpose(self) -> BitMatrix:
        return BitMatrix.from_bool_array(self.to_bool_array().T)

    def hconcat(self, other: BitMatrix) -> BitMatrix:
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        shifted = [self._r[i] | (other._r[i] << self.cols) for i in range(self.rows)]
        return BitMatrix(self.rows, self.cols + other.cols, shifted)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> BitMatrix:
        cols = list(col_idx)
        for i in row_idx:
            if not 0 <= i < self.rows:
                raise IndexError(f"row {i} out of range")
        for j in cols:
            if not 0 <= j < self.cols:
                raise IndexError(f"column {j} out of range")
        if cols and all(cols[k + 1] == cols[k] + 1 for k in range(len(cols) - 1)):
            # contiguous window: one shift-and-mask per row
            start, width = cols[0], len(cols)
            m = _mask(width)
            out = [(self._r[i] >> start) & m for i in row_idx]
        else:
            out = []
            for i in row_idx:
                src = self._r[i]
                bits = 0
                for k, j in enumerate(cols):
                    if (src >> j) & 1:
                        bits |= 1 << k
                out.append(bits)
        return BitMatrix(len(row_idx), len(cols), out)

    def xor(self, other: BitMatrix) -> BitMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return BitMatrix(
            self.rows, self.cols, [a ^ b for a, b in zip(self._r, other._r)]
        )

    __xor__ = xor

    def permute_rows(self, perm: Sequence[int]) -> BitMatrix:
        """Row i of the result is row perm[i] of self."""
        return BitMatrix(len(perm), self.cols, [self._r[p] for p in perm])

    def conjugate(self, perm: Sequence[int]) -> BitMatrix:
        """Simultaneous row/column reindexing: out[i][j] = self[perm[i]][perm[j]]."""
        if self.rows != self.cols or len(perm) != self.rows:
            raise ValueError("conjugation needs a square matrix and a full permutation")
        idx = np.asarray(perm, dtype=np.intp)
        arr = self.to_bool_array()
        return BitMatrix.from_bool_array(arr[np.ix_(idx, idx)])

    def to_bool_array(self) -> np.ndarray:
        """Dense uint8 array with arr[i, j] = entry (i, j)."""
        n_bytes = max(1, (self.cols + 7) // 8)
        buf = np.empty((self.rows, n_bytes), dtype=np.uint8)
        for i, r in enumerate(self._r):
            buf[i] = np.frombuffer(r.to_bytes(n_bytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(buf, axis=1, bitorder="little")
        return bits[:, : self.cols]

    @classmethod
    def from_bool_array(cls, arr: np.ndarray) -> BitMatrix:
        arr = np.asarray(arr, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = arr.shape
        packed = np.packbits(arr, axis=1, bitorder="little")
        out = [int.from_bytes(packed[i].tobytes(), "little") for i in range(rows)]
        return cls(rows, cols, out)

    def to_f2mat(self) -> str:
        lines = [f"f2mat {self.rows} {self.cols}"]
        lines.extend(self.row(i).to01() for i in range(self.rows))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_f2mat(cls, text: str) -> BitMatrix:
        lines = text.split("\n")
        if not lines or not lines[0].startswith("f2mat"):
            raise F2MatFormatError("missing 'f2mat' header")
        header = lines[0].split(" ")
        if len(header) != 3 or header[0] != "f2mat":
            raise F2MatFormatError(f"bad header line: {lines[0]!r}")
        try:
            rows, cols = int(header[1]), int(header[2])
        except ValueError as exc:
            raise F2MatFormatError(f"bad header line: {lines[0]!r}") from exc
        if rows < 0 or cols < 0:
            raise F2MatFormatError("negative dimensions in header")
        body = lines[1:]
        if len(body) < rows:
            raise F2MatFormatError(f"expected {rows} rows, found {len(body)}")
        trailing = body[rows:]
        if any(t != "" for t in trailing):
            raise F2MatFormatError("trailing content after matrix rows")
        out = []
        for k in range(rows):
            line = body[k]
            if len(line) != cols or any(c not in "01" for c in line):
                raise F2MatFormatError(f"row {k + 1} is not {cols} characters of 0/1")
            out.append(int(line[::-1], 2) if line else 0)
        return cls(rows, cols, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._r == other._r
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(self._r)))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def rank_of_row_ints(row_ints: Sequence[int], cols: int) -> int:
    """Forward elimination on packed rows; zero rows are dropped eagerly.

    Pivot for each column is the first surviving row (lowest original
    index) with that bit set, so the pivot sequence is deterministic and
    identical to textbook forward elimination.
    """
    work = [r for r in row_ints if r]
    rank = 0
    for col in range(cols):
        if rank >= len(work):
            break
        colmask = 1 << col
        pivot = None
        for r in range(rank, len(work)):
            if work[r] & colmask:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank]
        tail = []
        for r in range(rank + 1, len(work)):
            v = work[r]
            if v & colmask:
                v ^= pv
            if v:
                tail.append(v)
        del work[rank + 1 :]
        work.extend(tail)
        rank += 1
    return rank


def rank(m: BitMatrix) -> int:
    """Dimension of the row space of m over GF(2)."""
    return rank_of_row_ints(m._r, m.cols)


def row_space_contains(m: BitMatrix, v: BitVector) -> bool:
    """True iff v is a GF(2) combination of the rows of m."""
    if v.n != m.cols:
        raise ValueError(f"vector length {v.n} does not match {m.cols} columns")
    base = rank_of_row_ints(m._r, m.cols)
    return rank_of_row_ints(list(m._r) + [v.bits], m.cols) == base


def rows_form_subspace(m: BitMatrix) -> bool:
    """True iff the rows list a linear subspace exactly once each."""
    seen = set(m._r)
    if len(seen) != m.rows:
        return False
    if 0 not in seen:
        return False
    return m.rows == 1 << rank_of_row_ints(m._r, m.cols)
