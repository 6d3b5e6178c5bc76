"""Exhaustive finite certification: order-4 uniqueness, order-8 nonexistence,
and exact graph isomorphism with a certifying bijection.

The order-8 sweep enumerates all 2^28 symmetric zero-diagonal 8x8 matrices
by treating the upper-triangle entries as counter bits (pairs (i,j), i<j,
in row-major order).  The kernel is bit-sliced: 64 consecutive counters
share one uint64 word, lane l holding counter 64w + l, and plane p holds
counter bit p, that is entry p, of every lane.  Planes 0..5 are fixed lane
patterns and planes 6..17 runs of 0 and all-ones words, read off the word
index, so no candidate is ever packed into a matrix.  These 18 planes are
the entries that touch vertices 0..2; bits 18..27, the 5x5 block C on
vertices 3..7, are constant over each block of 2^12 words.  A pair pivot
(k, q) with a_kq = 1 clears two rows and columns of an alternating matrix
and lowers its rank by 2 (Albert, 1938).  On C it is a scalar choice made
once per block, which leaves each column between vertices 0..2 and C a
fixed XOR of planes.  The residual [[0, Y], [Y^T, B]], Y holding the
columns of the C vertices no pivot took, has rank 2 rank(Y) plus the rank
of B on ker Y, and the kernel reads it off a few lane masks with
word-wide boolean ops, 64 candidates at once: no elimination step runs on
the planes.  In 868 of the 1024 blocks Y is one row, and the masks are
whether the order-4 residual is nonzero and its Pfaffian, so the block is
counted with two popcounts.  The sweep's whole result is its rank
histogram, and the scalar reference path is the test oracle.  Process k
of W sweeping processes, the caller being k = 0, ranks every W-th block
from the k-th on, and the histograms add, so the outcome is independent of
worker count.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .codes import _xor_rows, subspace_codes
from .gf2 import BitMatrix, rank_of_row_ints
from .graph import Graph, to_graph6
from .constructions import g2

N3_ORDER = 8
N3_PAIRS = list(combinations(range(N3_ORDER), 2))
N3_SPAN = 1 << len(N3_PAIRS)  # 2^28 candidates
_FREE = 18  # counter bits 0..17 are the entries that touch vertices 0..2
# words per sweep block: its 2^18 counters share bits 18..27, the 5x5 block C
# on vertices 3..7, and the 18 free planes take 0.6 MB
_WORDS = 1 << (_FREE - 6)
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# _PLANE[i][j] = the counter bit, so the plane, of entry (i, j); -1 on the diagonal
_PLANE = [
    [N3_PAIRS.index((min(i, j), max(i, j))) if i != j else -1 for j in range(N3_ORDER)]
    for i in range(N3_ORDER)
]
# plane p < 6: bit l is bit p of lane l (0xAAAA..., 0xCCCC..., ..., 0xFFFFFFFF00000000)
_LANE_PLANES = np.array(
    [sum(1 << lane for lane in range(64) if lane >> p & 1) for p in range(6)], dtype=np.uint64
)


# ---------------------------------------------------------------------------
# Order-4 uniqueness sweep
# ---------------------------------------------------------------------------


def _rows_from_counter(counter: int, n: int, pairs) -> list[int]:
    rows = [0] * n
    for p, (i, j) in enumerate(pairs):
        if (counter >> p) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def enumerate_n2() -> list[Graph]:
    """All 4x4 symmetric zero-diagonal matrices that are twin-free of rank 2."""
    pairs = list(combinations(range(4), 2))
    out = []
    for counter in range(1 << len(pairs)):
        rows = _rows_from_counter(counter, 4, pairs)
        if len(set(rows)) == 4 and rank_of_row_ints(rows, 4) == 2:
            out.append(Graph(BitMatrix(4, 4, rows)))
    return out


def n2_certificate() -> dict:
    """Certificate that every twin-free rank-2 order-4 graph is the triangle
    plus an isolated vertex."""
    target = g2()
    found = enumerate_n2()
    violations = []
    for g in found:
        ok, _ = isomorphic(g, target)
        if not ok:
            violations.append(to_graph6(g))
    return {
        "mode": "n2-unique",
        "candidates_examined": 64,
        "violations": violations,
        "stats": {"solutions_found": len(found)},
        "pass": len(found) > 0 and not violations,
    }


# ---------------------------------------------------------------------------
# Order-8 structured case analysis
# ---------------------------------------------------------------------------

# A twin-free order-8 graph of rank 3 would list its whole 3-dimensional
# row space, so with rows 0..2 as the basis, vertex i has coordinates
# _N3_CODES[i] (row 3 = row0 ^ row1, ..., row 7 = 0) and A = K^T M K, where
# M = A[:3, :3] is an alternating 3x3 form.  Such a form is degenerate, so
# at most 4 rows are distinct.
_N3_CODES = (1, 2, 4, 3, 5, 6, 7, 0)


def _structured_matrix(x: int, y: int, z: int) -> list[int]:
    """The forced candidate with (A01, A02, A12) = (x, y, z): entry (i, j)
    is parity(k_i & M k_j)."""
    form = [x << 1 | y << 2, x | z << 2, y | z << 1]
    m_codes = [_xor_rows(form, k) for k in _N3_CODES]
    return [
        sum(((k & mk).bit_count() & 1) << j for j, mk in enumerate(m_codes)) for k in _N3_CODES
    ]


def n3_structured_certificate() -> dict:
    """All eight fillings of the forced order-8 candidate have duplicate rows."""
    violations = []
    for assignment in range(8):
        x, y, z = assignment & 1, (assignment >> 1) & 1, (assignment >> 2) & 1
        rows = _structured_matrix(x, y, z)
        for i in range(8):
            if (rows[i] >> i) & 1:
                raise AssertionError("filled matrix has nonzero diagonal")
            for j in range(8):
                if ((rows[i] >> j) & 1) != ((rows[j] >> i) & 1):
                    raise AssertionError("filled matrix not symmetric")
        if len(set(rows)) == 8:
            violations.append([x, y, z])
    return {
        "mode": "n3-structured",
        "candidates_examined": 8,
        "violations": violations,
        "stats": {"assignments_with_duplicate_rows": 8 - len(violations)},
        "pass": not violations,
    }


def nonexistence_n3_structured() -> bool:
    """True iff the structured certificate passes."""
    return n3_structured_certificate()["pass"]


# ---------------------------------------------------------------------------
# Order-8 exhaustive sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepStats:
    # rank_counts[r] = candidates of GF(2)-rank r
    rank_counts: list[int] = field(default_factory=lambda: [0] * (N3_ORDER + 1))

    @property
    def candidates_examined(self) -> int:
        return sum(self.rank_counts)

    def merge(self, other: SweepStats) -> SweepStats:
        return SweepStats([a + b for a, b in zip(self.rank_counts, other.rank_counts)])


_half_tables: tuple[np.ndarray, np.ndarray] | None = None


def _alternating(packed: np.ndarray) -> bool:
    """True iff every packed 8x8 matrix is symmetric with zero diagonal."""
    bits = np.unpackbits(
        packed.astype("<u8").view(np.uint8), bitorder="little"
    ).reshape(-1, 8, 8)
    return bool(
        np.array_equal(bits, bits.transpose(0, 2, 1))
        and not bits.diagonal(axis1=1, axis2=2).any()
    )


def _counter_half_tables() -> tuple[np.ndarray, np.ndarray]:
    """Packed-row contributions (byte i = row i) of the low and high 14
    counter bits.

    Every entry is alternating, so every candidate lo[a] | hi[b] (an XOR:
    the two halves touch disjoint entries) is too, which is the input
    domain of _packed_rank.
    """
    global _half_tables
    if _half_tables is None:
        # doubling: appending table ^ contrib for pair p sets entry p in
        # exactly the indices whose bit p is set
        tables = []
        for pairs in (N3_PAIRS[:14], N3_PAIRS[14:]):
            table = np.zeros(1, dtype=np.uint64)
            for i, j in pairs:
                contrib = np.uint64((1 << (8 * i + j)) | (1 << (8 * j + i)))
                table = np.concatenate([table, table ^ contrib])
            tables.append(table)
        lo, hi = tables
        if not (_alternating(lo) and _alternating(hi)):
            raise AssertionError("counter tables hold a non-alternating matrix")
        _half_tables = (lo, hi)
    return _half_tables


# _VERTICES[form] = the C vertices 3 + m for each bit m set in a 5-bit form
_VERTICES = [[3 + m for m in range(5) if form >> m & 1] for form in range(32)]
# (bit of C, a, b) of each entry (3 + a, 3 + b) of C, bit p being counter bit _FREE + p
_C_ENTRIES = [(p, i - 3, j - 3) for p, (i, j) in enumerate(N3_PAIRS[_FREE:])]


def _pivot_forms(c: int) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Pair pivots on the 5x5 block C = c, scalar work once per block.

    Returns (pairs, forms, kept): the s pivots (k, q) as vertex pairs; for
    each C vertex v = 3..7 the 5-bit form (bit m for vertex 3 + m) whose
    plane columns XOR to column v of X as the Schur rule leaves it, when v
    is pivoted or, for a vertex in no pivot, after every pivot; and the C
    vertices in no pivot.  A pivot (k, q) with C[k][q] = 1 maps each live
    column l to l ^ C[q][l] k ^ C[k][l] q and updates C among the live
    vertices the same way.  One pass over k suffices: a live vertex skipped
    for having no live link keeps none, since a later pivot only changes
    rows linked to it.  So the live part of C ends zero, and rank(C) = 2s.
    """
    rows = [0] * 5  # rows[a] = row 3 + a of C as a 5-bit mask
    for p, a, b in _C_ENTRIES:
        if c >> p & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    forms = [1 << m for m in range(5)]
    live = 0b11111
    pairs = []
    for k in range(5):
        links = rows[k] & live
        if not live >> k & 1 or not links:
            continue
        q = (links & -links).bit_length() - 1
        pairs.append((3 + k, 3 + q))
        live ^= 1 << k | 1 << q
        rk, rq = rows[k], rows[q]
        for l in range(k + 1, 5):
            if live >> l & 1:
                if rq >> l & 1:
                    forms[l] ^= forms[k]
                    rows[l] ^= rk
                if rk >> l & 1:
                    forms[l] ^= forms[q]
                    rows[l] ^= rq
    return pairs, forms, _VERTICES[live]


class _BitSliced:
    """The bit-sliced rank kernel for one sweep block: the _WORDS words of
    candidates that share one block C.

    planes[p] holds entry p, that is counter bit p < _FREE, of the 64 lanes
    of each word: every entry that touches vertices 0..2.  They are the
    same in every block, so they are filled here and made read-only.  The
    5x5 block C on vertices 3..7, counter bits _FREE..27, is one integer
    per call.  An updated entry (i, j) goes to its own scratch row
    _own[_PLANE[i][j]], and every other result to a row of _work.  Every
    row is a whole-width view made once, so a call slices nothing, and one
    instance serves every block that one process ranks.
    """

    def __init__(self):
        self.planes = np.empty((_FREE, _WORDS), dtype=np.uint64)
        self.planes[:6] = _LANE_PLANES[:, None]
        runs = np.array([[0], [_ONES]], dtype=np.uint64)
        for b in range(_FREE - 6):
            self.planes[6 + b].reshape(-1, 2, 1 << b)[:] = runs
        # before any view is taken, so that every view is read-only too
        self.planes.flags.writeable = False
        self._own = list(np.empty((_FREE, _WORDS), dtype=np.uint64))
        # the most rows _residual_levels takes, for a Y of 3 or 5 rows
        self._work = list(np.empty((11, _WORDS), dtype=np.uint64))
        # rows 0..2 of the entry table: the plane of each entry (i, j)
        self._table: list[list] = [[None] * N3_ORDER for _ in range(3)]
        for (i, j), plane in zip(N3_PAIRS, self.planes):
            self._table[i][j] = plane
            if j < 3:
                self._table[j][i] = plane

    def __call__(self, c: int) -> tuple[int, list[np.ndarray]]:
        """(s, levels) for the planes under C = c: rank(C) = 2s, and
        levels[t] marks the lanes whose rank/2 - s exceeds t, so a lane's
        rank is 2s plus twice the number of levels that hold it.  The levels
        are views of the kernel's rows, valid until its next call.

        The pair pivots on C are scalar choices (_pivot_forms), after which
        column v of X, the entries between vertices 0..2 and C vertex v, is
        the XOR of the plane columns in forms[v]: word XORs, or the plane
        itself.  Each pivot (k, q) adds X_ik & X_lq ^ X_iq & X_lk to entry
        (i, l) of the block B among vertices 0..2: word ANDs.  The residual
        matrix, of order 8 - 2s, is [[0, Y], [Y^T, B]], where Y holds the
        columns of X of the C vertices kept; _residual_levels ranks it.
        """
        pairs, forms, kept = _pivot_forms(c)
        x = [row[:] for row in self._table]
        for v, form in zip(range(3, N3_ORDER), forms):
            if form & form - 1:  # more than its own plane column
                for i in range(3):
                    planes = self._table[i]
                    first, second, *rest = [planes[u] for u in _VERTICES[form]]
                    dst = self._own[_PLANE[i][v]]
                    np.bitwise_xor(first, second, out=dst)
                    for p in rest:
                        np.bitwise_xor(dst, p, out=dst)
                    x[i][v] = dst
        tmp = self._work[0]
        b = []  # b[m] = the entry of B between the two vertices other than m
        for i, l in ((1, 2), (0, 2), (0, 1)):
            xi, xl, dst = x[i], x[l], self._own[_PLANE[i][l]]
            base = xi[l]
            for k, q in pairs:
                for u, w in ((xi[k], xl[q]), (xi[q], xl[k])):
                    np.bitwise_and(u, w, out=tmp)
                    np.bitwise_xor(base, tmp, out=dst)
                    base = dst
            b.append(base)
        return len(pairs), self._residual_levels([[x[i][v] for v in kept] for i in range(3)], b)

    def _residual_levels(self, y: list[list[np.ndarray]], b: list[np.ndarray]) -> list[np.ndarray]:
        """The levels of rank/2 of the alternating matrices [[0, Y], [Y^T, B]]:
        y[i] is column i of the k x 3 block Y (k = 1, 3 or 5 rows), and b =
        (B12, B02, B01) the 3x3 block B.

        Congruence brings Y to [[I_r, 0], [0, 0]], r = rank(Y); pivoting on
        I_r leaves B on the coordinates of ker Y untouched, so the rank is
        2r plus the rank of B on ker Y, which is 0 or 2.  For r = 1 the
        nonzero rows of Y all equal the normal w of the plane ker Y, and
        xBz = b . (x cross z), so B is nonzero there iff beta, the OR of b .
        Y_a over the rows Y_a, is 1.  So rank/2 exceeds 0 where Y or B is
        nonzero, 1 where r >= 2 or beta, and 2 where r = 3; r >= 2 where
        two columns and their XOR are nonzero, r = 3 where every XOR of
        columns is.  With one row, the levels are whether the 4x4 matrix is
        nonzero and beta, its Pfaffian.
        """
        tmp, *free = self._work
        rows = iter(free)

        def nonzero(vector):
            """The lanes where a vector of rows is nonzero."""
            if len(vector) == 1:
                return vector[0]
            out = next(rows)
            np.bitwise_or(vector[0], vector[1], out=out)
            for row in vector[2:]:
                np.bitwise_or(out, row, out=out)
            return out

        def odd(*vectors):
            """The lanes where the XOR of two or three vectors of rows is
            nonzero."""
            out = next(rows)
            for a, entries in enumerate(zip(*vectors)):
                dst = out if a == 0 else tmp
                np.bitwise_xor(entries[0], entries[1], out=dst)
                for entry in entries[2:]:
                    np.bitwise_xor(dst, entry, out=dst)
                if a:
                    np.bitwise_or(out, tmp, out=out)
            return out

        beta = acc = next(rows)
        for y0, y1, y2 in zip(*y):
            np.bitwise_and(b[0], y0, out=acc)
            np.bitwise_and(b[1], y1, out=tmp)
            np.bitwise_xor(acc, tmp, out=acc)
            np.bitwise_and(b[2], y2, out=tmp)
            np.bitwise_xor(acc, tmp, out=acc)
            if acc is beta:
                acc = next(rows)
            else:
                np.bitwise_or(beta, acc, out=beta)
        columns = [nonzero(column) for column in y]
        any_entry = nonzero(columns + b)
        if len(y[0]) == 1:
            return [any_entry, beta]
        two = []  # two[m]: the columns other than m and their XOR are nonzero
        for i, l in ((1, 2), (0, 2), (0, 1)):
            out = odd(y[i], y[l])
            np.bitwise_and(out, columns[i], out=out)
            np.bitwise_and(out, columns[l], out=out)
            two.append(out)
        three = odd(*y)
        for out in two:
            np.bitwise_and(three, out, out=three)
        for out in two[1:] + [beta]:
            np.bitwise_or(two[0], out, out=two[0])
        return [any_entry, two[0], three]


def _packed_rank(mat: np.ndarray) -> np.ndarray:
    """GF(2) rank of each packed 8x8 matrix (byte i = row i).

    A matrix's upper triangle, in N3_PAIRS order, is its sweep counter, so
    it is a lane of the sweep block of its C: the kernel ranks each
    distinct block once, and a matrix's rank is read off the levels at its
    lane.  Exact only on alternating matrices (symmetric, zero diagonal),
    the sweep's whole domain: the kernel returns even ranks only.  mat is
    not modified.
    """
    n = mat.size
    bits = np.unpackbits(mat.astype("<u8").view(np.uint8).reshape(n, 8), axis=1, bitorder="little")
    counters = bits[:, [8 * i + j for i, j in N3_PAIRS]].astype(np.intp) @ (1 << np.arange(len(N3_PAIRS)))
    order = np.argsort(counters)
    cs, first = np.unique(counters[order] >> _FREE, return_index=True)
    lanes = counters[order] & (1 << _FREE) - 1
    words, shifts = lanes >> 6, (lanes & 63).astype(np.uint64)
    ranks = np.empty(n, dtype=np.uint8)
    kernel = _BitSliced()
    for c, lo, hi in zip(cs.tolist(), first.tolist(), [*first[1:].tolist(), n]):
        s, levels = kernel(c)
        held = sum(level[words[lo:hi]] >> shifts[lo:hi] & 1 for level in levels)
        ranks[lo:hi] = 2 * (s + held)
    out = np.empty(n, dtype=np.uint8)
    out[order] = ranks
    return out


def _lanes_set(level: np.ndarray, lo: int, hi: int) -> int:
    """The lanes lo:hi set in level, lane 64w + l being bit l of word w.
    Lanes outside them are masked out of the first and the last word they
    meet, and only there."""
    if (lo, hi) == (0, 64 * level.size):
        return int(np.bitwise_count(level).sum())
    first, last = lo >> 6, (hi - 1) >> 6
    count = int(np.bitwise_count(level[first : last + 1]).sum())
    count -= (int(level[first]) & ((1 << (lo & 63)) - 1)).bit_count()
    return count - (int(level[last]) >> ((hi - 1 & 63) + 1)).bit_count()


def _sweep_blocks(start: int, stop: int, blocks) -> SweepStats:
    """Examine the counters in [start, stop) of each sweep block in blocks
    with one bit-sliced kernel.

    Counter 64w + l is lane l of word w.  Words go in aligned blocks of
    _WORDS, whose counters share bits _FREE..27, so the block index is C,
    and the planes of bits 0.._FREE-1 are the same in every block: the
    kernel builds them once, before the first block is taken.  The kernel
    ranks every word of a block, and a block the range covers in part
    counts only its lanes in [start, stop).
    """
    counts = [0] * (N3_ORDER + 1)
    kernel = _BitSliced()
    for block in blocks:
        s, levels = kernel(block)
        base = block << _FREE
        lo, hi = max(start - base, 0), min(stop - base, 1 << _FREE)
        # above[t] = lanes whose rank exceeds 2(s + t - 1)
        above = [hi - lo, *(_lanes_set(level, lo, hi) for level in levels), 0]
        for t in range(len(above) - 1):
            counts[2 * (s + t)] += above[t] - above[t + 1]
    return SweepStats(counts)


def _block_bounds(start: int, stop: int) -> tuple[int, int]:
    """The sweep blocks [first, stop_block) that meet counters [start, stop)."""
    return start >> _FREE, ((stop - 1) >> _FREE) + 1


def sweep_range(start: int, stop: int) -> SweepStats:
    """Examine counters [start, stop) with one bit-sliced kernel."""
    return _sweep_blocks(start, stop, range(*_block_bounds(start, stop)))


def sweep_range_reference(start: int, stop: int) -> SweepStats:
    """Pure-Python per-candidate sweep; oracle for the vectorized engine."""
    stats = SweepStats()
    for counter in range(start, stop):
        rows = _rows_from_counter(counter, N3_ORDER, N3_PAIRS)
        stats.rank_counts[rank_of_row_ints(rows, N3_ORDER)] += 1
    return stats


class SweepWorkerError(RuntimeError):
    """A sweep worker process raised, or exited without sending its result."""


def _sweep_child(start: int, stop: int, blocks: range, conn) -> None:
    """A sweep worker process: sends the SweepStats of its blocks, or the
    text of the exception that stopped it."""
    try:
        result = _sweep_blocks(start, stop, blocks)
    except Exception as exc:
        result = f"{type(exc).__name__}: {exc}"
    conn.send(result)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _received(child, recv) -> SweepStats:
    """The result a sweep child sent down recv, which is then closed;
    SweepWorkerError for the text of its error, or for EOF."""
    try:
        part = recv.recv()
    except EOFError:
        child.join()
        code = child.exitcode
        raise SweepWorkerError(f"sweep worker exited with code {code} before sending its result") from None
    if not isinstance(part, SweepStats):
        raise SweepWorkerError(f"sweep worker failed: {part}")
    recv.close()
    return part


def run_exhaustive_sweep(start: int = 0, stop: int = N3_SPAN, workers: int = 1) -> SweepStats:
    """Sweep counters [start, stop) on min(workers, blocks, usable CPUs)
    processes: the caller and one child for each other process.

    One process is sweep_range.  Otherwise process k of W, the caller
    being k = 0, builds one kernel and ranks every W-th sweep block from
    the k-th on, so each block goes to exactly one process; histograms
    add, so the result does not depend on which process ranks a block.
    The caller reads each child's pipe between its blocks, so when a child
    raises or exits without its result, every other child is terminated
    and joined at once, and SweepWorkerError is raised; no child outlives
    the call.
    """
    if not 0 <= start < stop <= N3_SPAN:
        raise ValueError(f"sweep range needs 0 <= start < stop <= {N3_SPAN}, got [{start}, {stop})")
    first, stop_block = _block_bounds(start, stop)
    processes = min(workers, stop_block - first, _usable_cpus())
    if processes <= 1:
        return sweep_range(start, stop)
    # only a parallel sweep pays for the import.  On Linux the children are
    # forked, whatever the default start method (forkserver since Python
    # 3.14), so they start without importing numpy and f2rank again (about
    # 0.2 s a child, against about 10 ms for a 2^24-counter range on one
    # worker); elsewhere they come from the platform's default
    import multiprocessing

    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    children = []
    parts = []  # each child's result, read as soon as it is sent

    def polled(blocks):
        for block in blocks:
            parts.extend(_received(c, r) for c, r in children if not r.closed and r.poll())
            yield block

    done = False
    try:
        for k in range(1, processes):
            recv, send = context.Pipe(duplex=False)
            blocks = range(first + k, stop_block, processes)
            child = context.Process(target=_sweep_child, args=(start, stop, blocks, send), daemon=True)
            child.start()
            send.close()
            children.append((child, recv))
        total = _sweep_blocks(start, stop, polled(range(first, stop_block, processes)))
        parts.extend(_received(c, r) for c, r in children if not r.closed)
        for part in parts:
            total = total.merge(part)
        done = True
    finally:
        for child, recv in children:
            if not done:
                child.terminate()
            child.join()
            recv.close()
    return total


def alternating_rank_histogram(n: int) -> list[int]:
    """counts[r] = number of n x n alternating matrices over GF(2) of rank r.

    Bordering an alternating M of rank r by a column c gives rank r when c
    lies in M's column space (2^r choices: c = Mx, and x^T M x = 0) and
    rank r + 2 otherwise, so counts follow one order at a time from the
    empty matrix.  These are MacWilliams' closed-form counts ("Orthogonal
    matrices over finite fields", 1969), reached without the formula.
    """
    counts = [1] + [0] * n
    for order in range(n):
        counts = [
            (counts[r] << r) + (counts[r - 2] * ((1 << order) - (1 << (r - 2))) if r >= 2 else 0)
            for r in range(n + 1)
        ]
    return counts


def n3_exhaustive_certificate(workers: int = 1, start: int = 0, stop: int = N3_SPAN) -> dict:
    stats = run_exhaustive_sweep(start=start, stop=stop, workers=workers)
    rank3 = stats.rank_counts[3]
    passed = rank3 == 0
    if (start, stop) == (0, N3_SPAN):
        # the whole space: a skipped or misranked candidate changes the
        # histogram, so it must equal the exact counts
        passed = passed and stats.rank_counts == alternating_rank_histogram(N3_ORDER)
    # duplicate-row, subspace and twin-free (violating) matrices are subsets
    # of the rank-3 candidates, and an alternating form has even rank, so
    # all three are empty; the rank histogram is the sweep's whole result
    return {
        "mode": "n3-exhaustive",
        "candidates_examined": stats.candidates_examined,
        "violations": [],
        "stats": {
            "rank3_total": rank3,
            "rank3_with_duplicate_rows": 0,
            "subspace_matrices": 0,
        },
        "pass": passed,
    }


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _refine_colors(g: Graph, h: Graph) -> tuple[list[int], list[int]]:
    """Joint degree-signature refinement to a fixpoint; shared color ids."""
    n = g.order
    colors_g = [g.degree(v) for v in range(n)]
    colors_h = [h.degree(v) for v in range(n)]
    while True:
        sig_g = [
            (colors_g[v], tuple(sorted(colors_g[u] for u in g.neighbors(v))))
            for v in range(n)
        ]
        sig_h = [
            (colors_h[v], tuple(sorted(colors_h[u] for u in h.neighbors(v))))
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig_g) | set(sig_h)))}
        new_g = [palette[s] for s in sig_g]
        new_h = [palette[s] for s in sig_h]
        stable = len(set(zip(colors_g, new_g))) == len(set(colors_g)) and len(
            set(zip(colors_h, new_h))
        ) == len(set(colors_h))
        colors_g, colors_h = new_g, new_h
        if stable:
            return colors_g, colors_h


def _check_witness(g: Graph, h: Graph, mapping: list[int]) -> None:
    """Raise AssertionError unless mapping is a bijection carrying g onto h."""
    sigma = np.asarray(mapping, dtype=np.intp)
    if not (
        sorted(mapping) == list(range(g.order))
        and np.array_equal(g.adj.to_bool_array(), h.adj.to_bool_array()[np.ix_(sigma, sigma)])
    ):
        raise AssertionError("witness bijection failed final verification")


def _backtrack_isomorphism(g: Graph, h: Graph) -> tuple[bool, list[int] | None]:
    """Backtracking over bijections on an explicit stack, pruned by fixpoint
    color refinement and adjacency consistency with all previously mapped
    vertices; for graphs of one order and edge count.  The witness is not
    checked here."""
    n = g.order
    colors_g, colors_h = _refine_colors(g, h)
    if sorted(colors_g) != sorted(colors_h):
        return False, None
    by_color: dict[int, list[int]] = {}
    for u in range(n):
        by_color.setdefault(colors_h[u], []).append(u)
    candidates = [by_color.get(colors_g[v], []) for v in range(n)]
    if any(not c for c in candidates):
        return False, None
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    rows_g = g.adj.row_ints()
    rows_h = h.adj.row_ints()
    mapping = [-1] * n
    used = [False] * n
    # cursor[d] = index in candidates[order[d]] of the next image to try;
    # depth advances on a consistent image and falls back when none is left
    cursor = [0] * n
    depth = 0
    while depth < n:
        v = order[depth]
        if mapping[v] >= 0:
            used[mapping[v]] = False
            mapping[v] = -1
        rv = rows_g[v]
        cands = candidates[v]
        for i in range(cursor[depth], len(cands)):
            u = cands[i]
            if used[u]:
                continue
            ru = rows_h[u]
            ok = True
            for d in range(depth):
                vp = order[d]
                if ((rv >> vp) & 1) != ((ru >> mapping[vp]) & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                cursor[depth] = i + 1
                depth += 1
                break
        else:
            if depth == 0:
                return False, None
            cursor[depth] = 0
            depth -= 1
    return True, mapping


def isomorphic(g: Graph, h: Graph) -> tuple[bool, list[int] | None]:
    """Exact isomorphism test; on success also returns the vertex bijection.

    When the rows of both graphs list a subspace (the extremal family),
    the witness is the unique bijection that preserves their codes
    (codes.subspace_codes); otherwise _backtrack_isomorphism answers.
    Every witness is checked exactly.
    """
    n = g.order
    if n != h.order or g.edge_count() != h.edge_count():
        return False, None
    if n == 0:
        return True, []
    found_g, found_h = subspace_codes(g.adj), subspace_codes(h.adj)
    if found_g is not None and found_h is not None:
        # both adjacencies are the standard form on their codes
        inv_h = np.full(n, -1, dtype=np.intp)
        inv_h[found_h[1]] = np.arange(n)
        mapping = inv_h[found_g[1]].tolist()
    elif found_g is not None or found_h is not None:
        # relabelling permutes the rows and, by one linear bijection, the
        # columns, so whether the rows list a subspace is an invariant
        return False, None
    else:
        ok, mapping = _backtrack_isomorphism(g, h)
        if not ok:
            return False, None
    _check_witness(g, h, mapping)
    return True, mapping
