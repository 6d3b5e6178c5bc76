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
once per block; the residual matrix, of order 4 in 868 of the 1024 blocks,
goes to the bit-sliced kernel, whose steps are word-wide boolean ops that
advance 64 eliminations at once, and a 3-bit bit-sliced counter keeps
rank/2.  The sweep's whole result is its rank histogram, and the scalar
reference path is the test oracle.  Every sweeping process, the caller and
its children, claims blocks one at a time from a shared counter, and the
histograms add, so the outcome is independent of worker count.
"""

from __future__ import annotations

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


class _BitSliced:
    """The bit-sliced rank kernel for candidates that share one block C.

    planes[p] holds entry p, that is counter bit p < _FREE, of the 64 lanes
    of each of up to `words` words: every entry that touches vertices 0..2.
    The 5x5 block C on vertices 3..7, counter bits _FREE..27, is one integer
    per call.  The planes are only read: an updated entry (i, j) goes to its
    own scratch row _own[_PLANE[i][j]].  One instance serves every block
    that one sweeping process ranks.
    """

    def __init__(self, words: int):
        self.planes = np.empty((_FREE, words), dtype=np.uint64)
        self._own = np.empty((len(N3_PAIRS), words), dtype=np.uint64)
        self._row = np.empty((N3_ORDER, words), dtype=np.uint64)
        self._seen = np.empty((2, words), dtype=np.uint64)
        self._pick = np.empty(words, dtype=np.uint64)
        self._tmp = np.empty((2, words), dtype=np.uint64)
        self._half = np.empty((3, words), dtype=np.uint64)

    def entries(self, c: int, lo: int, hi: int) -> list[list]:
        """The 8x8 entry table of words lo:hi: views of planes, the bits of
        c (0 or 1) on C, None on the diagonal."""
        e: list[list] = [[None] * N3_ORDER for _ in range(N3_ORDER)]
        planes = list(self.planes[:, lo:hi])
        for p, (i, j) in enumerate(N3_PAIRS):
            e[i][j] = e[j][i] = planes[p] if p < _FREE else c >> (p - _FREE) & 1
        return e

    def _count(self, half: np.ndarray, nonzero: np.ndarray) -> None:
        """Add 1 to the 3-bit counter half in the lanes set in nonzero; it
        borrows the pick row and a tmp row, which no step holds across it."""
        carry, tmp = self._pick[: nonzero.size], self._tmp[0, : nonzero.size]
        np.bitwise_and(half[0], nonzero, out=carry)
        np.bitwise_xor(half[0], nonzero, out=half[0])
        np.bitwise_and(half[1], carry, out=tmp)
        np.bitwise_xor(half[1], carry, out=half[1])
        np.bitwise_xor(half[2], tmp, out=half[2])

    def __call__(self, c: int, lo: int, hi: int) -> tuple[int, np.ndarray]:
        """(s, half) for words lo:hi of the planes under C = c: rank(C) = 2s,
        and half holds rank/2 - s of every lane as three bit planes.

        C is constant, so each pair pivot (k, q) in it, with C[k][q] = 1, is
        a scalar choice.  The Schur rule E[i][l] ^= E[i][k] & E[q][l] ^
        E[i][q] & E[k][l] then keeps the rest alternating and lowers the rank
        by 2.  Inside C it is integer arithmetic; on an entry between
        vertices 0..2 and C one factor of each term is a constant, so it is
        a plane XOR or nothing; among vertices 0..2 it is word ANDs.  After s
        pivots the live part of C is zero, and the residual matrix, of order
        8 - 2s, goes to rank_half.
        """
        w = hi - lo
        e = self.entries(c, lo, hi)
        live = list(range(N3_ORDER))
        s = 0
        while pair := next((kq for kq in combinations(live[3:], 2) if e[kq[0]][kq[1]]), None):
            k, q = pair
            live.remove(k)
            live.remove(q)
            s += 1
            for i, l in combinations(live, 2):
                if i >= 3:  # inside C: constants
                    e[i][l] = e[l][i] = e[i][l] ^ e[i][k] & e[q][l] ^ e[i][q] & e[k][l]
                    continue
                terms = []
                for x, y in ((e[i][k], e[q][l]), (e[i][q], e[k][l])):
                    if l < 3:
                        terms.append(np.bitwise_and(x, y, out=self._tmp[len(terms), :w]))
                    elif y:
                        terms.append(x)
                if terms:
                    dst = self._own[_PLANE[i][l], :w]
                    np.bitwise_xor(e[i][l], terms[0], out=dst)
                    for t in terms[1:]:
                        np.bitwise_xor(dst, t, out=dst)
                    e[i][l] = e[l][i] = dst
        # the loop stops when every live entry inside C is the int 0, so the
        # residual, with C's vertices first, is [[0, X], [X^T, B]], and
        # rank_half leaves out the ops on its zero block
        return s, self.rank_half(e, live[3:] + live[:3])

    def _and_xor(self, base, terms, out: np.ndarray):
        """base ^ x0 & y0 ^ x1 & y1 ^ ... into out, where an int operand is
        a known zero: every term with an int factor is left out, and an int
        base adds nothing.  Returns base itself when no term is left, else
        out; out may be base, and it borrows tmp row 0."""
        terms = [(x, y) for x, y in terms if not isinstance(x, int) and not isinstance(y, int)]
        if not terms:
            return base
        tmp = self._tmp[0, : out.size]
        (x, y), *rest = terms
        if isinstance(base, int):
            np.bitwise_and(x, y, out=out)
        else:
            np.bitwise_and(x, y, out=tmp)
            np.bitwise_xor(base, tmp, out=out)
        for x, y in rest:
            np.bitwise_and(x, y, out=tmp)
            np.bitwise_xor(out, tmp, out=out)
        return out

    def rank_half(self, e: list[list], live: list[int]) -> np.ndarray:
        """rank/2 of the alternating matrices e[live][:, live], of order
        n = len(live) >= 4, as three bit planes (bit b of rank/2 in row b).

        Every entry of e among live is a word array of one length, or the
        int 0 for an entry known to be zero in every lane; bit l of an entry
        is that entry of lane l.  Entries are read, never written: an update
        replaces e[i][l] by a scratch row.  Step k takes row k (r) and its
        lowest set bit q: pick_j marks the lanes with q = j (r_j set, every
        earlier r_j' clear), the running OR of r (seen) marks those with r
        nonzero, and row q is R = OR_j pick_j & row j.  a_kq = 1 pivots the
        pair (k, q): E[i][l] ^= R_i & r_l ^ r_i & R_l over i < l beyond k
        keeps the matrix alternating, zeroes row q and lowers the rank by 2
        (row and column k are never read again); a zero r makes R zero.
        Every op with a known-zero operand is left out, so an entry between
        two vertices whose r entries are known zeros stays one: on
        [[0, X], [X^T, B]] with the zero block first, it stays zero while
        the steps run over that block.  Steps run on all but the last four
        vertices a, b, c, d, which then hold a 4x4 alternating matrix: its
        rank is 4 when its Pfaffian ab.cd + ac.bd + ad.bc is 1, and 2 when
        it is 0 but some entry is 1, so two counts replace the last step.
        """
        w = next(x.size for row in e for x in row if isinstance(x, np.ndarray))
        rows = self._row[:, :w]
        seen_rows = list(self._seen[:, :w])
        half = self._half[:, :w]
        half.fill(0)
        for step, k in enumerate(live[:-4]):
            rest = live[step + 1 :]
            r = e[k]
            seen, row_q = 0, {}  # row_q[l] = R_l, for each l whose R_l is not a known zero
            for j in rest:
                if isinstance(r[j], int):
                    continue  # pick_j is zero
                if isinstance(seen, int):
                    seen = pick = r[j]
                else:
                    prev = seen
                    seen = seen_rows[prev is seen_rows[0]]
                    np.bitwise_or(prev, r[j], out=seen)
                    pick = self._pick[:w]
                    np.bitwise_xor(seen, prev, out=pick)
                for l in rest:
                    if l == j or isinstance(e[j][l], int):
                        continue
                    if l in row_q:
                        np.bitwise_and(pick, e[j][l], out=self._tmp[0, :w])
                        np.bitwise_or(rows[l], self._tmp[0, :w], out=rows[l])
                    else:
                        row_q[l] = np.bitwise_and(pick, e[j][l], out=rows[l])
            for i, l in combinations(rest, 2):
                terms = ((row_q.get(i, 0), r[l]), (r[i], row_q.get(l, 0)))
                e[i][l] = e[l][i] = self._and_xor(e[i][l], terms, self._own[_PLANE[i][l], :w])
            if not isinstance(seen, int):
                self._count(half, seen)
        a, b, c, d = live[-4:]
        pf = self._and_xor(
            0, ((e[a][b], e[c][d]), (e[a][c], e[b][d]), (e[a][d], e[b][c])), self._tmp[1, :w]
        )
        nonzero = [x for x in (e[a][b], e[a][c], e[a][d], e[b][c], e[b][d], e[c][d])
                   if not isinstance(x, int)]
        if nonzero:
            seen = nonzero[0]
            for x in nonzero[1:]:
                seen = np.bitwise_or(seen, x, out=seen_rows[0])
            self._count(half, seen)
        if not isinstance(pf, int):
            self._count(half, pf)
        return half


def _packed_rank(mat: np.ndarray) -> np.ndarray:
    """GF(2) rank of each packed 8x8 matrix (byte i = row i).

    The matrices are grouped by their block C, each group is transposed
    into the bit planes of its own run of words, padded with zero lanes,
    and each run is ranked by the sweep's per-block routine.  Exact only on
    alternating matrices (symmetric, zero diagonal), the sweep's whole
    domain: pair pivoting returns even ranks only.  mat is not modified.
    """
    n = mat.size
    bits = np.unpackbits(mat.astype("<u8").view(np.uint8).reshape(n, 8), axis=1, bitorder="little")
    entries = bits[:, [8 * i + j for i, j in N3_PAIRS]]
    block = entries[:, _FREE:].astype(np.intp) @ (1 << np.arange(len(N3_PAIRS) - _FREE))
    order = np.argsort(block, kind="stable")
    cs, first = np.unique(block[order], return_index=True)
    sizes = np.diff(first, append=n)
    bounds = np.concatenate([[0], np.cumsum(-(-sizes // 64))])
    # the lane of matrix order[t]: group g starts at word bounds[g]
    lane = np.arange(n) + np.repeat(64 * bounds[:-1] - first, sizes)
    grid = np.zeros((_FREE, 64 * bounds[-1]), dtype=np.uint8)
    grid[:, lane] = entries[order, :_FREE].T
    kernel = _BitSliced(int(bounds[-1]))
    kernel.planes[:] = np.packbits(grid, axis=1, bitorder="little").view("<u8")
    halves = np.empty((3, bounds[-1]), dtype="<u8")
    pivots = np.empty(bounds[-1], dtype=np.uint8)
    for c, lo, hi in zip(cs.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        pivots[lo:hi], halves[:, lo:hi] = kernel(c, lo, hi)
    half = np.unpackbits(halves.view(np.uint8), axis=1, bitorder="little")
    ranks = 2 * (np.repeat(pivots, 64) + half.T @ np.array([1, 2, 4], dtype=np.uint8))
    out = np.empty(n, dtype=np.uint8)
    out[order] = ranks[lane]
    return out


def _sweep_blocks(start: int, stop: int, blocks) -> SweepStats:
    """Examine the counters in [start, stop) of each sweep block in blocks
    with one bit-sliced kernel.

    Counter 64w + l is lane l of word w.  Words go in aligned blocks of
    _WORDS, whose counters share bits _FREE..27, so the block index is C,
    and the planes of bits 0.._FREE-1 are the same in every block: lane
    patterns, then runs of zero and all-ones words, filled once, before the
    first block is taken.  The kernel ranks the block's words that meet
    the range, and lanes outside [start, stop) in the first and last word
    are masked out of the histogram.
    """
    counts = np.zeros(N3_ORDER + 1, dtype=np.int64)
    kernel = _BitSliced(_WORDS)
    kernel.planes[:6] = _LANE_PLANES[:, None]
    runs = np.array([[0], [_ONES]], dtype=np.uint64)
    for b in range(_FREE - 6):
        kernel.planes[6 + b].reshape(-1, 2, 1 << b)[:] = runs
    first, last = start >> 6, (stop - 1) >> 6
    for block in blocks:
        base = block * _WORDS
        lo, hi = max(first - base, 0), min(last + 1 - base, _WORDS)
        s, half = kernel(block, lo, hi)
        first_lane, stop_lane = 64 * (base + lo), 64 * (base + hi)
        half[:, 0] &= _ONES << np.uint64(max(start - first_lane, 0))
        half[:, -1] &= _ONES >> np.uint64(max(stop_lane - stop, 0))
        # rank/2 is at most 4, so lanes with bit 2 set have bits 0 and 1 clear
        pop = [int(np.bitwise_count(h).sum()) for h in half]
        both = int(np.bitwise_count(half[0] & half[1]).sum())
        got = [pop[0] - both, pop[1] - both, both, pop[2]]
        lanes = min(stop, stop_lane) - max(start, first_lane)
        # the residual has order 8 - 2s, so its rank/2 is at most 4 - s
        counts[2 * s :: 2] += [lanes - sum(got), *got[: 4 - s]]
    return SweepStats(counts.tolist())


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


def _claimed(next_block, stop_block: int):
    """Sweep blocks taken one at a time from the shared counter next_block
    (a multiprocessing.Value) until stop_block: every sweeping process draws
    from it, so each block goes to exactly one of them."""
    while True:
        with next_block.get_lock():
            block = next_block.value
            next_block.value = block + 1
        if block >= stop_block:
            return
        yield block


def _sweep_child(start: int, stop: int, next_block, stop_block: int, conn) -> None:
    """A sweep worker process: sends the SweepStats of the blocks it
    claimed, or the text of the exception that stopped it."""
    try:
        result = _sweep_blocks(start, stop, _claimed(next_block, stop_block))
    except Exception as exc:
        result = f"{type(exc).__name__}: {exc}"
    conn.send(result)


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
    """Sweep counters [start, stop) on min(workers, blocks) processes: the
    caller and one child for each other worker.

    One worker is sweep_range.  Otherwise each process builds one kernel
    and claims sweep blocks one at a time from a shared counter, so a
    process that runs faster ranks more of them; histograms add, so the
    result does not depend on which process ranks a block.  The caller
    reads each child's pipe between its blocks, so when a child raises or
    exits without its result, every other child is terminated and joined
    at once, and SweepWorkerError is raised; no child outlives the call.
    """
    if not 0 <= start < stop <= N3_SPAN:
        raise ValueError(f"sweep range needs 0 <= start < stop <= {N3_SPAN}, got [{start}, {stop})")
    first, stop_block = _block_bounds(start, stop)
    processes = min(workers, stop_block - first)
    if processes <= 1:
        return sweep_range(start, stop)
    # only a parallel sweep pays for the import.  Children come from the
    # platform's default start method, fork on Linux, so they start without
    # importing numpy and f2rank again (about 0.2 s a child, against about
    # 20 ms for a 2^24-counter range on one worker)
    import multiprocessing

    next_block = multiprocessing.Value("q", first)
    children = []
    parts = []  # each child's result, read as soon as it is sent

    def polled(blocks):
        for block in blocks:
            parts.extend(_received(c, r) for c, r in children if not r.closed and r.poll())
            yield block

    done = False
    try:
        for _ in range(processes - 1):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_sweep_child, args=(start, stop, next_block, stop_block, send), daemon=True
            )
            child.start()
            send.close()
            children.append((child, recv))
        total = _sweep_blocks(start, stop, polled(_claimed(next_block, stop_block)))
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
