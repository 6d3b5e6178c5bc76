"""Exhaustive finite certification: order-4 uniqueness, order-8 nonexistence,
and exact graph isomorphism with a certifying bijection.

The order-8 sweep enumerates all 2^28 symmetric zero-diagonal 8x8 matrices
by treating the upper-triangle entries as counter bits (pairs (i,j), i<j,
in row-major order).  Each candidate packs into one uint64 (byte i = row i).
The sweep walks blocks of at most 2^14 counters that never cross a multiple
of 2^14, so a block is one slice of a low-bits table ORed with one
high-bits entry, and ranks a block with branchless pair pivots (p, q) with
a_pq = 1, which clear two rows and columns per step of an alternating
matrix; buffers are reused, so a block's working set stays in cache.  The
sweep's whole result is its rank histogram, and the scalar reference path
is the test oracle.  Work partitions into disjoint counter ranges whose
histograms add, so the outcome is independent of worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .gf2 import BitMatrix, rank_of_row_ints, symplectic_coordinates
from .graph import Graph
from .constructions import g2

N3_ORDER = 8
N3_PAIRS = list(combinations(range(N3_ORDER), 2))
N3_SPAN = 1 << len(N3_PAIRS)  # 2^28 candidates
DEFAULT_CHUNK = 1 << 22
_BLOCK = 1 << 14  # one value of the high 14 counter bits

_LANE = np.uint64(0x0101010101010101)
_GATHER = np.uint64(0x0102040810204080)
_U56 = np.uint64(56)
_U255 = np.uint64(0xFF)


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
    from .graph import to_graph6

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

# Entry (i, j) of the fully determined candidate matrix, encoded as a mask
# over the three free bits (bit0, bit1, bit2) = (x, y, z) = (A01, A02, A12).
# Rows 4..7 are forced: row3 = row0^row1, row4 = row0^row2, row5 = row1^row2,
# row6 = row0^row1^row2, row7 = 0; symmetry then pins every entry.
_N3_COEFFS = (
    (0, 1, 2, 1, 2, 3, 3, 0),
    (1, 0, 4, 1, 5, 4, 5, 0),
    (2, 4, 0, 6, 2, 4, 6, 0),
    (1, 1, 6, 0, 7, 7, 6, 0),
    (2, 5, 2, 7, 0, 7, 5, 0),
    (3, 4, 4, 7, 7, 0, 3, 0),
    (3, 5, 6, 6, 5, 3, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0),
)


def _structured_matrix(x: int, y: int, z: int) -> list[int]:
    assignment = x | (y << 1) | (z << 2)
    rows = []
    for coeff_row in _N3_COEFFS:
        bits = 0
        for j, mask in enumerate(coeff_row):
            if (mask & assignment).bit_count() & 1:
                bits |= 1 << j
        rows.append(bits)
    return rows


def nonexistence_n3_structured() -> bool:
    """All eight fillings of the forced order-8 candidate have duplicate rows."""
    for coeffs in _N3_COEFFS:
        if len(coeffs) != 8:
            raise AssertionError("coefficient table is malformed")
    # structural sanity on the coefficient masks themselves; together with
    # the coset relations below and the three marked free cells this forces
    # the whole table, so any transcription slip trips an assertion
    for i in range(8):
        for j in range(8):
            if _N3_COEFFS[i][j] != _N3_COEFFS[j][i]:
                raise AssertionError("coefficient matrix not symmetric")
        if _N3_COEFFS[i][i] != 0:
            raise AssertionError("coefficient matrix has nonzero diagonal")
    if (_N3_COEFFS[0][1], _N3_COEFFS[0][2], _N3_COEFFS[1][2]) != (1, 2, 4):
        raise AssertionError("free cells are not the three marked entries")
    combos = {3: (0, 1), 4: (0, 2), 5: (1, 2)}
    for row, parts in combos.items():
        for j in range(8):
            want = _N3_COEFFS[parts[0]][j] ^ _N3_COEFFS[parts[1]][j]
            if _N3_COEFFS[row][j] != want:
                raise AssertionError("coset relation broken in coefficient matrix")
    for j in range(8):
        want = _N3_COEFFS[0][j] ^ _N3_COEFFS[1][j] ^ _N3_COEFFS[2][j]
        if _N3_COEFFS[6][j] != want:
            raise AssertionError("coset relation broken in coefficient matrix")

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
            return False
    return True


def n3_structured_certificate() -> dict:
    violations = []
    for assignment in range(8):
        x, y, z = assignment & 1, (assignment >> 1) & 1, (assignment >> 2) & 1
        rows = _structured_matrix(x, y, z)
        if len(set(rows)) == 8:
            violations.append([x, y, z])
    return {
        "mode": "n3-structured",
        "candidates_examined": 8,
        "violations": violations,
        "stats": {"assignments_with_duplicate_rows": 8 - len(violations)},
        "pass": not violations,
    }


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
    """Packed-row contributions of the low and high 14 counter bits.

    Every entry is alternating, so every candidate lo[a] | hi[b] (an XOR:
    the two halves touch disjoint entries) is too, which is the input
    domain of _packed_rank.
    """
    global _half_tables
    if _half_tables is None:
        lo = np.zeros(_BLOCK, dtype=np.uint64)
        hi = np.zeros(_BLOCK, dtype=np.uint64)
        for p, (i, j) in enumerate(N3_PAIRS):
            contrib = np.uint64((1 << (8 * i + j)) | (1 << (8 * j + i)))
            table, bit = (lo, p) if p < 14 else (hi, p - 14)
            idx = np.nonzero(np.arange(_BLOCK) & (1 << bit))[0]
            table[idx] ^= contrib
        if not (_alternating(lo) and _alternating(hi)):
            raise AssertionError("counter tables hold a non-alternating matrix")
        _half_tables = (lo, hi)
    return _half_tables


# _LOWBIT[m] = index of the lowest set bit of the byte m (0 for m = 0)
_LOWBIT = np.array([(m & -m).bit_length() - 1 if m else 0 for m in range(256)], dtype=np.uint64)


class _PairPivot:
    """The pair-pivot rank kernel with its scratch buffers, for up to
    `size` packed matrices per call; one instance serves a whole sweep."""

    def __init__(self, size: int):
        self._words = np.empty((5, size), dtype=np.uint64)
        self._nonzero = np.empty(size, dtype=bool)
        self._rank = np.empty(size, dtype=np.uint8)

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        """Ranks of the alternating matrices in `mat`, which is overwritten.

        Step k takes row k (r_k) and the lowest set bit q of r_k; a_kq = 1
        pivots the pair (k, q).  Let SPREAD[r] hold bit i of r in byte i;
        by symmetry column j is row j, so SPREAD[r_j] = (mat >> j) & LANE.
        mat ^= SPREAD[r_q] * r_k ^ SPREAD[r_k] * r_q clears rows and
        columns k and q, keeps mat alternating and lowers its rank by 2; a
        zero r_k makes both products zero.  After steps 0..4 rows 0..4 are
        zero and rows 5..7 hold a 3x3 alternating matrix, whose rank is 2
        unless it is zero, so a nonzero test replaces steps 5 and 6.
        """
        n = mat.size
        rk, q, sq, sk, rq = self._words[:, :n]
        nonzero, rank = self._nonzero[:n], self._rank[:n]
        rank.fill(0)
        rk_index = rk.view(np.intp)
        for k in range(5):
            np.right_shift(mat, np.uint64(8 * k), out=rk)
            np.bitwise_and(rk, _U255, out=rk)
            np.take(_LOWBIT, rk_index, out=q, mode="clip")  # bytes: never clipped
            np.right_shift(mat, q, out=sq)
            np.bitwise_and(sq, _LANE, out=sq)  # SPREAD[r_q]
            np.multiply(sq, _GATHER, out=rq)
            np.right_shift(rq, _U56, out=rq)  # r_q
            np.right_shift(mat, np.uint64(k), out=sk)
            np.bitwise_and(sk, _LANE, out=sk)  # SPREAD[r_k]
            np.multiply(sq, rk, out=sq)
            np.multiply(sk, rq, out=sk)
            np.bitwise_xor(mat, sq, out=mat)
            np.bitwise_xor(mat, sk, out=mat)
            np.not_equal(rk, 0, out=nonzero)
            np.add(rank, nonzero, out=rank)
        np.right_shift(mat, np.uint64(40), out=rk)
        np.not_equal(rk, 0, out=nonzero)
        np.add(rank, nonzero, out=rank)
        np.add(rank, rank, out=rank)
        return rank


def _packed_rank(mat: np.ndarray) -> np.ndarray:
    """GF(2) rank of each packed 8x8 matrix (byte i = row i), branchless.

    Exact only on alternating matrices (symmetric, zero diagonal), the
    sweep's whole domain: pair pivoting returns even ranks only.
    """
    return _PairPivot(mat.size)(mat.copy())


def sweep_range(start: int, stop: int) -> SweepStats:
    """Examine counters [start, stop) with the vectorized engine.

    Blocks never cross a multiple of 2^14, so a block's candidates are one
    slice of the low table ORed with one entry of the high table, and the
    block and the kernel's buffers stay in cache.
    """
    lo, hi = _counter_half_tables()
    counts = np.zeros(N3_ORDER + 1, dtype=np.int64)
    kernel = _PairPivot(_BLOCK)
    block = np.empty(_BLOCK, dtype=np.uint64)
    base = start
    while base < stop:
        offset = base % _BLOCK
        size = min(_BLOCK - offset, stop - base)
        packed = np.bitwise_or(lo[offset : offset + size], hi[base // _BLOCK], out=block[:size])
        counts += np.bincount(kernel(packed), minlength=N3_ORDER + 1)
        base += size
    return SweepStats(counts.tolist())


def sweep_range_reference(start: int, stop: int) -> SweepStats:
    """Pure-Python per-candidate sweep; oracle for the vectorized engine."""
    stats = SweepStats()
    for counter in range(start, stop):
        rows = _rows_from_counter(counter, N3_ORDER, N3_PAIRS)
        stats.rank_counts[rank_of_row_ints(rows, N3_ORDER)] += 1
    return stats


def _sweep_task(bounds: tuple[int, int]) -> SweepStats:
    return sweep_range(*bounds)


def run_exhaustive_sweep(
    start: int = 0,
    stop: int = N3_SPAN,
    workers: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> SweepStats:
    """Partitioned sweep; chunk layout is fixed, so the combined result is
    identical for any worker count."""
    if not 0 <= start < stop <= N3_SPAN:
        raise ValueError(f"sweep range needs 0 <= start < stop <= {N3_SPAN}, got [{start}, {stop})")
    bounds = [(b, min(b + chunk, stop)) for b in range(start, stop, chunk)]
    if workers <= 1 or len(bounds) <= 1:
        parts = [_sweep_task(b) for b in bounds]
    else:
        with multiprocessing.Pool(processes=min(workers, len(bounds))) as pool:
            parts = pool.map(_sweep_task, bounds)
    out = SweepStats()
    for p in parts:
        out = out.merge(p)
    return out


def nonexistence_n3_exhaustive(workers: int = 1) -> bool:
    """True iff no symmetric zero-diagonal 8x8 matrix has GF(2)-rank 3, so
    none is twin-free of rank 3."""
    return run_exhaustive_sweep(workers=workers).rank_counts[3] == 0


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
    vertices are mapped by their symplectic coordinates, so the witness is
    the unique bijection that preserves the codes; otherwise the answer
    comes from _backtrack_isomorphism.  Every witness is checked exactly.
    """
    n = g.order
    if n != h.order or g.edge_count() != h.edge_count():
        return False, None
    if n == 0:
        return True, []
    code_g = symplectic_coordinates(g.adj)
    code_h = symplectic_coordinates(h.adj)
    if code_g is not None and code_h is not None:
        # both adjacencies are the standard form on their codes
        inv_h = np.full(n, -1, dtype=np.intp)
        inv_h[code_h] = np.arange(n)
        mapping = inv_h[code_g].tolist()
    elif code_g is not None or code_h is not None:
        # relabelling permutes the rows and, by one linear bijection, the
        # columns, so whether the rows list a subspace is an invariant
        return False, None
    else:
        ok, mapping = _backtrack_isomorphism(g, h)
        if not ok:
            return False, None
    _check_witness(g, h, mapping)
    return True, mapping
