from __future__ import annotations

import multiprocessing
import os
import random
import sys
from itertools import combinations

import numpy as np
import pytest

from f2rank.codes import subspace_codes
from f2rank.gf2 import rank_of_row_ints
from f2rank.graph import Graph
from f2rank.constructions import g2, g2_power, linegraph_clique_plus_isolated
from f2rank import search
from f2rank.cli import main
from f2rank.search import (
    N3_PAIRS,
    N3_SPAN,
    SweepStats,
    _backtrack_isomorphism,
    _refine_colors,
    _rows_from_counter,
    _structured_matrix,
    alternating_rank_histogram,
    enumerate_n2,
    isomorphic,
    n2_certificate,
    n3_exhaustive_certificate,
    n3_structured_certificate,
    nonexistence_n3_structured,
    run_exhaustive_sweep,
    sweep_range,
    sweep_range_reference,
)
from f2rank.verify import full_report

from conftest import alternating_rank_counts, random_graph, relabel


# ---------------------------------------------------------------------------
# order-4 uniqueness
# ---------------------------------------------------------------------------


def test_enumerate_n2():
    found = enumerate_n2()
    assert len(found) == 4  # one labeling per choice of the isolated vertex
    target = g2()
    for g in found:
        ok, witness = isomorphic(g, target)
        assert ok and witness is not None
        assert full_report(g, expect_n=2).report.passed


def test_n2_certificate():
    cert = n2_certificate()
    assert cert["pass"] and cert["candidates_examined"] == 64
    assert cert["violations"] == []
    assert cert["stats"]["solutions_found"] == 4


# ---------------------------------------------------------------------------
# order-8 structured analysis
# ---------------------------------------------------------------------------


def test_structured_coefficients_derived_independently():
    # rebuild the coefficient table from first principles: the top-left 3x3
    # block is pinned by the zero diagonal, the three free cells and
    # symmetry; every other entry follows from the forced row combinations.
    # Entry (i, j) is a mask over (bit0, bit1, bit2) = (x, y, z) = (A01, A02, A12)
    base = [[0, 1, 2], [1, 0, 4], [2, 4, 0]]
    combos = {3: (0, 1), 4: (0, 2), 5: (1, 2), 6: (0, 1, 2), 7: ()}
    table = [[0] * 8 for _ in range(8)]
    for i in range(3):
        for j in range(3):
            table[i][j] = base[i][j]
    for i in range(3):
        for j in range(3, 8):
            acc = 0
            for a in combos[j]:
                acc ^= base[a][i]
            table[i][j] = acc  # symmetry: M[i][j] = M[j][i] = row-combo at col i
    for j in range(3, 8):
        for col in range(8):
            acc = 0
            for a in combos[j]:
                acc ^= table[a][col]
            table[j][col] = acc
    for assignment in range(8):
        x, y, z = assignment & 1, (assignment >> 1) & 1, (assignment >> 2) & 1
        want = [
            sum(((mask & assignment).bit_count() & 1) << j for j, mask in enumerate(row))
            for row in table
        ]
        assert _structured_matrix(x, y, z) == want


def test_structured_matrix_consistency():
    # filled matrices respect the forced coset relations for every assignment
    for assignment in range(8):
        x, y, z = assignment & 1, (assignment >> 1) & 1, (assignment >> 2) & 1
        rows = _structured_matrix(x, y, z)
        assert rows[3] == rows[0] ^ rows[1]
        assert rows[4] == rows[0] ^ rows[2]
        assert rows[5] == rows[1] ^ rows[2]
        assert rows[6] == rows[0] ^ rows[1] ^ rows[2]
        assert rows[7] == 0
        assert rank_of_row_ints(rows, 8) <= 3


def test_structured_all_zero_assignment():
    rows = _structured_matrix(0, 0, 0)
    assert rows.count(0) == 8  # the all-zero row appears more than once


def test_nonexistence_n3_structured():
    assert nonexistence_n3_structured() is True
    cert = n3_structured_certificate()
    assert cert["pass"] and cert["stats"]["assignments_with_duplicate_rows"] == 8


# ---------------------------------------------------------------------------
# order-8 exhaustive sweep
# ---------------------------------------------------------------------------


def test_sweep_agrees_with_reference():
    assert sweep_range(0, 1 << 12) == sweep_range_reference(0, 1 << 12)
    rng = random.Random(40)
    for _ in range(4):
        start = rng.randrange(0, (1 << 28) - (1 << 10))
        assert sweep_range(start, start + (1 << 10)) == sweep_range_reference(
            start, start + (1 << 10)
        )


def test_sweep_unaligned_ranges_match_reference():
    # ranges that start or stop inside a 64-lane word, or cross a word
    # boundary; the rank histogram differs from the reference if a counter
    # is skipped or examined twice
    ranges = [(16380, 16390), (5, 20000), (1 << 14, (1 << 14) + 3), ((1 << 28) - 7, 1 << 28)]
    for start, stop in ranges:
        got = sweep_range(start, stop)
        assert got == sweep_range_reference(start, stop)
        assert sum(got.rank_counts) == got.candidates_examined == stop - start


@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 1),
        (63, 65),  # the last lane of word 0 and the first of word 1
        (64, 128),  # exactly word 1
        (70, 75),  # inside one word
        (64 * search._WORDS - 70, 64 * search._WORDS + 70),  # across two sweep blocks
        (N3_SPAN - 65, N3_SPAN),
    ],
)
def test_sweep_lane_and_word_edges_match_reference(start, stop):
    got = sweep_range(start, stop)
    assert got == sweep_range_reference(start, stop)
    assert got.candidates_examined == stop - start


def test_counter_half_tables_match_definition():
    # lo[a] is the packed 8x8 matrix of counter a < 2^14, hi[b] that of b << 14
    from f2rank.search import _counter_half_tables

    def packed(counter):
        rows = _rows_from_counter(counter, 8, N3_PAIRS)
        return sum(row << 8 * i for i, row in enumerate(rows))

    lo, hi = _counter_half_tables()
    assert lo.dtype == hi.dtype == np.uint64
    assert lo.tolist() == [packed(a) for a in range(1 << 14)]
    assert hi.tolist() == [packed(b << 14) for b in range(1 << 14)]


@pytest.mark.parametrize("size", [1, 63, 64, 65])
def test_packed_rank_sizes_leave_input_unchanged(size):
    from f2rank.search import _counter_half_tables, _packed_rank

    lo, hi = _counter_half_tables()
    counters = np.arange(size, dtype=np.int64) * 4099 + 3 * 2**26
    packed = lo[counters & 0x3FFF] | hi[counters >> 14]
    before = packed.copy()
    ranks = _packed_rank(packed)
    assert np.array_equal(packed, before)
    assert ranks.shape == (size,)
    assert ranks.tolist() == [
        rank_of_row_ints(_rows_from_counter(c, 8, N3_PAIRS), 8) for c in counters.tolist()
    ]


# Counter bits 18..27 are the 5x5 block C on vertices 3..7, constant over a
# sweep block of 2^18 counters, so block c has C = c.  C = 1 sets entry
# (3, 4) and C = 1 | 1 << 7 sets (3, 4) and (5, 6).
_BLOCK_OF_C_RANK = {0: 0, 2: 1, 4: 1 | 1 << 7}


@pytest.mark.parametrize("c_rank", [0, 2, 4])
def test_sweep_inside_constant_blocks_matches_reference(c_rank):
    # residual order 8, 6 and 4 after the scalar pivots on C
    c = _BLOCK_OF_C_RANK[c_rank]
    assert rank_of_row_ints(_rows_from_counter(c << 18, 8, N3_PAIRS), 8) == c_rank
    base, span = c << 18, 64 * search._WORDS
    ranges = [
        (base, base + 4096),  # aligned, at the block start
        (base + 64 * 1000, base + 64 * 1040),  # aligned, inside
        (base + 777, base + 5555),  # unaligned, inside
        (base + span - 3001, base + span),  # unaligned start, at the block end
    ]
    for start, stop in ranges:
        assert sweep_range(start, stop) == sweep_range_reference(start, stop)


def _lane_levels(levels: list[np.ndarray]) -> np.ndarray:
    """The number of levels that hold each lane, read before the kernel's
    next call overwrites them."""
    bits = [np.unpackbits(x.astype("<u8").view(np.uint8), bitorder="little") for x in levels]
    return np.sum(bits, axis=0, dtype=np.intp) if bits else 0


def _eliminated_ranks(packed: np.ndarray) -> np.ndarray:
    """GF(2) rank of each packed 8x8 matrix (byte i = row i), by Gaussian
    elimination of all of them at once: column by column, the first row
    holding the bit is XORed into every row holding it, itself included."""
    rows = packed.astype("<u8").view(np.uint8).reshape(-1, 8).copy()
    ranks = np.zeros(len(rows), dtype=np.intp)
    every = np.arange(len(rows))
    for bit in range(8):
        holds = (rows >> bit & 1).astype(bool)
        ranks += holds.any(axis=1)
        rows ^= rows[every, holds.argmax(axis=1)][:, None] * holds
    return ranks


def test_constant_pivots_match_elimination_for_every_block():
    # words 1000..1063 of every block: the scalar pivots on C plus the
    # residual levels against Gaussian elimination of the same matrices,
    # lane by lane
    from f2rank.search import _counter_half_tables

    lo, hi = _counter_half_tables()
    first, words = 1000, 64
    kernel = search._BitSliced()
    assert not kernel.planes.flags.writeable
    low = np.arange(64 * first, 64 * (first + words))
    pivots = set()
    for c in range(1 << 10):
        counters = c << 18 | low
        want = _eliminated_ranks(lo[counters & 0x3FFF] | hi[counters >> 14])
        s, levels = kernel(c)
        levels = [level[first : first + words] for level in levels]
        assert len(levels) <= 4 - s
        # nested, as the histogram's popcount differences need
        assert not any((above & ~below).any() for below, above in zip(levels, levels[1:]))
        assert np.array_equal(2 * (s + _lane_levels(levels)), want), c
        pivots.add(s)
    assert pivots == {0, 1, 2}
    # the oracle itself, on a few lanes of the last block
    for lane in (0, 64 * 17 + 45, 64 * words - 1):
        counter = 1023 << 18 | 64 * first + lane
        assert want[lane] == rank_of_row_ints(_rows_from_counter(counter, 8, N3_PAIRS), 8)


def test_packed_rank_across_many_blocks_matches_scalar():
    # three matrices under every one of the 1024 blocks C, and one block
    # with more than a word of matrices, against elimination
    from f2rank.search import _counter_half_tables, _packed_rank

    lo, hi = _counter_half_tables()
    rng = np.random.default_rng(44)
    blocks = np.arange(1 << 10)
    counters = np.concatenate([
        (blocks[:, None] << 18 | rng.integers(0, 1 << 18, size=(1 << 10, 3))).ravel(),
        (777 << 18) + rng.integers(0, 1 << 18, size=150),
    ])
    rng.shuffle(counters)
    packed = lo[counters & 0x3FFF] | hi[counters >> 14]
    before = packed.copy()
    ranks = _packed_rank(packed)
    assert np.array_equal(packed, before)
    assert ranks.tolist() == [
        rank_of_row_ints(_rows_from_counter(c, 8, N3_PAIRS), 8) for c in counters.tolist()
    ]


def _rank_of_block(block: int) -> int:
    return rank_of_row_ints(_rows_from_counter(block << 18, 8, N3_PAIRS), 8)


def test_sweep_across_rank4_blocks_mid_word_matches_reference():
    # ranges over two and three blocks whose C has rank 4 (the residual of
    # order 4, counted from two popcounts), starting and stopping inside a
    # word, so the first and the last word of the range are masked
    span = 1 << 18
    edges = [b for b in range(1, 1 << 10) if _rank_of_block(b - 1) == _rank_of_block(b) == 4]
    assert len(edges) > 600
    for b in (edges[0], edges[len(edges) // 2], edges[-1]):
        for start, stop in ((b * span - 1000 + 13, b * span + 777), (b * span - 64 * 7 - 1, b * span + 64 * 9 + 63)):
            assert start % 64 and stop % 64
            want = sweep_range_reference(start, stop)
            assert sweep_range(start, stop) == want
            assert run_exhaustive_sweep(start=start, stop=stop, workers=2) == want
    # three blocks: the whole middle one is ranked by the kernel alone, so
    # only the parts in the outer two go to the reference
    b = next(b for b in edges if _rank_of_block(b + 1) == 4)
    start, stop = (b - 1) * span + 64 * 4095 + 5, (b + 1) * span + 70
    middle = sweep_range(b * span, (b + 1) * span)
    want = sweep_range_reference(start, b * span).merge(middle).merge(sweep_range_reference((b + 1) * span, stop))
    assert sweep_range(start, stop) == want
    assert run_exhaustive_sweep(start=start, stop=stop, workers=3) == want


@pytest.mark.parametrize("n", [4, 5])
def test_alternating_rank_counts_brute_force(n):
    pairs = list(combinations(range(n), 2))
    counts = [0] * (n + 1)
    for counter in range(1 << len(pairs)):
        counts[rank_of_row_ints(_rows_from_counter(counter, n, pairs), n)] += 1
    assert counts == alternating_rank_counts(n)
    assert counts[:5] == ([1, 0, 35, 0, 28] if n == 4 else [1, 0, 155, 0, 868])


def test_sweep_rank_matches_scalar_on_samples():
    import numpy as np

    from f2rank.search import _counter_half_tables, _packed_rank

    lo, hi = _counter_half_tables()
    rng = random.Random(41)
    counters = np.array([rng.randrange(1 << 28) for _ in range(4000)], dtype=np.uint64)
    mask14 = np.uint64((1 << 14) - 1)
    packed = lo[(counters & mask14).astype(np.intp)] | hi[
        (counters >> np.uint64(14)).astype(np.intp)
    ]
    vr = _packed_rank(packed)
    for c, r in zip(counters.tolist(), vr.tolist()):
        rows = _rows_from_counter(c, 8, N3_PAIRS)
        assert rank_of_row_ints(rows, 8) == r


# unaligned ranges over several 2^18-counter sweep blocks: blocks 0..3, and
# blocks 1..3 starting inside a word
_MULTI_BLOCK_RANGES = [
    ((1 << 18) - 100, 3 * (1 << 18) + 50),
    ((1 << 18) + 12345, 4 * (1 << 18) - 1),
]


def test_sweep_partition_independence():
    # however the blocks fall to processes, every counter is ranked once
    for start, stop in _MULTI_BLOCK_RANGES:
        whole = sweep_range(start, stop)
        assert whole.candidates_examined == stop - start
        for workers in (1, 2, 3, 4):
            assert run_exhaustive_sweep(start=start, stop=stop, workers=workers) == whole


def test_sweep_worker_independence_small():
    # slices small enough for the scalar oracle, across a block edge
    for start, stop in (((1 << 18) - 300, (1 << 18) + 200), ((5 << 18) - 7, (5 << 18) + 65)):
        want = sweep_range_reference(start, stop)
        for workers in (1, 2, 3, 4):
            assert run_exhaustive_sweep(start=start, stop=stop, workers=workers) == want


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the sweep takes this process to have, which
    caps its process count."""

    def patch(count):
        monkeypatch.setattr(search, "_usable_cpus", lambda: count)

    return patch


@pytest.fixture
def started(monkeypatch):
    """The sweep processes started while a test runs, from any context."""
    procs = []
    start = multiprocessing.process.BaseProcess.start

    def recording(self):
        procs.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return procs


def test_sweep_starts_one_child_per_extra_block_worker(cpus, started):
    cpus(8)
    start, stop = _MULTI_BLOCK_RANGES[0]  # four blocks
    serial = sweep_range(start, stop)
    for workers, children in ((1, 0), (2, 1), (3, 2), (4, 3), (64, 3)):
        del started[:]
        assert run_exhaustive_sweep(start=start, stop=stop, workers=workers) == serial
        assert len(started) == children
        assert all(p.exitcode == 0 for p in started)
    # a range inside one block starts no child at any worker count
    for bounds in ((0, 1 << 14), (5 << 18, 6 << 18), ((7 << 18) + 3, (8 << 18) - 3)):
        del started[:]
        assert run_exhaustive_sweep(*bounds, workers=64) == sweep_range(*bounds)
        assert started == []
    assert multiprocessing.active_children() == []


def test_sweep_starts_no_more_processes_than_cpus(cpus, started):
    cpus(3)
    start, stop = _MULTI_BLOCK_RANGES[0]  # four blocks
    assert run_exhaustive_sweep(start=start, stop=stop, workers=64) == sweep_range(start, stop)
    assert len(started) == 2
    assert all(p.exitcode == 0 for p in started)
    assert multiprocessing.active_children() == []


def test_sweep_strides_cover_each_block_once(cpus, monkeypatch):
    # each process counts the blocks it was given, one histogram slot per
    # block: the merged counts are 1 on exactly the blocks of the range
    cpus(8)
    parent, caller = os.getpid(), []

    def counted(start, stop, blocks):
        counts = [0] * (N3_SPAN >> search._FREE)
        blocks = list(blocks)
        if os.getpid() == parent:
            caller.append(blocks)
        for block in blocks:
            counts[block] += 1
        return SweepStats(counts)

    monkeypatch.setattr(search, "_sweep_blocks", counted)
    start, stop = (3 << 18) - 5, (19 << 18) + 5  # blocks 2..19
    want = [int(2 <= block < 20) for block in range(N3_SPAN >> search._FREE)]
    for workers in range(2, 9):
        del caller[:]
        assert run_exhaustive_sweep(start=start, stop=stop, workers=workers).rank_counts == want
        assert caller == [list(range(2, 20, workers))]
    assert multiprocessing.active_children() == []


def _failing_kernel(monkeypatch, fail, in_children=True):
    """Make every sweep kernel built in a child process, or with
    in_children=False every one built in this process, call fail()."""
    parent, init = os.getpid(), search._BitSliced.__init__

    def patched(self):
        if (os.getpid() != parent) == in_children:
            fail()
        init(self)

    monkeypatch.setattr(search._BitSliced, "__init__", patched)


def _raise():
    raise MemoryError("kernel planes")


@pytest.mark.parametrize(
    "fail, message",
    [
        pytest.param(_raise, "error: sweep worker failed: MemoryError: kernel planes\n", id="raises"),
        pytest.param(
            lambda: os._exit(3),
            "error: sweep worker exited with code 3 before sending its result\n",
            id="exits",
        ),
    ],
)
def test_sweep_worker_failure_is_one_error(monkeypatch, capsys, cpus, fail, message):
    cpus(3)
    _failing_kernel(monkeypatch, fail)
    start, stop = _MULTI_BLOCK_RANGES[0]
    with pytest.raises(search.SweepWorkerError):
        run_exhaustive_sweep(start=start, stop=stop, workers=3)
    assert multiprocessing.active_children() == []
    argv = ["search", "--mode", "n3-exhaustive", "--start", str(start), "--stop", str(stop)]
    assert main([*argv, "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message
    assert multiprocessing.active_children() == []
    # the calling process still sweeps on its own
    assert main([*argv, "--workers", "1"]) == 0


@pytest.mark.skipif(sys.platform != "linux", reason="sweep children are forked on Linux only")
def test_sweep_children_are_forked_whatever_the_default_start_method(monkeypatch, cpus):
    # the kernel patch reaches a child only if it is forked from this
    # process: a spawned child imports search again and sweeps unpatched
    cpus(2)
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        _failing_kernel(monkeypatch, _raise)
        start, stop = _MULTI_BLOCK_RANGES[0]
        with pytest.raises(search.SweepWorkerError, match="MemoryError: kernel planes"):
            run_exhaustive_sweep(start=start, stop=stop, workers=2)
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert multiprocessing.active_children() == []


def test_sweep_failure_in_caller_stops_children(monkeypatch, cpus):
    cpus(3)
    _failing_kernel(monkeypatch, _raise, in_children=False)
    with pytest.raises(MemoryError):
        run_exhaustive_sweep(start=0, stop=N3_SPAN, workers=3)
    assert multiprocessing.active_children() == []


def test_sweep_stops_soon_after_a_child_dies(monkeypatch, cpus):
    # the caller reads the children's pipes between its blocks, so a child
    # that exits at once is noticed long before the caller has ranked the
    # blocks of its stride, half of them
    cpus(2)
    calls = []
    call = search._BitSliced.__call__
    monkeypatch.setattr(search._BitSliced, "__call__", lambda self, c: calls.append(c) or call(self, c))
    monkeypatch.setattr(search, "_sweep_child", lambda *args: os._exit(3))
    with pytest.raises(search.SweepWorkerError, match="exited with code 3"):
        run_exhaustive_sweep(start=0, stop=N3_SPAN, workers=2)
    assert len(calls) < (N3_SPAN >> search._FREE) // 2  # the caller's: the child never ranks
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n", range(11))
def test_alternating_rank_histogram_matches_closed_form(n):
    assert alternating_rank_histogram(n) == alternating_rank_counts(n)


def test_full_range_certificate_checks_histogram(monkeypatch):
    def certificate(counts, **bounds):
        monkeypatch.setattr(search, "run_exhaustive_sweep", lambda start, stop, workers: SweepStats(list(counts)))
        return n3_exhaustive_certificate(**bounds)

    exact = alternating_rank_histogram(8)
    wrong = list(exact)
    wrong[4] -= 1
    wrong[6] += 1  # same total, no rank-3 candidate
    assert certificate(exact)["pass"] is True
    cert = certificate(wrong)
    assert cert["pass"] is False and cert["stats"]["rank3_total"] == 0
    assert cert["candidates_examined"] == N3_SPAN
    # a partial range is judged by its rank-3 count alone, as before
    assert certificate(wrong, stop=N3_SPAN - 1)["pass"] is True
    assert certificate(wrong, start=1)["pass"] is True


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def test_isomorphic_trivia():
    g = g2()
    ok, w = isomorphic(g, g)
    assert ok and w == [0, 1, 2, 3]
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert isomorphic(c4, g)[0] is False
    assert isomorphic(Graph.empty(0), Graph.empty(0)) == (True, [])
    assert isomorphic(Graph.empty(2), Graph.empty(3))[0] is False


def test_isomorphic_finds_witness_under_relabeling():
    rng = random.Random(42)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 11))
        perm = list(range(g.order))
        rng.shuffle(perm)
        # h = g relabeled by perm (h[i][j] = g[perm[i]][perm[j]])
        h = Graph(g.adj.conjugate(perm))
        ok, witness = isomorphic(g, h)
        assert ok
        inv = witness
        for i in range(g.order):
            for j in range(g.order):
                assert g.adj.get(i, j) == h.adj.get(inv[i], inv[j])


def test_isomorphic_rejects_cospectral_like_pairs():
    # same degree sequence, different structure: C6 vs two triangles
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert isomorphic(c6, two_triangles)[0] is False


def _isomorphic_recursive(g: Graph, h: Graph) -> tuple[bool, list[int] | None]:
    """The search of `isomorphic` by recursion, with its refinement,
    candidate order and consistency test; for pairs that pass its early
    exits (equal orders, edge counts and color multisets)."""
    n = g.order
    colors_g, colors_h = _refine_colors(g, h)
    by_color: dict[int, list[int]] = {}
    for u in range(n):
        by_color.setdefault(colors_h[u], []).append(u)
    candidates = [by_color.get(colors_g[v], []) for v in range(n)]
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    rows_g, rows_h = g.adj.row_ints(), h.adj.row_ints()
    mapping = [-1] * n
    used = [False] * n

    def backtrack(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for u in candidates[v]:
            if not used[u] and all(
                ((rows_g[v] >> order[d]) & 1) == ((rows_h[u] >> mapping[order[d]]) & 1)
                for d in range(depth)
            ):
                mapping[v], used[u] = u, True
                if backtrack(depth + 1):
                    return True
                mapping[v], used[u] = -1, False
        return False

    return (True, mapping) if backtrack(0) else (False, None)


def _circulant(n: int, steps) -> Graph:
    return Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def test_isomorphic_matches_recursive_search():
    # regular and strongly regular pairs, where refinement leaves one color
    # class and the search must back up; the backtracking search gives the
    # same answers and witnesses, and isomorphic the same answers (family
    # pairs take the symplectic route, whose witnesses differ)
    rng = random.Random(44)
    cube = Graph.from_edges(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b])
    # Frucht graph: cubic with no nontrivial automorphism, so a wrong
    # image of the first vertex fails only after the search backs up to it
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    ring = [(i, (i + 1) % 12) for i in range(12)]
    frucht = Graph.from_edges(12, ring + [(i, (i + d) % 12) for i, d in enumerate(lcf)])
    pairs = [
        (_circulant(6, [1]), Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        (cube, _circulant(8, [1, 4])),
        (_circulant(10, [1, 2]), _circulant(10, [1, 3])),
        (g2_power(2), linegraph_clique_plus_isolated(6)),
    ]
    for g in (_circulant(9, [1]), _circulant(12, [1, 5]), cube, frucht, g2_power(2), g2_power(3)):
        h = Graph(g.adj.conjugate(rng.sample(range(g.order), g.order)))
        pairs += [(h, g), (g, h)] if g.order <= 16 else [(h, g)]
    for g, h in pairs:
        expected = _isomorphic_recursive(g, h)
        assert _backtrack_isomorphism(g, h) == expected
        assert isomorphic(g, h)[0] == expected[0]


def test_isomorphic_equivalence_relation_on_pool():
    rng = random.Random(43)
    pool = [random_graph(rng, rng.randrange(2, 9)) for _ in range(8)]
    pool += [Graph(pool[0].adj.conjugate(rng.sample(range(pool[0].order), pool[0].order)))]
    for g in pool:
        assert isomorphic(g, g)[0]
    for g in pool:
        for h in pool:
            assert isomorphic(g, h)[0] == isomorphic(h, g)[0]
    for g in pool:
        for h in pool:
            for k in pool:
                if isomorphic(g, h)[0] and isomorphic(h, k)[0]:
                    assert isomorphic(g, k)[0]


def test_uniqueness_cross_check_order_16():
    ok, witness = isomorphic(linegraph_clique_plus_isolated(6), g2_power(2))
    assert ok and witness is not None


def _carries(g: Graph, h: Graph, witness) -> bool:
    """True iff witness is a bijection v -> witness[v] carrying g onto h."""
    w = np.asarray(witness, dtype=np.intp)
    return sorted(witness) == list(range(g.order)) and np.array_equal(
        g.adj.to_bool_array(), h.adj.to_bool_array()[np.ix_(w, w)]
    )


def test_isomorphic_family_relabelings(monkeypatch):
    # family pairs take the symplectic route, never the refinement, and
    # extract the codes of each graph once
    def refuse(g, h):
        raise AssertionError("family inputs must not reach color refinement")

    calls = []
    monkeypatch.setattr(search, "_refine_colors", refuse)
    monkeypatch.setattr(search, "subspace_codes", lambda m: calls.append(m) or subspace_codes(m))
    rng = random.Random(45)
    members = [g2_power(m) for m in range(1, 6)] + [linegraph_clique_plus_isolated(6)]
    for g in members:
        for _ in range(2):
            h = relabel(g, rng)
            for a, b in ((g, h), (h, g), (h, relabel(g, rng))):
                calls.clear()
                ok, witness = isomorphic(a, b)
                assert ok and _carries(a, b, witness)
                assert len(calls) == 2 and calls[0] is a.adj and calls[1] is b.adj


def test_isomorphic_identity_on_family_members():
    rng = random.Random(46)
    for g in (g2(), g2_power(3), relabel(g2_power(3), rng), linegraph_clique_plus_isolated(6)):
        assert isomorphic(g, g) == (True, list(range(g.order)))


def _switched(g: Graph) -> Graph:
    """g with edges ab, cd replaced by ac, bd: degrees and edge count kept."""
    edges = set(g.edges())
    for (a, b) in sorted(edges):
        for (c, d) in sorted(edges):
            if len({a, b, c, d}) == 4 and not {tuple(sorted(e)) for e in ((a, c), (b, d))} & edges:
                new = (edges - {(a, b), (c, d)}) | {tuple(sorted((a, c))), tuple(sorted((b, d)))}
                return Graph.from_edges(g.order, sorted(new))
    raise AssertionError("no switch")


def test_isomorphic_subspace_against_non_subspace():
    rng = random.Random(47)
    for g in (g2_power(2), relabel(g2_power(2), rng), linegraph_clique_plus_isolated(6)):
        others = [_switched(g)]
        edges = sorted(g.edges())
        non_edges = [(i, j) for i in range(16) for j in range(i + 1, 16) if (i, j) not in edges]
        drop, add = rng.choice(edges), rng.choice(non_edges)
        others.append(Graph.from_edges(16, [e for e in edges if e != drop] + [add]))
        for other in others:
            assert subspace_codes(other.adj) is None
            assert other.edge_count() == g.edge_count()
            for a, b in ((g, other), (other, g)):
                assert isomorphic(a, b) == (False, None)
                assert _backtrack_isomorphism(a, b) == (False, None)


def test_isomorphic_checks_every_witness(monkeypatch):
    g = g2_power(2)
    h = relabel(g, random.Random(48))

    def shifted(m):  # a bijection onto the codes that is not the form's
        basis, codes = subspace_codes(m)
        return basis, codes if m is g.adj else (codes + 1) % len(codes)

    monkeypatch.setattr(search, "subspace_codes", shifted)
    with pytest.raises(AssertionError):
        isomorphic(g, h)
    monkeypatch.setattr(search, "subspace_codes", lambda m: None)
    # a non-automorphism, and a map that preserves adjacency but is no bijection
    for graph, wrong in ((g, [1, 0] + list(range(2, 16))), (Graph.empty(3), [0, 0, 0])):
        monkeypatch.setattr(search, "_backtrack_isomorphism", lambda a, b, w=wrong: (True, w))
        with pytest.raises(AssertionError):
            isomorphic(graph, graph)
