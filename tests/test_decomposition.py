"""The coset decomposition and the standard-form path of full_report,
each against an independent reference: the decomposition against the
BitMatrix-chain implementation it replaced, and the standard-form
certificate against the Gram-matrix path on the same inputs."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from f2rank import verify
from f2rank.codes import subspace_codes
from f2rank.constructions import complete_graph, g2_power, linegraph_clique_plus_isolated
from f2rank.gf2 import (
    BitMatrix,
    BitVector,
    echelon,
    rank_of_row_ints,
    row_space_contains,
)
from f2rank.graph import Graph
from f2rank.verify import (
    CosetDecomposition,
    NotSubspaceMatrixError,
    VerificationReport,
    coset_decompose,
    decomposition_invariants,
    full_report,
)

from conftest import relabel, xor_matrices


# ---------------------------------------------------------------------------
# oracle: the decomposition as a chain of BitMatrix conjugations, submatrices
# and transposes, one Python big integer per row
# ---------------------------------------------------------------------------


def _oracle_coset_decompose(a: BitMatrix | Graph) -> CosetDecomposition:
    if isinstance(a, Graph):
        a = a.adj
    else:
        try:
            Graph(a)
        except ValueError:
            raise NotSubspaceMatrixError("matrix is not symmetric with zero diagonal") from None
    rows = a.row_ints()
    basis_idx = echelon(rows)[1]
    if len(set(rows)) != a.rows or a.rows != 1 << len(basis_idx):
        raise NotSubspaceMatrixError("rows do not form a subspace without repetition")
    n_dim = len(basis_idx)
    if n_dim < 1:
        raise NotSubspaceMatrixError("decomposition needs rank >= 1")
    span = [0]
    for i in basis_idx:
        span += [s ^ rows[i] for s in span]
    index_of = {r: i for i, r in enumerate(rows)}
    perm = [index_of[t] for t in span]
    reordered = a.conjugate(perm)
    half = a.rows // 2
    idx_top = list(range(half))
    top_block = reordered.submatrix(idx_top, idx_top)
    coset_row = reordered.row(half)
    u = coset_row.slice(0, half)
    basis = [reordered.row(1 << i) for i in range(n_dim)]
    if u != coset_row.slice(half, 2 * half):
        raise AssertionError("coset vector halves differ on a symmetric input")
    idx_bot = list(range(half, 2 * half))
    u_rows = _oracle_repeat_rows(u, half)
    u_cols = u_rows.transpose()
    if not (
        reordered.submatrix(idx_top, idx_bot) == xor_matrices(top_block, u_cols)
        and reordered.submatrix(idx_bot, idx_top) == xor_matrices(top_block, u_rows)
        and reordered.submatrix(idx_bot, idx_bot)
        == xor_matrices(xor_matrices(top_block, u_rows), u_cols)
    ):
        raise AssertionError("coset block identity violated")
    return CosetDecomposition(perm, basis, reordered, top_block, u)


def _oracle_repeat_rows(v: BitVector, count: int) -> BitMatrix:
    return BitMatrix(count, v.n, [v.bits] * count)


def _oracle_decomposition_invariants(a: BitMatrix | Graph) -> VerificationReport:
    report = VerificationReport()
    try:
        d = _oracle_coset_decompose(a)
    except (NotSubspaceMatrixError, ValueError) as exc:
        report.add("preconditions", False, str(exc))
        return report
    report.add("preconditions", True, "symmetric zero-diagonal subspace matrix")
    n_dim = len(d.basis)
    b = d.top_block
    u = d.coset_vector
    half = b.rows
    report.add("u_equals_uhat", u == d.reordered.row(half).slice(half, 2 * half), "")
    report.add("block_identity", True, "reordered = [B | B+U^T ; B+U | B+U+U^T]")
    rank_b = rank_of_row_ints(b.row_ints(), b.cols)
    report.add("rank_top_block", rank_b == n_dim - 2, f"rank(B) = {rank_b}, expected {n_dim - 2}")
    report.add(
        "u_outside_top_block_rowspace",
        not row_space_contains(b, u),
        "u is not a combination of rows of B",
    )
    if n_dim < 2:
        report.add("second_level", False, "needs rank >= 2")
        return report

    q = half // 2
    idx_q = list(range(q))
    c = b.submatrix(idx_q, idx_q)
    mid = b.row(q)
    w = mid.slice(0, q)
    w_rows = _oracle_repeat_rows(w, q)
    w_cols = w_rows.transpose()
    idx_hi = list(range(q, 2 * q))
    second_ok = (
        mid.slice(q, 2 * q) == w
        and b.submatrix(idx_q, idx_hi) == xor_matrices(c, w_cols)
        and b.submatrix(idx_hi, idx_q) == xor_matrices(c, w_rows)
        and b.submatrix(idx_hi, idx_hi) == xor_matrices(xor_matrices(c, w_rows), w_cols)
    )
    report.add("second_level_block_identity", second_ok, "B = [C | C+W^T ; C+W | C+W+W^T]")

    x = u.slice(0, q)
    y = u.slice(q, 2 * q)
    w_full_row = d.reordered.row(q)
    s = w_full_row.slice(2 * q, 3 * q)
    t = w_full_row.slice(3 * q, 4 * q)
    report.add("s_equals_t", s == t, "")
    rel = (w == s and x == y) or (w == s.complement() and x == y.complement())
    report.add("w_s_x_y_relation", rel, "either (w=s and x=y) or (w=~s and x=~y)")
    x_in = row_space_contains(c, x)
    w_in = row_space_contains(c, w)
    report.add(
        "x_w_membership_dichotomy",
        x_in == w_in,
        f"x in rowspace(C): {x_in}; w in rowspace(C): {w_in}",
    )
    if x_in or w_in or n_dim < 4:
        skipped = "skipped: applies only when x and w both lie outside rowspace(C)"
        report.add("quarter_intersections", True, skipped)
        report.add("tiled_quarter_block", True, skipped)
        return report

    expected = 1 << (n_dim - 4)
    xb, wb = x.bits, w.bits
    full = (1 << q) - 1
    sizes = [
        ((xb ^ full) & (wb ^ full)).bit_count(),
        ((xb ^ full) & wb).bit_count(),
        (xb & (wb ^ full)).bit_count(),
        (xb & wb).bit_count(),
    ]
    report.add(
        "quarter_intersections",
        all(sz == expected for sz in sizes),
        f"support intersection sizes {sizes}, expected {expected} each",
    )
    order: list[int] = []
    for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
        members = [i for i in range(q) if ((wb >> i) & 1, (xb >> i) & 1) == key]
        zero = next((i for i in members if c.row_int(i) == 0), None)
        if zero is None:
            break
        order += sorted(members, key=lambda i: i ^ zero)
    tiled = len(order) == q
    if tiled:
        c_sorted = c.conjugate(order)
        quarter = q // 4
        d_block = c_sorted.submatrix(list(range(quarter)), list(range(quarter)))
        tiled = all(
            c_sorted.submatrix(
                list(range(bi * quarter, (bi + 1) * quarter)),
                list(range(bj * quarter, (bj + 1) * quarter)),
            )
            == d_block
            for bi in range(4)
            for bj in range(4)
        )
    report.add("tiled_quarter_block", tiled, "C equals the 4x4 tiling of its quarter block D")
    return report


def _entries(report: VerificationReport) -> list[tuple[str, bool, str]]:
    return [(c.name, c.passed, c.details) for c in report.checks]


@pytest.mark.parametrize("m", range(1, 7))
def test_coset_order_gather_matches_dense_take(m):
    # the conjugated matrix read off the packed transpose equals the
    # unpacked rows in coset order with their columns taken in that order
    rng = random.Random(60 + m)
    for g in [g2_power(m)] + [relabel(g2_power(m), rng) for _ in range(3 if m < 6 else 1)]:
        perm, dense = verify._coset_order(g)
        want = np.unpackbits(g.adj.packed[perm], axis=1, count=g.order, bitorder="little")
        assert np.array_equal(dense, want.take(perm, axis=1))


def test_decomposition_matches_oracle():
    rng = random.Random(51)
    # L(K6)+K1 is a rank-4 subspace matrix the standard-form builder does not make
    lk6 = linegraph_clique_plus_isolated(6)
    members = [(lk6, 3)] + [
        (g2_power(m), count) for m, count in ((1, 3), (2, 6), (3, 12), (4, 6), (5, 2))
    ]
    evaluated = 0
    dichotomy = set()
    for member, count in members:
        for g in [member] + [relabel(member, rng) for _ in range(count)]:
            want = _entries(_oracle_decomposition_invariants(g.adj))
            assert _entries(decomposition_invariants(g.adj)) == want
            assert _entries(decomposition_invariants(g)) == want
            assert _entries(decomposition_invariants(g.adj, codes=subspace_codes(g.adj))) == want
            got, ref = coset_decompose(g), _oracle_coset_decompose(g)
            assert (got.perm, got.basis, got.reordered, got.top_block, got.coset_vector) == (
                ref.perm, ref.basis, ref.reordered, ref.top_block, ref.coset_vector
            )
            details = {name: text for name, _, text in want}
            evaluated += not details["tiled_quarter_block"].startswith("skipped")
            dichotomy.add(details["x_w_membership_dichotomy"])
    assert evaluated >= 4
    # both branches: x and w inside rowspace(C), and both outside it
    assert dichotomy == {
        f"x in rowspace(C): {inside}; w in rowspace(C): {inside}" for inside in (True, False)
    }
    bad = (complete_graph(4).adj, BitMatrix.zeros(4, 4), BitMatrix.from_strings(["01", "00"]))
    for a in bad:
        want = _oracle_decomposition_invariants(a)
        assert _entries(decomposition_invariants(a)) == _entries(want)


# ---------------------------------------------------------------------------
# full_report: the standard-form path against the Gram-matrix path
# ---------------------------------------------------------------------------


def _flip(g: Graph, i: int, j: int) -> Graph:
    bit = 1 - g.adj.get(i, j)
    return Graph(g.adj.set_bit(i, j, bit).set_bit(j, i, bit))


def _both_paths(monkeypatch, g: Graph):
    """full_report of g as given, then with the family path stubbed to
    read the Gram matrix instead of the codes; returns both results and
    the number of Gram matrices the first one built."""
    grams = []
    gram = verify._gram
    monkeypatch.setattr(verify, "_gram", lambda g: grams.append(g.order) or gram(g))
    first = full_report(g)
    built = len(grams)

    def from_gram(codes):
        k = verify._gram(g)
        return k, verify._scan(k, np.flatnonzero(k.degrees))

    monkeypatch.setattr(verify, "_standard_form", from_gram)
    second = full_report(g)
    monkeypatch.undo()
    assert len(grams) == built + 1
    return first, second, built


@pytest.fixture(scope="module")
def member_4096() -> Graph:
    return relabel(g2_power(6), random.Random(52))


@pytest.mark.parametrize("m", range(7))
def test_standard_form_matches_gram_path(monkeypatch, member_4096, m):
    member = g2_power(m) if m else Graph.empty(1)
    g = member_4096 if m == 6 else relabel(member, random.Random(53 + m))
    fast, slow, grams = _both_paths(monkeypatch, g)
    assert grams == 0
    assert fast == slow
    assert fast.report.passed == (m > 0)  # order 1 has no decomposition
    assert (fast.rank, fast.srg, fast.spectrum) == (slow.rank, slow.srg, slow.spectrum)


@pytest.mark.parametrize("m", [3, 5])
def test_flipped_edge_takes_gram_path(monkeypatch, m):
    rng = random.Random(54 + m)
    g = relabel(g2_power(m), rng)
    fast, slow, grams = _both_paths(monkeypatch, _flip(g, *rng.sample(range(g.order), 2)))
    assert grams == 1
    assert fast == slow and not fast.report.passed


def test_family_report_builds_no_square_array(member_4096):
    # the Gram path's float32 A and G alone take 8 N^2 bytes
    n = member_4096.order
    tracemalloc.start()
    try:
        assert full_report(member_4096).report.passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_decomposition_reads_no_square_array(member_4096):
    # the invariants read the n x n form F on the basis, not the reordered N x N matrix
    codes = subspace_codes(member_4096.adj)
    tracemalloc.start()
    try:
        assert decomposition_invariants(member_4096, codes=codes).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * member_4096.order

