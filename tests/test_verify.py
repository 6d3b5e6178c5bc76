from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from f2rank import verify
from f2rank.gf2 import BitMatrix, rank
from f2rank.graph import Graph
from f2rank.constructions import complete_graph, g2, g2_power, linegraph_clique_plus_isolated
from f2rank.products import sign_map
from f2rank.spectral import is_hadamard
from f2rank.verify import (
    CosetDecomposition,
    NotSubspaceMatrixError,
    SrgParams,
    SrgViolation,
    check_balanced_rows,
    check_pairwise_quarters,
    coset_decompose,
    decomposition_invariants,
    full_report,
    quasirandom_deviation,
    srg_parameters,
)

from conftest import random_graph, xor_combinations


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return Graph(g.adj.conjugate(perm))


# ---------------------------------------------------------------------------
# naive references: the pairwise checks as direct loops over row popcounts
# ---------------------------------------------------------------------------


def _naive_balanced_witness(g: Graph):
    half, rem = divmod(g.order, 2)
    for i, r in enumerate(g.adj.row_ints()):
        if r and (rem or r.bit_count() != half):
            return i, r.bit_count()
    return None


def _naive_quarters_witness(g: Graph):
    n = g.order
    rows = g.adj.row_ints()
    nonzero = [i for i in range(n) if rows[i]]
    for a, i in enumerate(nonzero):
        for j in nonzero[a + 1 :]:
            for b in (0, 1):
                for bp in (0, 1):
                    size = sum(
                        1
                        for k in range(n)
                        if ((rows[i] >> k) & 1) == b and ((rows[j] >> k) & 1) == bp
                    )
                    if 4 * size != n:
                        return i, j
    return None


def _naive_srg(g: Graph):
    n = g.order
    if n == 0:
        return SrgViolation("empty graph", (0, 0))
    rows = g.adj.row_ints()
    k = rows[0].bit_count()
    for i in range(1, n):
        if rows[i].bit_count() != k:
            return SrgViolation("not regular", (0, i))
    lam = mu = None
    for i in range(n):
        for j in range(i + 1, n):
            common = (rows[i] & rows[j]).bit_count()
            if (rows[i] >> j) & 1:
                if lam is None:
                    lam = common
                elif common != lam:
                    return SrgViolation("adjacent co-degree varies", (i, j))
            elif mu is None:
                mu = common
            elif common != mu:
                return SrgViolation("non-adjacent co-degree varies", (i, j))
    return SrgParams(n, k, lam, mu)


def _naive_quasirandom(g: Graph) -> float:
    """The deviation summed in exact rationals and rounded to float once."""
    v = g.order
    if v < 2:
        return 0.0
    p = Fraction(2 * g.edge_count(), v * (v - 1))
    rows = g.adj.row_ints()
    co_degrees = Counter(
        (rows[i] & rows[j]).bit_count() for i in range(v) for j in range(i + 1, v)
    )
    total = sum(2 * c * abs(x - p * p * v) for x, c in co_degrees.items())
    return float(total / v**3)


def _reference_cases() -> list[Graph]:
    """Seeded small graphs of order 0..12, regular circulants and complete
    graphs, plus relabelled family members of order 16 and 64 with and
    without one flipped edge."""
    rng = random.Random(40)
    cases = []
    for n in range(13):
        for p in (0.2, 0.5, 0.8):
            cases.append(random_graph(rng, n, p))
        if n >= 3:
            jumps = {d for d in range(1, n // 2 + 1) if rng.random() < 0.5} or {1}
            edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in jumps}
            cases.append(Graph.from_edges(n, edges))
            cases.append(complete_graph(n))
    for m in (2, 3):
        for _ in range(3):
            g = _relabel(g2_power(m), rng)
            cases.append(g)
            i, j = rng.sample(range(g.order), 2)
            flip = 1 - g.adj.get(i, j)
            cases.append(Graph(g.adj.set_bit(i, j, flip).set_bit(j, i, flip)))
    return cases


# ---------------------------------------------------------------------------
# construction checks: order, twin-freeness, rank, subspace rows, isolated vertex
# ---------------------------------------------------------------------------


def test_full_report_construction_checks_pass():
    report = full_report(g2_power(2), expect_n=4).report
    assert report.passed
    assert {c.name for c in report.checks} >= {
        "order",
        "twin_free",
        "rank",
        "rows_form_subspace",
        "unique_isolated_vertex",
    }


def test_full_report_construction_checks_fail():
    r = full_report(g2(), expect_n=3).report
    assert not r.passed and not r["order"].passed
    r2 = full_report(Graph.empty(2), expect_n=1).report
    assert not r2.passed and not r2["twin_free"].passed


# ---------------------------------------------------------------------------
# regularity checks
# ---------------------------------------------------------------------------


def test_balanced_rows():
    for m in (1, 2, 3):
        assert check_balanced_rows(g2_power(m))
    assert not check_balanced_rows(_cycle(3))  # rows have 2 ones of 3
    assert check_balanced_rows(Graph.empty(4))  # vacuous


def test_pairwise_quarters():
    assert check_pairwise_quarters(g2_power(2))
    assert check_pairwise_quarters(g2_power(3))
    assert not check_pairwise_quarters(_cycle(4))


def test_pairwise_quarters_against_naive():
    # the Gram-matrix checks reproduce the direct loops: verdicts, witnesses,
    # SRG reasons and the deviation, standalone and inside full_report
    assert _naive_quarters_witness(g2_power(2)) is None
    for g in _reference_cases():
        k = verify._gram(g)
        assert verify._balanced_rows_witness(k) == _naive_balanced_witness(g)
        scan = verify._scan(k, np.flatnonzero(k.degrees))
        assert verify._pairwise_quarters_witness(k, scan) == _naive_quarters_witness(g)
        assert check_pairwise_quarters(g) == (_naive_quarters_witness(g) is None)
        assert srg_parameters(g) == _naive_srg(g)
        assert quasirandom_deviation(g) == _naive_quasirandom(g)

        result = full_report(g)
        core = g.remove_vertices(g.isolated_vertices())
        assert result.srg == (_naive_srg(core) if core.order else None)
        dev = result.report["quasirandom_deviation_bounded"].details
        assert dev.startswith(f"deviation {_naive_quasirandom(core):.6g}")
        assert result.report["hadamard_signed_adjacency"].passed == is_hadamard(sign_map(g.adj))


def _with_isolated(g: Graph, count: int, rng: random.Random) -> Graph:
    """g plus count isolated vertices, relabelled so they fall among the others."""
    return _relabel(Graph.from_edges(g.order + count, g.edges()), rng)


def _flip(g: Graph, i: int, j: int) -> Graph:
    bit = 1 - g.adj.get(i, j)
    return Graph(g.adj.set_bit(i, j, bit).set_bit(j, i, bit))


def _two_switch(g: Graph, rng: random.Random) -> Graph:
    """g with edges ab, cd replaced by ad, cb: every degree stays, co-degrees move."""
    while True:
        a, b, c, d = rng.sample(range(g.order), 4)
        if g.adj.get(a, b) and g.adj.get(c, d) and not g.adj.get(a, d) and not g.adj.get(c, b):
            return _flip(_flip(_flip(_flip(g, a, b), c, d), a, d), c, b)


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


def _histogram_cases() -> list[Graph]:
    """Graphs aimed at the histogram reading of the SRG and quarters checks:
    isolated vertices among the core, a missing pair kind, one pair kind
    whose co-degree varies while the other's is constant, odd orders and
    orders of several BLOCK_ROWS blocks."""
    rng = random.Random(43)
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    member = _relabel(g2_power(4), rng)
    return [
        _with_isolated(_petersen(), 2, rng),
        _with_isolated(_petersen(), 1, rng),
        _with_isolated(_cycle(5), 1, rng),
        _with_isolated(complete_graph(6), 1, rng),
        _with_isolated(complete_graph(4), 1, rng),
        Graph.empty(7),
        _cycle(6),  # adjacent co-degrees all 0, non-adjacent ones 0 or 1
        prism,  # non-adjacent co-degrees all 2, adjacent ones 0 or 1
        _with_isolated(prism, 3, rng),
        random_graph(rng, 9),
        random_graph(rng, 301),
        member,
        _two_switch(member, rng),
        _flip(member, *rng.sample(range(256), 2)),
    ]


def _naive_hist(g: Graph, core: list[int]) -> list[list[int]]:
    rows = g.adj.row_ints()
    hist = [[0] * (g.order + 1) for _ in range(2)]
    for i in core:
        for j in core:
            if i != j:
                hist[(rows[i] >> j) & 1][(rows[i] & rows[j]).bit_count()] += 1
    return hist


@pytest.mark.parametrize("block_rows", [5, verify.BLOCK_ROWS])
def test_scan_matches_row_major(monkeypatch, block_rows):
    # the one pass over G gives the same verdicts, witnesses and exact
    # deviation as the row-major search, for blocks that do and do not
    # divide the order
    monkeypatch.setattr(verify, "BLOCK_ROWS", block_rows)
    for g in _reference_cases() + _histogram_cases():
        k = verify._gram(g)
        hadamard = is_hadamard(sign_map(g.adj))
        nonzero = np.flatnonzero(k.degrees)
        for core in (nonzero, np.arange(g.order)):
            scan = verify._scan(k, core)
            assert scan.hadamard == hadamard
            assert scan.hist.tolist() == _naive_hist(g, core.tolist())
            srg = verify._srg_parameters(k, core, scan)
            assert srg == verify._srg_row_major(k, core)
            sub = Graph(g.adj.submatrix(core.tolist(), core.tolist()))
            assert verify._quasirandom_deviation(k, core, scan) == _naive_quasirandom(sub)
        scan = verify._scan(k, nonzero)
        assert verify._pairwise_quarters_witness(k, scan) == verify._quarters_row_major(k)


def test_histogram_cases_cover_each_reading():
    cases = _histogram_cases()
    srgs = [full_report(g).srg for g in cases[:9]]
    assert srgs[0] == srgs[1] == SrgParams(10, 3, 0, 1)
    assert srgs[2] == SrgParams(5, 2, 0, 1)
    assert srgs[3] == SrgParams(6, 5, 4, None)
    assert srgs[5] is None and srg_parameters(cases[5]) == SrgParams(7, 0, None, 0)
    assert [s.reason for s in (srgs[6], srgs[7], srgs[8])] == [
        "non-adjacent co-degree varies",
        "adjacent co-degree varies",
        "adjacent co-degree varies",
    ]
    switched = full_report(cases[-2]).report
    assert switched["balanced_rows"].passed
    assert not switched["pairwise_intersection_quarters"].passed
    assert not switched["srg_core"].passed


def test_srg_parameters():
    core = g2_power(2).remove_vertex(15)
    assert srg_parameters(core) == SrgParams(15, 8, 4, 4)
    assert srg_parameters(_cycle(5)) == SrgParams(5, 2, 0, 1)
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    out = srg_parameters(p4)
    assert isinstance(out, SrgViolation) and out.reason == "not regular"
    # degenerate but exact: a complete graph has no non-adjacent witness,
    # so mu is unconstrained (any value satisfies the definition)
    assert srg_parameters(complete_graph(4)) == SrgParams(4, 3, 2, None)
    assert srg_parameters(complete_graph(4)).consistent_with(4, 3, 2, 17)
    assert srg_parameters(Graph.empty(3)) == SrgParams(3, 0, None, 0)
    # C4 is SRG [4,2,0,2]
    assert srg_parameters(_cycle(4)) == SrgParams(4, 2, 0, 2)


def test_srg_parameters_on_powers():
    for m in (1, 2, 3):
        n_big = 4**m
        g = g2_power(m)
        core = g.remove_vertices(g.isolated_vertices())
        params = srg_parameters(core)
        assert isinstance(params, SrgParams)
        assert params.consistent_with(n_big - 1, n_big // 2, n_big // 4, n_big // 4)
        if m > 1:  # both pair kinds exist, so all four values are pinned
            assert params == SrgParams(n_big - 1, n_big // 2, n_big // 4, n_big // 4)


def test_quasirandom_deviation():
    assert quasirandom_deviation(Graph.empty(5)) == 0.0
    # complete graphs: per-pair deviation is exactly 2 with p = 1
    for n in (4, 8, 16):
        d = quasirandom_deviation(complete_graph(n))
        assert math.isclose(d, 2 * n * (n - 1) / n**3, rel_tol=1e-12)
    for m in (2, 3, 4):
        g = g2_power(m)
        core = g.remove_vertices(g.isolated_vertices())
        assert quasirandom_deviation(core) <= 1.0 / core.order


# ---------------------------------------------------------------------------
# coset decomposition
# ---------------------------------------------------------------------------


def test_coset_decompose_certificate():
    for m in (1, 2, 3):
        a = g2_power(m).adj
        d = coset_decompose(a)
        assert isinstance(d, CosetDecomposition)
        # permutation applied to A reproduces the reordered matrix
        assert a.conjugate(d.perm) == d.reordered
        # row k is the XOR of the basis rows selected by k's binary digits
        for k in range(a.rows):
            acc = 0
            for i, b in enumerate(d.basis):
                if (k >> i) & 1:
                    acc ^= b.bits
            assert d.reordered.row_int(k) == acc
        assert d.reordered.row_int(0) == 0
        assert d.coset_vector == d.coset_vector_second_half
        half = a.rows // 2
        assert d.top_block == d.reordered.submatrix(list(range(half)), list(range(half)))


def _greedy_basis(rows: list[int]) -> list[int]:
    """Rows in ascending index order that lie outside the span of those kept."""
    kept: list[int] = []
    span = {0}
    for r in rows:
        if r not in span:
            kept.append(r)
            span = xor_combinations(kept)
    return kept


def test_coset_decompose_basis_is_first_appearance():
    # the decomposition verdicts read the block structure in the order this
    # basis induces, so the basis itself is pinned on relabelled members
    rng = random.Random(15)
    for m in (3, 4):
        for _ in range(3):
            g = _relabel(g2_power(m), rng)
            rows_c = g.adj.row_ints()
            d = coset_decompose(g.adj)
            assert [rows_c[d.perm[1 << i]] for i in range(2 * m)] == _greedy_basis(rows_c)
            assert decomposition_invariants(g.adj).passed


def test_coset_decompose_rank_of_top_block():
    d = coset_decompose(g2_power(3).adj)
    assert rank(d.top_block) == 4  # dimension 6 minus 2


def test_coset_decompose_rejects():
    with pytest.raises(NotSubspaceMatrixError):
        coset_decompose(BitMatrix.zeros(4, 4))  # duplicate rows
    with pytest.raises(NotSubspaceMatrixError):
        coset_decompose(complete_graph(4).adj)  # rows not a subspace
    with pytest.raises(NotSubspaceMatrixError):
        coset_decompose(BitMatrix.from_strings(["01", "00"]))  # not symmetric


def test_decomposition_invariants_on_powers():
    for m in (1, 2, 3):
        report = decomposition_invariants(g2_power(m).adj)
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_decomposition_invariants_under_relabeling():
    # conjugation preserves the subspace structure, so every invariant must
    # hold for arbitrary vertex orders; both membership branches occur
    rng = random.Random(31)
    branches = set()
    for _ in range(25):
        perm = list(range(16))
        rng.shuffle(perm)
        a = g2_power(2).adj.conjugate(perm)
        report = decomposition_invariants(a)
        assert report.passed, [
            (c.name, c.details) for c in report.checks if not c.passed
        ]
        branches.add("True" in report["x_w_membership_dichotomy"].details)
    assert branches == {True, False}, "expected both membership branches to occur"


def test_tiled_quarter_block_under_relabeling():
    # the tiling check is evaluated only when x and w both lie outside
    # rowspace(C); it must then pass for every vertex order
    rng = random.Random(34)
    evaluated = 0
    for m, count in ((3, 24), (4, 8)):
        for _ in range(count):
            report = decomposition_invariants(_relabel(g2_power(m), rng).adj)
            entry = report["tiled_quarter_block"]
            assert entry.passed, (m, entry.details)
            evaluated += not entry.details.startswith("skipped")
    assert evaluated >= 4


def test_decomposition_invariants_bad_input():
    report = decomposition_invariants(complete_graph(4).adj)
    assert not report.passed
    assert not report["preconditions"].passed


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


def test_full_report_passes_on_extremal():
    result = full_report(g2_power(2))
    assert result.report.passed
    assert result.rank == 4
    assert result.srg.as_list() == [15, 8, 4, 4]
    assert result.spectrum is not None
    names = [c.name for c in result.report.checks]
    assert "spectrum_multiplicity_assignment" in names
    assert "decomposition.preconditions" in names


def test_full_report_passes_on_base_instance():
    # the order-4 member itself verifies cleanly with its true rank
    result = full_report(g2(), expect_n=2)
    assert result.report.passed, [
        (c.name, c.details) for c in result.report.checks if not c.passed
    ]


def test_full_report_fails_on_wrong_n():
    result = full_report(g2(), expect_n=3)
    assert not result.report.passed


def test_full_report_on_non_power_order():
    result = full_report(random_graph(random.Random(32), 6))
    assert not result.report.passed
    assert not result.report["order"].passed


def test_full_report_builds_one_gram_matrix(monkeypatch):
    # at most one: a family member certified in its standard form needs none
    calls = []

    def counting(g):
        calls.append(g.order)
        return gram(g)

    gram = verify._gram
    monkeypatch.setattr(verify, "_gram", counting)
    for g, grams in ((g2_power(2), 0), (g2_power(3), 0), (random_graph(random.Random(33), 12), 1)):
        calls.clear()
        full_report(g)
        assert calls == [g.order] * grams


def test_full_report_scans_once_and_searches_only_on_failure(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(verify, name, wrapper)

    counting("_scan", verify._scan)
    counting("_first_pair", verify._first_pair)
    rng = random.Random(44)
    member = _relabel(g2_power(4), rng)
    assert full_report(member).report.passed
    assert not calls  # the standard form stands in for the scan
    # a 2-switch keeps every degree, so only the histogram sees the damage,
    # and the row-major search then names the witnesses
    calls.clear()
    report = full_report(_two_switch(member, rng)).report
    assert not report["pairwise_intersection_quarters"].passed
    assert calls["_scan"] == 1 and calls["_first_pair"] >= 1


@pytest.mark.parametrize("m", [5, 6])
def test_full_report_at_north_star_orders(monkeypatch, m):
    rng = random.Random(45 + m)
    member = _relabel(g2_power(m), rng)
    n = member.order
    result = full_report(member)
    assert result.report.passed, [c.name for c in result.report.checks if not c.passed]
    assert result.srg.as_list() == [n - 1, n // 2, n // 4, n // 4]

    # keep the broken member's Gram matrix to run the row-major search on
    grams = []
    gram = verify._gram
    monkeypatch.setattr(verify, "_gram", lambda g: grams.append(gram(g)) or grams[-1])
    report = full_report(_flip(member, *rng.sample(range(n), 2)))
    [k] = grams
    a, b = verify._quarters_row_major(k)
    quarters = report.report["pairwise_intersection_quarters"]
    assert quarters.details == f"rows {a} and {b} break the order/4 pattern"
    assert report.srg == verify._srg_row_major(k, np.flatnonzero(k.degrees))


def test_full_report_validates_its_graph_once(monkeypatch):
    # a Graph's adjacency is validated when the Graph is built; the
    # decomposition path must not rebuild it, while a bare BitMatrix still
    # goes through the check
    def checks(g):
        return [c.to_json() for c in full_report(g).report.checks]

    graphs = [g2_power(2), g2_power(3)]
    expected = [(checks(g), coset_decompose(g.adj).perm) for g in graphs]

    def refuse(a):
        raise AssertionError("a validated Graph was validated again")

    monkeypatch.setattr(verify, "_is_symmetric_zero_diag", refuse)
    for g, (want_checks, want_perm) in zip(graphs, expected):
        assert checks(g) == want_checks
        assert coset_decompose(g).perm == want_perm
    with pytest.raises(AssertionError, match="validated again"):
        coset_decompose(g2_power(2).adj)


def test_full_report_tests_the_subspace_once(monkeypatch):
    # the decomposition reuses full_report's subspace_basis result, None
    # (rows not a subspace) included
    calls = []
    basis = verify.subspace_basis
    monkeypatch.setattr(verify, "subspace_basis", lambda m: calls.append(m.rows) or basis(m))
    graphs = [
        linegraph_clique_plus_isolated(8),
        random_graph(random.Random(46), 64).add_isolated_vertex(),
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        _relabel(g2_power(3), random.Random(47)),
    ]
    for g in graphs:
        calls.clear()
        report = full_report(g).report
        assert calls == [g.order]
        if not report["rows_form_subspace"].passed:
            pre = report["decomposition.preconditions"]
            assert pre.details == "rows do not form a subspace without repetition"


def test_full_report_skips_large_spectrum(monkeypatch):
    monkeypatch.setattr(verify, "SPECTRUM_CAP", 8)
    result = full_report(g2_power(2))
    assert result.spectrum is None
    entry = result.report["spectrum_matches_analytic"]
    assert entry.passed and "skipped" in entry.details
