"""Acceptance suite: one test per criterion, exact checks at the stated
tolerances.  Each test prints a single pass/fail line (run with -s to see
them live)."""

from __future__ import annotations

import json
import random
import time

from f2rank.cli import main as cli_main
from f2rank.codes import subspace_codes
from f2rank.gf2 import rank
from f2rank.graph import is_negation_free, is_twin_free, line_graph
from f2rank.constructions import (
    complete_graph,
    extremal_odd_plus_one,
    g2_power,
    linegraph_clique_plus_isolated,
)
from f2rank.products import (
    kronecker,
    parity_product,
    parity_product_graph,
    sign_map,
    unsign_map,
)
from f2rank import search
from f2rank.search import (
    enumerate_n2,
    isomorphic,
    n3_structured_certificate,
    run_exhaustive_sweep,
)
from f2rank.spectral import analytic_spectrum, graph_spectrum, is_hadamard
from f2rank.verify import (
    SrgParams,
    check_balanced_rows,
    check_pairwise_quarters,
    decomposition_invariants,
    full_report,
    srg_parameters,
)

from conftest import alternating_rank_counts, random_bitmatrix, random_graph


def _report(num: int, ok: bool, desc: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_extremal_family():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 7):
        g = g2_power(m)
        ok = ok and g.order == 4**m
        ok = ok and g.rank() == 2 * m
        ok = ok and is_twin_free(g) and is_negation_free(g)
        ok = ok and len(g.isolated_vertices()) == 1
    _report(1, ok, "g2_power(1..6): order 4^m, rank 2m, twin/negation-free, one isolated", t0, 30)


def test_criterion_02_line_graph_bounds():
    t0 = time.perf_counter()
    ok = True
    for k in range(5, 13):
        bound = k - 2 if k % 2 == 0 else k - 1
        ok = ok and line_graph(complete_graph(k)).rank() <= bound
    lk6 = linegraph_clique_plus_isolated(6)
    ok = ok and lk6.order == 16 and lk6.rank() == 4
    _report(2, ok, "rank(L(K_k)) within parity bound for k=5..12; k=6 gives order 16 rank 4", t0, 5)


def test_criterion_03_parity_product_laws():
    t0 = time.perf_counter()
    rng = random.Random(100)
    ok = True
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 11))
        h = random_graph(rng, rng.randrange(1, 11))
        ok = ok and parity_product_graph(g, h).rank() <= g.rank() + h.rank()
    pool = []
    while len(pool) < 12:
        g = random_graph(rng, rng.randrange(2, 9))
        if is_twin_free(g) and is_negation_free(g):
            pool.append(g)
    for g in pool:
        for h in pool:
            prod = parity_product_graph(g, h)
            ok = ok and is_twin_free(prod) and is_negation_free(prod)
    _report(3, ok, "rank sub-additivity on 200 pairs; twin/negation-free closure on pool", t0, 10)


def test_criterion_04_sign_map_identity():
    t0 = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        a = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        b = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        ok = ok and parity_product(a, b) == unsign_map(sign_map(a).kronecker(sign_map(b)))
    _report(4, ok, "parity product equals unsigned real Kronecker of signed operands (100 pairs)", t0, 1)


def test_criterion_05_kronecker_rank_multiplicative():
    t0 = time.perf_counter()
    rng = random.Random(102)
    ok = True
    for _ in range(100):
        a = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        b = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        ok = ok and rank(kronecker(a, b)) == rank(a) * rank(b)
    _report(5, ok, "GF(2) Kronecker rank multiplicativity (100 pairs)", t0, 1)


def test_criterion_06_hadamard():
    t0 = time.perf_counter()
    ok = all(is_hadamard(sign_map(g2_power(m).adj)) for m in range(1, 6))
    _report(6, ok, "signed adjacency is Hadamard (S S^T = 4^m I) for m=1..5, exact integers", t0, 20)


def test_criterion_07_regularity():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 6):
        g = g2_power(m)
        n_big = 4**m
        ok = ok and check_balanced_rows(g)
        ok = ok and check_pairwise_quarters(g)
        core = g.remove_vertices(g.isolated_vertices())
        params = srg_parameters(core)
        ok = ok and isinstance(params, SrgParams)
        ok = ok and params.consistent_with(n_big - 1, n_big // 2, n_big // 4, n_big // 4)
    _report(7, ok, "balanced rows, N/4 intersections, SRG [N-1,N/2,N/4,N/4] for m=1..5", t0, 60)


def test_criterion_08_spectrum():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 5):
        ok = ok and graph_spectrum(g2_power(m)).matches(analytic_spectrum(m), tol=1e-8)
    entry = full_report(g2_power(2)).report["spectrum_multiplicity_assignment"]
    ok = ok and entry.passed and "rejected" in entry.details
    _report(8, ok, "eigvalsh matches trace-consistent spectrum for m=1..4; swapped assignment flagged", t0, 60)


def test_criterion_09_n2_uniqueness():
    t0 = time.perf_counter()
    found = enumerate_n2()
    target = g2_power(1)
    ok = len(found) == 4 and all(isomorphic(g, target)[0] for g in found)
    _report(9, ok, "64-case sweep: every twin-free rank-2 order-4 graph is C3+K1", t0, 1)


def test_criterion_10_n3_nonexistence():
    t0 = time.perf_counter()
    cert = n3_structured_certificate()
    ok = cert["pass"] and cert["stats"]["assignments_with_duplicate_rows"] == 8
    structured_elapsed = time.perf_counter() - t0
    stats = run_exhaustive_sweep(workers=1)
    ok = ok and stats.candidates_examined == 1 << 28
    # no rank-3 candidate at all (symmetric zero-diagonal ranks are even),
    # so none is twin-free of rank 3
    ok = ok and stats.rank_counts[3] == 0
    # the full rank histogram must equal MacWilliams' exact counts of 8x8
    # alternating matrices over GF(2), so no candidate was skipped or
    # ranked wrongly
    macwilliams = [1, 0, 10795, 0, 5622036, 0, 149920960, 0, 112881664]
    ok = ok and alternating_rank_counts(8) == macwilliams
    ok = ok and stats.rank_counts == macwilliams
    ok = ok and structured_elapsed < 1
    _report(10, ok, "structured 8-case check and full 2^28 sweep: no twin-free rank-3 order-8 graph, rank histogram exact", t0, 600)


def test_criterion_11_odd_construction():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 5, 7, 9):
        g = extremal_odd_plus_one(n)
        ok = ok and g.order == 2**n and is_twin_free(g) and g.rank() == n + 1
    _report(11, ok, "odd n in {3,5,7,9}: order 2^n, twin-free, rank exactly n+1", t0, 60)


def test_criterion_12_n4_uniqueness_cross_check():
    t0 = time.perf_counter()
    a = linegraph_clique_plus_isolated(6)
    b = g2_power(2)
    ok, witness = isomorphic(a, b)
    if ok:
        for i in range(16):
            for j in range(16):
                ok = ok and a.adj.get(i, j) == b.adj.get(witness[i], witness[j])
    _report(12, ok, "L(K6)+K1 isomorphic to g2_power(2) with verified witness", t0, 5)


def test_criterion_13_decomposition_invariants():
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 6):
        g = g2_power(m)
        ok = ok and subspace_codes(g.adj) is not None
        report = decomposition_invariants(g.adj)
        ok = ok and report.passed
    _report(13, ok, "u=uhat, rank(B)=n-2, u outside rowsp(B), s=t, relations and dichotomy for m=2..5", t0, 60)


def test_criterion_14_determinism(tmp_path, capsys, monkeypatch):
    t0 = time.perf_counter()
    ok = True
    # byte-identical CLI output on repeated runs
    path = tmp_path / "g.f2m"
    path.write_bytes(g2_power(2).adj.to_f2mat())
    for argv in (
        ["construct", "--family", "g2pow", "--param", "2", "--format", "graph6"],
        ["verify", str(path), "--json"],
        ["rank", str(path)],
        ["search", "--mode", "n2-unique"],
    ):
        outs = set()
        for _ in range(2):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            if argv[0] == "search":
                cert = json.loads(out)
                cert["elapsed_ms"] = 0  # timing is excluded from comparisons
                out = json.dumps(cert)
            outs.add(out)
            ok = ok and code == 0
        ok = ok and len(outs) == 1
    # sweep result is identical for 1, 2, 4, 8 workers (histograms add over
    # blocks), with enough CPUs taken to be usable, and one block taken to
    # repay a child, that all of them start
    monkeypatch.setattr(search, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(search, "_BLOCKS_PER_PROCESS", 1)
    results = [run_exhaustive_sweep(stop=1 << 24, workers=w) for w in (1, 2, 4, 8)]
    ok = ok and all(r == results[0] for r in results)
    with capsys.disabled():
        _report(14, ok, "byte-identical CLI reruns; sweep identical for 1/2/4/8 workers", t0, 300)
