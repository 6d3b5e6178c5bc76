from __future__ import annotations

import pytest

from f2rank.gf2 import rows_form_subspace
from f2rank.graph import Graph, is_negation_free, is_twin_free, line_graph
from f2rank.products import parity_product_graph
from f2rank.constructions import (
    complete_graph,
    extremal_odd_plus_one,
    g2,
    g2_power,
    linegraph_clique_plus_isolated,
)


def test_g2_exact_rows():
    g = g2()
    assert [g.adj.row(i).to01() for i in range(4)] == ["0110", "1010", "1100", "0000"]
    assert g.rank() == 2
    assert is_twin_free(g) and is_negation_free(g)


def g2_power_oracle(m: int) -> Graph:
    """The left-associated parity-product power of g2, g2 x g2 x ... x g2."""
    base = g2()
    g = base
    for _ in range(m - 1):
        g = parity_product_graph(g, base)
    return g


@pytest.mark.parametrize("m", range(1, 7))
def test_g2_power_matches_parity_product_oracle(m):
    # the direct standard-form builder against the chain of products,
    # byte for byte
    got, want = g2_power(m).adj, g2_power_oracle(m).adj
    assert (got.rows, got.cols) == (want.rows, want.cols) == (4**m, 4**m)
    assert got.packed.tobytes() == want.packed.tobytes()


def test_g2_power_properties():
    assert g2_power(1) == g2()
    for m in range(1, 5):
        g = g2_power(m)
        assert g.order == 4**m
        assert g.rank() == 2 * m
        assert is_twin_free(g) and is_negation_free(g)
        assert g.isolated_vertices() == [4**m - 1]
        assert rows_form_subspace(g.adj)
    with pytest.raises(ValueError):
        g2_power(0)


# achieved GF(2) ranks of line graphs of cliques, frozen from computation;
# each meets the parity bound (k-2 even, k-1 odd) with equality
LINE_GRAPH_RANKS = {5: 4, 6: 4, 7: 6, 8: 6, 9: 8, 10: 8, 11: 10, 12: 10}


def test_line_graph_clique_ranks():
    for k, expected in LINE_GRAPH_RANKS.items():
        r = line_graph(complete_graph(k)).rank()
        bound = k - 2 if k % 2 == 0 else k - 1
        assert r <= bound
        assert r == expected


def test_linegraph_clique_plus_isolated():
    g = linegraph_clique_plus_isolated(6)
    assert g.order == 16 and g.rank() == 4
    assert g.isolated_vertices() == [15]
    assert linegraph_clique_plus_isolated(5).order == 11
    assert linegraph_clique_plus_isolated(5).rank() <= 4
    assert linegraph_clique_plus_isolated(8).rank() <= 6
    with pytest.raises(ValueError):
        linegraph_clique_plus_isolated(4)


def test_extremal_odd_block_structure():
    for n in (3, 5):
        g = extremal_odd_plus_one(n)
        half = g.order // 2
        a = g2_power((n - 1) // 2).adj
        full = (1 << half) - 1
        rows_a = a.row_ints()
        for i in range(half):
            row = g.adj.row_int(i)
            left, right = row & full, row >> half
            assert left == rows_a[i] and right == rows_a[i] ^ full
        # every row is (v, ~v) or (~v, v) for a row v of the inner matrix
        for i in range(g.order):
            row = g.adj.row_int(i)
            left, right = row & full, row >> half
            assert right == left ^ full
            assert left in rows_a or left ^ full in rows_a


def test_extremal_odd_properties():
    for n in (3, 5, 7):
        g = extremal_odd_plus_one(n)
        assert g.order == 2**n
        assert is_twin_free(g)
        assert g.rank() == n + 1
    for bad in (2, 4, 1):
        with pytest.raises(ValueError):
            extremal_odd_plus_one(bad)
