from __future__ import annotations

import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2rank.gf2 import BitMatrix
from f2rank.graph import (
    Graph,
    Graph6FormatError,
    NonzeroDiagonalError,
    NotSymmetricError,
    from_graph6,
    is_negation_free,
    is_twin_free,
    line_graph,
    to_graph6,
)
from f2rank.constructions import complete_graph, g2

from conftest import random_graph


def _assert_first_offence(adj: BitMatrix):
    """Graph(adj) names the first offending entry in row-major order."""
    n = adj.rows
    for i in range(n):
        for j in range(i, n):
            if i == j and adj.get(i, i):
                with pytest.raises(NonzeroDiagonalError, match=rf"^diagonal entry \({i},{i}\) is 1$"):
                    Graph(adj)
                return
            if adj.get(i, j) != adj.get(j, i):
                with pytest.raises(NotSymmetricError, match=rf"^entries \({i},{j}\) and \({j},{i}\) differ$"):
                    Graph(adj)
                return
    raise AssertionError("matrix has no offending entry")


def _first_offence_oracle(arr: np.ndarray) -> tuple[int, int] | None:
    """First entry of a dense square 0/1 array in row-major order that is a
    diagonal 1 or differs from its transpose, or None.

    Offences come in mirrored pairs, so the first lies on or above the
    diagonal.  Each band of 256 rows is compared there tile by tile with
    the transposed tiles below the diagonal.
    """
    n, tile_size = len(arr), 256
    for r0 in range(0, n, tile_size):
        rows = slice(r0, r0 + tile_size)
        band = np.empty((min(tile_size, n - r0), n - r0), dtype=bool)
        for c0 in range(r0, n, tile_size):
            tile = (rows, slice(c0, c0 + tile_size))
            np.not_equal(arr[tile], arr[tile[::-1]].T, out=band[:, c0 - r0 : c0 - r0 + tile_size])
        np.fill_diagonal(band, arr.diagonal()[rows])
        if band.any():
            i, j = divmod(int(band.argmax()), n - r0)
            return r0 + i, r0 + j
    return None


def _validation_message(adj: BitMatrix) -> str | None:
    try:
        Graph(adj)
    except (NotSymmetricError, NonzeroDiagonalError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _oracle_message(arr: np.ndarray) -> str | None:
    offence = _first_offence_oracle(arr)
    if offence is None:
        return None
    i, j = offence
    if i == j:
        return f"NonzeroDiagonalError: diagonal entry ({i},{i}) is 1"
    return f"NotSymmetricError: entries ({i},{j}) and ({j},{i}) differ"


def _random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    upper = np.triu(rng.integers(0, 2, (n, n), dtype=np.uint8), 1)
    return upper | upper.T


def test_validation_matches_tiled_oracle_orders_1_to_300():
    # one flip that breaks symmetry, one at the last column (in a row's
    # last, partial byte when n is not a multiple of 8), one diagonal 1,
    # and a flip below a diagonal 1 that comes later
    rng = np.random.default_rng(17)
    for n in range(1, 301):
        arr = _random_symmetric(rng, n)
        assert _validation_message(BitMatrix.from_bool_array(arr)) is None
        cases = []
        i, d = rng.integers(n, size=2)
        cases.append([(i, i)])
        if n > 1:
            a, b = rng.choice(n, size=2, replace=False)
            cases += [[(a, b)], [(rng.integers(n - 1), n - 1)], [(n - 1, 0)], [(b, a), (max(a, b), max(a, b))]]
        for flips in cases:
            bad = arr.copy()
            for r, c in flips:
                bad[r, c] ^= 1
            want = _oracle_message(bad)
            assert want is not None
            assert _validation_message(BitMatrix.from_bool_array(bad)) == want, (n, flips)


def _offending_cases(base: BitMatrix):
    """Diagonal and asymmetric entries placed so that neither kind always
    comes first, plus offences below the diagonal."""
    n = base.rows
    yield base.set_bit(n - 1, n - 1)
    yield base.set_bit(2, 2).set_bit(2, 3, 1 - base.get(2, 3))
    yield base.set_bit(3, 1, 1 - base.get(3, 1)).set_bit(2, 2)
    yield base.set_bit(5, 4, 1 - base.get(5, 4)).set_bit(n - 1, 0, 1 - base.get(n - 1, 0))


def test_graph_validation():
    with pytest.raises(NonzeroDiagonalError):
        Graph(BitMatrix.identity(2))
    with pytest.raises(NotSymmetricError):
        Graph(BitMatrix.from_strings(["010", "000", "000"]))
    with pytest.raises(NotSymmetricError):
        Graph(BitMatrix.zeros(2, 3))
    g = Graph(BitMatrix.zeros(3, 3))
    assert g.order == 3 and g.edge_count() == 0
    Graph(g2().adj)  # the triangle-plus-isolated matrix is valid
    for bad in _offending_cases(complete_graph(9).adj):
        _assert_first_offence(bad)


def test_validation_large_graph_path():
    g = complete_graph(70)
    assert Graph(g.adj).degree(0) == 69
    bad = g.adj.set_bit(0, 0, 1)
    with pytest.raises(NonzeroDiagonalError):
        Graph(bad)
    bad2 = g.adj.set_bit(0, 1, 0)
    with pytest.raises(NotSymmetricError):
        Graph(bad2)
    for bad in _offending_cases(random_graph(random.Random(14), 64).adj):
        _assert_first_offence(bad)


def test_validation_tiled_scan_order_600():
    """Offences on and around 256-wide tile edges, which the tiled oracle
    treats apart, and in the last, partial band."""
    base = random_graph(random.Random(15), 600).adj

    def flip(m, i, j):
        return m.set_bit(i, j, 1 - m.get(i, j))

    cases = [
        flip(base, 255, 256),  # on a tile edge
        flip(base, 256, 255),  # its mirror, below the diagonal
        flip(base, 511, 512),
        flip(base, 550, 590),  # in the last, partial tile
        flip(base, 599, 3),
        base.set_bit(599, 599),  # the last diagonal entry
        # the later tile of a band holds the earlier row
        flip(flip(base, 270, 300), 260, 590),
    ]
    for bad in cases:
        _assert_first_offence(bad)


def test_twin_free_examples():
    assert not is_twin_free(Graph.empty(2))  # two isolated vertices are twins
    assert is_twin_free(g2())
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert not is_twin_free(path3)  # endpoints share the middle vertex


def test_twin_free_matches_naive():
    rng = random.Random(9)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 9))
        sets = [frozenset(g.neighbors(v)) for v in range(g.order)]
        assert is_twin_free(g) == (len(set(sets)) == g.order)


def test_negation_free_examples():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert not is_negation_free(k2)
    assert is_negation_free(g2())
    assert is_negation_free(Graph.empty(2))


def test_negation_free_matches_naive():
    rng = random.Random(10)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 9))
        n = g.order
        naive = True
        for u in range(n):
            for v in range(n):
                if u != v and set(g.neighbors(v)) == set(range(n)) - set(g.neighbors(u)):
                    naive = False
        assert is_negation_free(g) == naive


def test_plumbing():
    g = g2()
    assert g.degree(3) == 0
    assert g.common_neighbors(0, 1) == 1  # adjacent pair in the triangle
    assert g.isolated_vertices() == [3]
    assert g.neighbors(0) == [1, 2]
    assert g.edge_count() == 3
    bigger = g.add_isolated_vertex()
    assert bigger.order == 5 and bigger.degree(4) == 0
    assert bigger.rank() == g.rank()
    assert g.remove_vertex(3).order == 3


def test_add_isolated_vertex_twin_behaviour():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 8))
        grown = g.add_isolated_vertex()
        assert grown.rank() == g.rank()
        expected = is_twin_free(g) and not g.isolated_vertices()
        assert is_twin_free(grown) == expected


# ---------------------------------------------------------------------------
# line graphs
# ---------------------------------------------------------------------------


def test_line_graph_examples():
    c3 = complete_graph(3)
    lg = line_graph(c3)
    assert lg.order == 3 and lg.edge_count() == 3  # triangle again
    lk4 = line_graph(complete_graph(4))
    assert lk4.order == 6
    assert all(lk4.degree(v) == 4 for v in range(6))
    assert line_graph(complete_graph(6)).order == 15
    with pytest.raises(ValueError):
        line_graph(Graph.empty(3))


def _line_graph_pairwise(g: Graph) -> list[int]:
    """Rows of L(g) from the definition: edges a != b are adjacent iff they
    share exactly one endpoint."""
    edges = g.edges()
    return [
        sum(1 << b for b, eb in enumerate(edges) if len(set(ea) & set(eb)) == 1)
        for ea in edges
    ]


def test_line_graph_matches_pairwise_definition():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randrange(2, 24)
        g = random_graph(rng, n, rng.choice([0.05, 0.2, 0.5, 0.9]))
        # isolated vertices at random positions
        keep = [v for v in range(n) if rng.random() < 0.8]
        g = Graph.from_edges(n, [(u, v) for u, v in g.edges() if u in keep and v in keep])
        if g.edge_count() == 0:
            with pytest.raises(ValueError, match="at least one edge"):
                line_graph(g)
            continue
        assert line_graph(g).adj.row_ints() == _line_graph_pairwise(g)
    for n in (0, 1, 5):
        with pytest.raises(ValueError, match="at least one edge"):
            line_graph(Graph.empty(n))


def test_line_graph_twin_free_for_min_degree_above_three():
    rng = random.Random(12)
    produced = 0
    while produced < 15:
        n = rng.randrange(6, 13)
        g = random_graph(rng, n, 0.7)
        if min(g.degree(v) for v in range(n)) <= 3:
            continue
        produced += 1
        assert is_twin_free(line_graph(g))


def test_line_graph_matching_dependency():
    # in L(K_k) for even k, the rows of the perfect matching XOR to zero
    for k in (6, 8, 10, 12):
        g = complete_graph(k)
        lg = line_graph(g)
        idx = {e: i for i, e in enumerate(g.edges())}
        acc = 0
        for i in range(k // 2):
            acc ^= lg.adj.row_int(idx[(2 * i, 2 * i + 1)])
        assert acc == 0


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_graph6_manual_oracle():
    # 4 vertices -> chr(67) = 'C'; triangle bits 111000 -> chr(56+63) = 'w'
    assert to_graph6(g2()) == "Cw"
    assert from_graph6("Cw") == g2()
    assert from_graph6(">>graph6<<Cw") == g2()


def test_graph6_against_networkx():
    # every order to 140: both sides of the 62/63 size-field boundary and
    # every residue of n(n-1)/2 mod 6, so every padding length
    rng = random.Random(13)
    for n in range(141):
        g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
        mine = to_graph6(g)
        gx = nx.Graph()
        gx.add_nodes_from(range(n))
        gx.add_edges_from(g.edges())
        assert mine == nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert from_graph6(mine) == g


@settings(max_examples=60)
@given(st.integers(0, 40), st.integers(0, 2**64 - 1))
def test_graph6_round_trip_property(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    assert from_graph6(to_graph6(g)) == g


_OUT_OF_RANGE = "character out of graph6 range"
GRAPH6_MALFORMED = {
    "": "empty graph6 string",
    "C": "expected 1 data characters for n=4, got 0",
    "Cww": "expected 1 data characters for n=4, got 2",
    "C\x00": _OUT_OF_RANGE,
    "~??": "truncated size field",
    "C>": _OUT_OF_RANGE,  # just below '?'
    "C\u00e9": _OUT_OF_RANGE,  # not ASCII
    "C\x7f": _OUT_OF_RANGE,
}


@pytest.mark.parametrize("text", list(GRAPH6_MALFORMED))
def test_graph6_malformed(text):
    with pytest.raises(Graph6FormatError, match=f"^{GRAPH6_MALFORMED[text]}$"):
        from_graph6(text)


def _graph6_reference(g: Graph) -> str:
    """graph6 from its definition, a character per bit: the size field,
    then the upper triangle column by column, (0,1),(0,2),(1,2),..., in
    big-endian groups of six bits padded with zeros, each plus 63."""
    n = g.order
    size = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    # column j of the upper triangle is entries (j, i), i < j, of row j
    bits = "".join(g.adj.row(j).to01()[:j] for j in range(n))
    bits += "0" * (-len(bits) % 6)
    groups = [int(bits[k : k + 6], 2) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + x) for x in size + groups)


def _random_graph_dense(n: int, seed: int) -> Graph:
    return Graph(BitMatrix.from_bool_array(_random_symmetric(np.random.default_rng(seed), n)))


@pytest.mark.parametrize("n", [*range(71), 4095, 4096])
def test_graph6_against_reference_encoder(n):
    # both size forms, and every residue of n(n-1)/2 mod 6 and mod 24, so
    # every padding of the 6-bit groups and of the 3-byte base64 groups
    g = _random_graph_dense(n, 100 + n)
    text = _graph6_reference(g)
    assert to_graph6(g) == text
    assert from_graph6(text) == g


@pytest.mark.parametrize("codec", ["encode", "decode"])
def test_graph6_peak_memory_order_4096(codec):
    # the codecs work on packed rows and blocks of the triangle: neither
    # builds an order x order byte array
    g = _random_graph_dense(4096, 7)
    text = to_graph6(g)
    tracemalloc.start()
    try:
        got = to_graph6(g) if codec == "encode" else from_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (text if codec == "encode" else g)
    assert peak < g.order**2
