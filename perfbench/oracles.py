"""Expected outputs for every benchmark op, computed without f2rank.

Everything here works on dense numpy 0/1 arrays (``arr[i, j]`` is entry
(i, j)) and never imports the package under test, so an oracle cannot share
a defect with the layer it checks.  These functions run during set-up only.
"""

from __future__ import annotations

import numpy as np

G2 = np.array([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def parity_power(m: int) -> np.ndarray:
    """Left-associated parity-product power of G2: entry ((i,k),(j,l)) = a[i,j] ^ b[k,l]."""
    a = G2
    for _ in range(m - 1):
        ra, ca = a.shape
        a = (a[:, None, :, None] ^ G2[None, :, None, :]).reshape(ra * 4, ca * 4)
    return a


def relabel(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(arr.shape[0])
    return np.ascontiguousarray(arr[np.ix_(perm, perm)])


def random_graph(n: int, rng: np.random.Generator) -> np.ndarray:
    """G(n, 1/2): symmetric, zero diagonal, independent fair upper-triangle bits."""
    upper = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
    return upper | upper.T


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def f2mat_text(arr: np.ndarray) -> str:
    rows, cols = arr.shape
    body = np.empty((rows, cols + 1), dtype=np.uint8)
    body[:, :cols] = arr + ord("0")
    body[:, cols] = ord("\n")
    return f"f2mat {rows} {cols}\n" + body.tobytes().decode("ascii")


def _upper_bits_column_order(arr: np.ndarray) -> np.ndarray:
    # (i, j), i < j, ordered by j then i: the lower triangle of arr.T, row-major
    r, c = np.tril_indices(arr.shape[0], -1)
    return arr[c, r]


def graph6_text(arr: np.ndarray) -> str:
    """graph6 line for a symmetric 0/1 matrix, without the trailing newline."""
    n = arr.shape[0]
    if n <= 62:
        size = bytes([n + 63])
    else:
        size = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = _upper_bits_column_order(arr)
    bits = np.concatenate([bits, np.zeros((-len(bits)) % 6, dtype=np.uint8)])
    body = (bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1])) + 63
    return (size + body.astype(np.uint8).tobytes()).decode("ascii")


def graph6_decode(text: str) -> np.ndarray:
    data = np.frombuffer(text.strip().encode("ascii"), dtype=np.uint8).astype(np.int64) - 63
    if data[0] == 63:
        n = int((data[1] << 12) | (data[2] << 6) | data[3])
        body = data[4:]
    else:
        n = int(data[0])
        body = data[1:]
    bits = ((body[:, None] >> np.arange(5, -1, -1)) & 1).reshape(-1)
    arr = np.zeros((n, n), dtype=np.uint8)
    r, c = np.tril_indices(n, -1)
    arr[c, r] = bits[: len(r)]
    return arr | arr.T


# ---------------------------------------------------------------------------
# GF(2) elimination on packed 64-bit words
# ---------------------------------------------------------------------------


def _pack(arr: np.ndarray) -> np.ndarray:
    rows, cols = arr.shape
    words = max(1, (cols + 63) // 64)
    padded = np.zeros((rows, words * 64), dtype=np.uint8)
    padded[:, :cols] = arr
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64).copy()


def gf2_rank(arr: np.ndarray) -> int:
    m = _pack(np.asarray(arr, dtype=np.uint8))
    rows = m.shape[0]
    rank = 0
    for col in range(arr.shape[1]):
        if rank == rows:
            break
        w, b = divmod(col, 64)
        hits = np.flatnonzero((m[rank:, w] >> np.uint64(b)) & np.uint64(1))
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        others = rank + hits[1:]
        if others.size:
            m[others, w:] ^= m[rank, w:]
        rank += 1
    return rank


def in_rowspace(arr: np.ndarray, v: np.ndarray) -> bool:
    return gf2_rank(np.vstack([arr, v[None, :]])) == gf2_rank(arr)


# ---------------------------------------------------------------------------
# verify: the full report the CLI should print
# ---------------------------------------------------------------------------


def analytic_spectrum(order: int) -> list[tuple[float, int]]:
    """{N/2, +sqrt(N)/2, 0, -sqrt(N)/2} with trace-zero multiplicities, descending."""
    root = int(round(order**0.5))
    pairs = [
        (order / 2, 1),
        (root / 2, (order - root) // 2 - 1),
        (0.0, 1),
        (-root / 2, (order + root) // 2 - 1),
    ]
    return [(v, m) for v, m in pairs if m > 0]


def _srg(core: np.ndarray, gram: np.ndarray) -> list | None:
    n = core.shape[0]
    if n == 0:
        return None
    deg = core.sum(axis=1)
    if (deg != deg[0]).any():
        return None
    iu = np.triu_indices(n, 1)
    co = gram[iu]
    adj = core[iu].astype(bool)
    out = [n, int(deg[0])]
    for kind in (adj, ~adj):
        vals = np.unique(co[kind])
        if len(vals) > 1:
            return None
        out.append(int(vals[0]) if len(vals) else None)
    return out


def _quasirandom(core: np.ndarray, gram: np.ndarray) -> float:
    v = core.shape[0]
    if v < 2:
        return 0.0
    p = core.sum() / (v * (v - 1))
    iu = np.triu_indices(v, 1)
    return float(2 * np.abs(gram[iu] - p * p * v).sum() / v**3)


def _decomposition(arr: np.ndarray, rank: int, is_subspace: bool) -> list[tuple[str, bool]]:
    """Mirror of the CLI's two-level coset decomposition checks.

    The first-appearance basis and the (w_i, x_i) position sort follow the
    program's documented conventions, so basis-dependent verdicts are
    predicted exactly; structure is re-derived here with numpy.
    """
    if not is_subspace:
        return [("preconditions", False)]
    if rank < 1:
        return [("preconditions", False)]
    n = arr.shape[0]
    ints = [int.from_bytes(r.tobytes(), "little") for r in np.packbits(arr, axis=1, bitorder="little")]
    echelon: dict[int, int] = {}
    basis: list[int] = []
    for r in ints:
        v = r
        while v and (v.bit_length() - 1) in echelon:
            v ^= echelon[v.bit_length() - 1]
        if v:
            echelon[v.bit_length() - 1] = v
            basis.append(r)
            if len(basis) == rank:
                break
    index_of = {r: i for i, r in enumerate(ints)}
    perm = []
    for k in range(n):
        target = 0
        for i in range(rank):
            if (k >> i) & 1:
                target ^= basis[i]
        perm.append(index_of[target])
    re = arr[np.ix_(perm, perm)]
    h = n // 2
    b = re[:h, :h]
    u = re[h, :h]
    if not np.array_equal(u, re[h, h:]):
        raise ValueError("coset vector halves differ")
    ucol = np.broadcast_to(u[:, None], (h, h))
    urow = np.broadcast_to(u[None, :], (h, h))
    if not (
        np.array_equal(re[:h, h:], b ^ ucol)
        and np.array_equal(re[h:, :h], b ^ urow)
        and np.array_equal(re[h:, h:], b ^ urow ^ ucol)
    ):
        raise ValueError("coset block identity violated")
    out = [
        ("preconditions", True),
        ("u_equals_uhat", True),
        ("block_identity", True),
        ("rank_top_block", gf2_rank(b) == rank - 2),
        ("u_outside_top_block_rowspace", not in_rowspace(b, u)),
    ]
    if rank < 2:
        return out + [("second_level", False)]
    q = h // 2
    c = b[:q, :q]
    w = b[q, :q]
    wcol = np.broadcast_to(w[:, None], (q, q))
    wrow = np.broadcast_to(w[None, :], (q, q))
    second_ok = (
        np.array_equal(b[q, q:], w)
        and np.array_equal(b[:q, q:], c ^ wcol)
        and np.array_equal(b[q:, :q], c ^ wrow)
        and np.array_equal(b[q:, q:], c ^ wrow ^ wcol)
    )
    x, y = u[:q], u[q:]
    s, t = re[q, 2 * q : 3 * q], re[q, 3 * q :]
    eq = np.array_equal
    rel = (eq(w, s) and eq(x, y)) or (eq(w, 1 - s) and eq(x, 1 - y))
    x_in, w_in = in_rowspace(c, x), in_rowspace(c, w)
    out += [
        ("second_level_block_identity", second_ok),
        ("s_equals_t", eq(s, t)),
        ("w_s_x_y_relation", rel),
        ("x_w_membership_dichotomy", x_in == w_in),
    ]
    if x_in or w_in or rank < 4:
        return out + [("quarter_intersections", True), ("tiled_quarter_block", True)]
    expected = 1 << (rank - 4)
    sizes = [int(((x == a) & (w == bb)).sum()) for a, bb in ((0, 0), (0, 1), (1, 0), (1, 1))]
    order = np.lexsort((np.arange(q), x, w))
    cs = c[np.ix_(order, order)]
    qq = q // 4
    d = cs[:qq, :qq]
    tiled = all(
        np.array_equal(cs[i * qq : (i + 1) * qq, j * qq : (j + 1) * qq], d)
        for i in range(4)
        for j in range(4)
    )
    return out + [
        ("quarter_intersections", all(sz == expected for sz in sizes)),
        ("tiled_quarter_block", tiled),
    ]


def verify_report(arr: np.ndarray, spectrum_cap: int = 256) -> dict:
    """Expected `verify --json` payload fields for a graph given as a 0/1 matrix.

    Returns the (name, pass) check list, rank, SRG list and pass verdict as
    the CLI should print them, plus the analytic spectrum when the CLI
    computes one for a 4^m member.
    """
    arr = np.asarray(arr, dtype=np.uint8)
    order = arr.shape[0]
    n = order.bit_length() - 1 if order > 0 and order & (order - 1) == 0 else None
    f = arr.astype(np.float64)
    gram = f @ f.T  # exact: entries are at most order < 2^53
    deg = np.diag(gram)
    rank = gf2_rank(arr)
    packed = [r.tobytes() for r in np.packbits(arr, axis=1, bitorder="little")]
    distinct = len(set(packed)) == order
    complements = {r.tobytes() for r in np.packbits(1 - arr, axis=1, bitorder="little")}
    zero_rows = int((deg == 0).sum())
    is_subspace = distinct and zero_rows == 1 and order == 1 << rank
    sign = 1.0 - 2.0 * f
    hadamard = np.array_equal(sign @ sign.T, order * np.eye(order))
    balanced = bool((deg[deg > 0] == order / 2).all())
    nz = np.flatnonzero(deg > 0)
    quarter, rem = divmod(order, 4)
    if len(nz) < 2:
        quarters = True
    elif rem:
        quarters = False
    else:
        g = gram[np.ix_(nz, nz)]
        di = deg[nz][:, None]
        dj = deg[nz][None, :]
        ok = (g == quarter) & (di - g == quarter) & (dj - g == quarter) & (order - di - dj + g == quarter)
        quarters = bool(ok[np.triu_indices(len(nz), 1)].all())
    keep = np.flatnonzero(deg > 0) if zero_rows else np.arange(order)
    core = arr[np.ix_(keep, keep)]
    core_gram = gram[np.ix_(keep, keep)]
    srg = _srg(core, core_gram)
    checks = [
        ("order", n is not None),
        ("twin_free", distinct),
        ("negation_free", not (set(packed) & complements)),
        ("rank", n is not None and rank == n),
        ("rows_form_subspace", is_subspace),
        ("unique_isolated_vertex", zero_rows == 1),
        ("hadamard_signed_adjacency", hadamard),
        ("balanced_rows", balanced),
        ("pairwise_intersection_quarters", quarters),
    ]
    if srg is not None and n is not None and order % 4 == 0:
        want = [order - 1, order // 2, order // 4, order // 4]
        checks.append(("srg_core", all(s is None or s == e for s, e in zip(srg, want))))
    else:
        checks.append(("srg_core", srg is not None))
    dev = _quasirandom(core, core_gram)
    checks.append(("quasirandom_deviation_bounded", dev <= 1.0 / core.shape[0] if core.shape[0] >= 15 else True))
    is_pow4 = n is not None and n % 2 == 0
    spectrum = None
    if 1 <= order <= spectrum_cap:
        if not is_pow4:
            raise ValueError("no oracle for the spectrum of a non-4^m graph")
        spectrum = analytic_spectrum(order)
    # computed and matching for 4^m members up to the cap, skipped above it
    checks.append(("spectrum_matches_analytic", True))
    if is_pow4:
        checks.append(("spectrum_multiplicity_assignment", True))
    checks += [("decomposition." + k, v) for k, v in _decomposition(arr, rank, is_subspace)]
    return {
        "order": order,
        "checks": checks,
        "rank": rank,
        "srg": srg,
        "spectrum": spectrum,
        "pass": all(v for _, v in checks),
    }


def family_truth(m: int) -> dict:
    """What the paper proves for every relabelling of the order-4^m member."""
    order = 4**m
    return {
        "rank": 2 * m,
        "srg": [order - 1, order // 2, order // 4, order // 4],
    }


def is_witness(first: np.ndarray, second: np.ndarray, witness) -> bool:
    """True iff witness is a bijection v -> witness[v] carrying first onto second."""
    n = first.shape[0]
    w = np.asarray(witness, dtype=np.int64)
    if w.shape != (n,) or not np.array_equal(np.sort(w), np.arange(n)):
        return False
    return np.array_equal(second[np.ix_(w, w)], first)


# ---------------------------------------------------------------------------
# Order-8 sweep
# ---------------------------------------------------------------------------


def unpack8(word: int) -> np.ndarray:
    """The 8x8 0/1 matrix of a packed word: byte i is row i, bit j of it is column j."""
    return np.array([[(word >> (8 * i + j)) & 1 for j in range(8)] for i in range(8)], dtype=np.uint8)
