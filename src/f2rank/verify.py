"""Checkers for the structural claims about extremal twin-free graphs.

Every checker is a pure function; failures are data (report entries),
never exceptions, so complete reports can be emitted for bad inputs.
The coset decomposition certifies the block structure of symmetric
zero-diagonal subspace matrices:

* level 1 reorders the rows so that row k is the XOR of the basis rows
  selected by k's binary digits, splits off the top-left quadrant B and
  the coset vector u (the first half of row 2^(n-1), whose second half
  equals u);
* level 2 splits B the same way in its inherited order: C is the
  top-left quadrant of B and w is the first quarter of B's middle row;
  x and y are the first and second halves of u, and (s, t) are the third
  and fourth quarters of the full reordered row that starts with (w, w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2 import (
    BitMatrix,
    BitVector,
    rank,
    rank_of_row_ints,
    row_space_contains,
    rows_form_subspace,
)
from .graph import Graph, is_negation_free, is_twin_free
from .spectral import Spectrum, analytic_spectrum, graph_spectrum

# orders above this get no spectrum payload from full_report
SPECTRUM_CAP = 256


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str = ""
    data: dict | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "details": self.details}


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, details: str = "", data: dict | None = None):
        self.checks.append(CheckResult(name, bool(passed), details, data))

    def extend(self, other: VerificationReport, prefix: str = ""):
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.name, c.passed, c.details, c.data)
            )

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class SrgParams:
    """Intersection array; lam/mu are None when no pair of that kind exists
    (degenerate complete or empty graphs), in which case any value satisfies
    the definition."""

    v: int
    k: int
    lam: int | None
    mu: int | None

    def as_list(self) -> list[int | None]:
        return [self.v, self.k, self.lam, self.mu]

    def consistent_with(self, v: int, k: int, lam: int, mu: int) -> bool:
        return (
            self.v == v
            and self.k == k
            and (self.lam is None or self.lam == lam)
            and (self.mu is None or self.mu == mu)
        )


@dataclass(frozen=True)
class SrgViolation:
    reason: str
    witness: tuple[int, int]


class NotSubspaceMatrixError(ValueError):
    """Rows do not list a linear subspace exactly once each."""


@dataclass
class CosetDecomposition:
    perm: list[int]
    basis: list[BitVector]
    reordered: BitMatrix
    top_block: BitMatrix
    coset_vector: BitVector

    @property
    def coset_vector_second_half(self) -> BitVector:
        half = self.top_block.rows
        return self.reordered.row(half).slice(half, 2 * half)


# ---------------------------------------------------------------------------
# Gram kernel: the pairwise, regularity and Hadamard checks all read G = A A^T
# ---------------------------------------------------------------------------

# rows of G examined per pass, which bounds every temporary to BLOCK_ROWS x order
BLOCK_ROWS = 128


@dataclass(frozen=True)
class _Gram:
    adj: np.ndarray  # boolean adjacency A
    gram: np.ndarray  # float32 G = A A^T; G_ij counts common neighbours of i, j
    degrees: np.ndarray  # int64 diag(G)


def _gram(g: Graph) -> _Gram:
    adj = g.adj.to_bool_array().view(np.bool_)
    a = adj.astype(np.float32)
    # exact: no entry of G exceeds the order, and float32 holds every
    # integer below 2^24, so the BLAS product is exact for order < 2^24
    gram = a @ a.T
    return _Gram(adj, gram, np.diag(gram).astype(np.int64))


def _row_blocks(m: int):
    """Blocks of row positions 0..m-1, each with its strict-upper-triangle mask."""
    cols = np.arange(m)
    for lo in range(0, m, BLOCK_ROWS):
        rows = cols[lo : lo + BLOCK_ROWS]
        yield rows, cols > rows[:, None]


def _first_pair(m: int, bad) -> tuple[int, int] | None:
    """First pair a < b < m in row-major order at which bad holds.

    bad(rows) maps a block of row positions to a len(rows) x m boolean
    array; only its strict upper triangle is read.
    """
    for rows, upper in _row_blocks(m):
        hit = bad(rows) & upper
        if hit.any():
            a, b = divmod(int(hit.argmax()), m)
            return int(rows[a]), b
    return None


def _is_hadamard(k: _Gram) -> bool:
    """S = J - 2A satisfies S S^T = order * I.

    (S S^T)_ij = N - 2 d_i - 2 d_j + 4 G_ij, which is N on the diagonal
    for every A, so only the off-diagonal entries are tested.
    """
    n = len(k.degrees)
    d2 = 2 * k.degrees

    def nonzero_entry(rows):
        return 4 * k.gram[rows].astype(np.int64) != d2[rows, None] + d2 - n

    return _first_pair(n, nonzero_entry) is None


# ---------------------------------------------------------------------------
# Regularity checks
# ---------------------------------------------------------------------------


def check_balanced_rows(g: Graph) -> bool:
    """Every nonzero adjacency row has exactly order/2 ones."""
    return _balanced_rows_witness(_gram(g)) is None


def _balanced_rows_witness(k: _Gram) -> tuple[int, int] | None:
    d = k.degrees
    half, rem = divmod(len(d), 2)
    bad = np.flatnonzero((d > 0) & ((d != half) | bool(rem)))
    return (int(bad[0]), int(d[bad[0]])) if bad.size else None


def check_pairwise_quarters(g: Graph) -> bool:
    """All four support intersections of distinct nonzero rows have size order/4."""
    return _pairwise_quarters_witness(_gram(g)) is None


def _pairwise_quarters_witness(k: _Gram) -> tuple[int, int] | None:
    quarter, rem = divmod(len(k.degrees), 4)
    nz = np.flatnonzero(k.degrees)
    if rem:  # no pair can meet the pattern
        pair = (0, 1) if nz.size >= 2 else None
    else:
        # the four intersection sizes are determined by |x|, |y|, |x&y|; all
        # are order/4 iff d_i = d_j = order/2 and G_ij = order/4
        half = k.degrees[nz] == 2 * quarter
        pair = _first_pair(
            nz.size,
            lambda rows: (k.gram[np.ix_(nz[rows], nz)] != quarter) | ~half[rows, None] | ~half,
        )
    return None if pair is None else (int(nz[pair[0]]), int(nz[pair[1]]))


def srg_parameters(g: Graph) -> SrgParams | SrgViolation:
    """Exact [v, k, lambda, mu] if strongly regular, else a witness pair."""
    return _srg_parameters(_gram(g), np.arange(g.order))


def _srg_parameters(k: _Gram, core: np.ndarray) -> SrgParams | SrgViolation:
    """srg_parameters of the subgraph induced on the ascending vertex list core.

    Witnesses are positions in core.  Co-degrees are read from G, so core
    may only drop isolated vertices, which are nobody's common neighbour.
    """
    v = core.size
    if v == 0:
        return SrgViolation("empty graph", (0, 0))
    deg = k.degrees[core]
    irregular = np.flatnonzero(deg != deg[0])
    if irregular.size:
        return SrgViolation("not regular", (0, int(irregular[0])))

    def adjacent(rows):
        return k.adj[np.ix_(core[rows], core)]

    def co_degree(pair):
        return None if pair is None else int(k.gram[core[pair[0]], core[pair[1]]])

    # lambda and mu are fixed by the first pair of their kind in row-major
    # order; a missing kind has no pair to break it, so -1 stands in
    lam = co_degree(_first_pair(v, adjacent))
    mu = co_degree(_first_pair(v, lambda rows: ~adjacent(rows)))
    want_adj, want_non = (-1 if x is None else x for x in (lam, mu))
    bad = _first_pair(
        v,
        lambda rows: k.gram[np.ix_(core[rows], core)]
        != np.where(adjacent(rows), want_adj, want_non),
    )
    if bad is not None:
        kind = "adjacent" if k.adj[core[bad[0]], core[bad[1]]] else "non-adjacent"
        return SrgViolation(f"{kind} co-degree varies", bad)
    return SrgParams(v, int(deg[0]), lam, mu)


def quasirandom_deviation(g: Graph) -> float:
    """Normalized co-degree deviation (1/v^3) sum |N(x)^N(y)| - p^2 v.

    The sum runs over ordered pairs of distinct vertices and the density
    is p = 2e / (v(v-1)), both computed from the graph itself.
    """
    return _quasirandom_deviation(_gram(g), np.arange(g.order))


def _quasirandom_deviation(k: _Gram, core: np.ndarray) -> float:
    """quasirandom_deviation of the subgraph induced on core (see _srg_parameters).

    The sum is taken exactly, in integers, over a histogram of the
    co-degrees and rounded to float once.
    """
    v = core.size
    if v < 2:
        return 0.0
    counts = np.zeros(len(k.degrees) + 1, dtype=np.int64)
    for rows, upper in _row_blocks(v):
        common = k.gram[np.ix_(core[rows], core)][upper].astype(np.int64)
        counts += np.bincount(common, minlength=counts.size)
    e = int(k.degrees[core].sum()) // 2
    # p^2 v = 4e^2 / (v (v-1)^2): scale every term by that denominator
    den = v * (v - 1) ** 2
    total = sum(c * abs(x * den - 4 * e * e) for x, c in enumerate(counts.tolist()) if c)
    return 2 * total / (den * v**3)  # int / int rounds correctly


# ---------------------------------------------------------------------------
# Extremal verification
# ---------------------------------------------------------------------------


def _check_order(report: VerificationReport, order: int, n: int) -> bool:
    """Add the "order" entry for order == 2^n; 2^n is built only when it can match."""
    if 0 <= n <= order.bit_length():
        ok = order == 1 << n
        report.add("order", ok, f"order {order}, expected {1 << n}")
        return ok
    report.add("order", False, f"order {order}, expected 2^{n}")
    return False


def verify_extremal(g: Graph, n: int) -> VerificationReport:
    """Check order 2^n, twin-freeness, rank n, subspace rows, one isolated vertex."""
    report = VerificationReport()
    _check_order(report, g.order, n)
    report.add("twin_free", is_twin_free(g), "all neighbourhood rows distinct")
    r = g.rank()
    report.add("rank", r == n, f"rank {r}, expected {n}")
    report.add(
        "rows_form_subspace",
        rows_form_subspace(g.adj),
        "rows list a linear subspace exactly once each",
    )
    iso = g.isolated_vertices()
    report.add(
        "unique_isolated_vertex", len(iso) == 1, f"isolated vertices: {len(iso)}"
    )
    return report


# ---------------------------------------------------------------------------
# Coset decomposition
# ---------------------------------------------------------------------------


def _is_symmetric_zero_diag(a: BitMatrix) -> bool:
    if a.rows != a.cols:
        return False
    try:
        Graph(a)
    except ValueError:
        return False
    return True


def coset_decompose(a: BitMatrix) -> CosetDecomposition:
    """Reorder a subspace matrix into coset order and split off B and u.

    The basis is chosen by a first-appearance scan (ascending row index,
    greedy independence).  After conjugating by the computed permutation,
    row k equals the XOR of the basis rows selected by k's binary digits,
    and the matrix has the block form [B | B+U^T ; B+U | B+U+U^T] where
    every row of U is the coset vector u.
    """
    if not _is_symmetric_zero_diag(a):
        raise NotSubspaceMatrixError("matrix is not symmetric with zero diagonal")
    if not rows_form_subspace(a):
        raise NotSubspaceMatrixError("rows do not form a subspace without repetition")
    rows = a.row_ints()
    n_dim = rank_of_row_ints(rows, a.cols)
    if n_dim < 1:
        raise NotSubspaceMatrixError("decomposition needs rank >= 1")
    # greedy first-appearance basis
    echelon: dict[int, int] = {}
    basis_vals: list[int] = []
    for r in rows:
        v = r
        while v:
            h = v.bit_length() - 1
            if h not in echelon:
                break
            v ^= echelon[h]
        if v:
            echelon[v.bit_length() - 1] = v
            basis_vals.append(r)
            if len(basis_vals) == n_dim:
                break
    index_of = {r: i for i, r in enumerate(rows)}
    perm = []
    for k in range(a.rows):
        target = 0
        bits = k
        i = 0
        while bits:
            if bits & 1:
                target ^= basis_vals[i]
            bits >>= 1
            i += 1
        perm.append(index_of[target])
    reordered = a.conjugate(perm)
    half = a.rows // 2
    idx_top = list(range(half))
    top_block = reordered.submatrix(idx_top, idx_top)
    coset_row = reordered.row(half)
    u = coset_row.slice(0, half)
    uhat = coset_row.slice(half, 2 * half)
    basis = [reordered.row(1 << i) for i in range(n_dim)]
    decomp = CosetDecomposition(perm, basis, reordered, top_block, u)
    if u != uhat:
        raise AssertionError("coset vector halves differ on a symmetric input")
    _assert_block_identity(reordered, top_block, u)
    return decomp


def _repeat_rows(v: BitVector, count: int) -> BitMatrix:
    return BitMatrix(count, v.n, [v.bits] * count)


def _assert_block_identity(reordered: BitMatrix, b: BitMatrix, u: BitVector):
    half = b.rows
    idx_top = list(range(half))
    idx_bot = list(range(half, 2 * half))
    u_rows = _repeat_rows(u, half)
    u_cols = u_rows.transpose()
    ok = (
        reordered.submatrix(idx_top, idx_bot) == b ^ u_cols
        and reordered.submatrix(idx_bot, idx_top) == b ^ u_rows
        and reordered.submatrix(idx_bot, idx_bot) == b ^ u_rows ^ u_cols
    )
    if not ok:
        raise AssertionError("coset block identity violated")


def decomposition_invariants(a: BitMatrix) -> VerificationReport:
    """Run both decomposition levels and check every block-structure claim.

    Index conventions: u is the first half of reordered row 2^(n-1) (its
    second half is checked equal); x, y are the first and second halves
    of u; w is the first quarter of reordered row 2^(n-2), and (s, t) are
    that row's third and fourth quarters.
    """
    report = VerificationReport()
    try:
        d = coset_decompose(a)
    except (NotSubspaceMatrixError, ValueError) as exc:
        report.add("preconditions", False, str(exc))
        return report
    report.add("preconditions", True, "symmetric zero-diagonal subspace matrix")
    n_dim = len(d.basis)
    b = d.top_block
    u = d.coset_vector
    report.add("u_equals_uhat", u == d.coset_vector_second_half, "")
    report.add("block_identity", True, "reordered = [B | B+U^T ; B+U | B+U+U^T]")
    rank_b = rank(b)
    report.add("rank_top_block", rank_b == n_dim - 2, f"rank(B) = {rank_b}, expected {n_dim - 2}")
    report.add(
        "u_outside_top_block_rowspace",
        not row_space_contains(b, u),
        "u is not a combination of rows of B",
    )
    if n_dim < 2:
        report.add("second_level", False, "needs rank >= 2")
        return report

    half = b.rows
    q = half // 2
    idx_q = list(range(q))
    c = b.submatrix(idx_q, idx_q)
    mid = b.row(q)
    w = mid.slice(0, q)
    what = mid.slice(q, 2 * q)
    w_rows = _repeat_rows(w, q)
    w_cols = w_rows.transpose()
    idx_hi = list(range(q, 2 * q))
    second_ok = (
        what == w
        and b.submatrix(idx_q, idx_hi) == c ^ w_cols
        and b.submatrix(idx_hi, idx_q) == c ^ w_rows
        and b.submatrix(idx_hi, idx_hi) == c ^ w_rows ^ w_cols
    )
    report.add(
        "second_level_block_identity",
        second_ok,
        "B = [C | C+W^T ; C+W | C+W+W^T]",
    )

    x = u.slice(0, q)
    y = u.slice(q, 2 * q)
    w_full_row = d.reordered.row(q)
    s = w_full_row.slice(2 * q, 3 * q)
    t = w_full_row.slice(3 * q, 4 * q)
    report.add("s_equals_t", s == t, "")
    rel = (w == s and x == y) or (w == s.complement() and x == y.complement())
    report.add(
        "w_s_x_y_relation",
        rel,
        "either (w=s and x=y) or (w=~s and x=~y)",
    )
    x_in = row_space_contains(c, x)
    w_in = row_space_contains(c, w)
    report.add(
        "x_w_membership_dichotomy",
        x_in == w_in,
        f"x in rowspace(C): {x_in}; w in rowspace(C): {w_in}",
    )
    if x_in or w_in or n_dim < 4:
        report.add(
            "quarter_intersections",
            True,
            "skipped: applies only when x and w both lie outside rowspace(C)",
        )
        report.add(
            "tiled_quarter_block",
            True,
            "skipped: applies only when x and w both lie outside rowspace(C)",
        )
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
    # make the four (w_i, x_i) classes contiguous, then C must be the 4x4
    # tiling of its top-left quarter.  Row k of C is linear in k, so a zero
    # row r of C (an element of its radical) gives C[i ^ r][j] = C[i][j]:
    # ordering each class by i ^ r, with r the class's own zero row, lines
    # the classes up entrywise whatever the input vertex order was
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


# ---------------------------------------------------------------------------
# Full report (construction checks + regularity + spectrum + decomposition)
# ---------------------------------------------------------------------------


@dataclass
class FullVerification:
    report: VerificationReport
    rank: int
    srg: SrgParams | SrgViolation | None
    spectrum: Spectrum | None


def full_report(g: Graph, expect_n: int | None = None) -> FullVerification:
    """Aggregate every checkable claim about an extremal-graph candidate.

    If expect_n is omitted it is inferred from the order when that is a
    power of two.  The spectrum payload (and the analytic comparison) is
    computed only for orders up to SPECTRUM_CAP.  The pairwise, regularity
    and Hadamard checks all read one Gram matrix G = A A^T.
    """
    order = g.order
    inferred = order.bit_length() - 1 if order > 0 and order & (order - 1) == 0 else None
    n = expect_n if expect_n is not None else inferred

    report = VerificationReport()
    if n is not None:
        order_ok = _check_order(report, order, n)
    else:
        order_ok = False
        report.add("order", False, f"order {order} is not a power of two")
    report.add("twin_free", is_twin_free(g), "all neighbourhood rows distinct")
    report.add("negation_free", is_negation_free(g), "no row is the complement of another")
    r = g.rank()
    if n is not None:
        report.add("rank", r == n, f"rank {r}, expected {n}")
    else:
        report.add("rank", False, f"rank {r}, no expected value (order not a power of two)")
    report.add("rows_form_subspace", rows_form_subspace(g.adj), "")
    k = _gram(g)
    # the core drops the isolated vertices, which changes no co-degree
    core = np.flatnonzero(k.degrees)
    isolated = order - core.size
    report.add("unique_isolated_vertex", isolated == 1, f"isolated vertices: {isolated}")

    report.add(
        "hadamard_signed_adjacency",
        _is_hadamard(k),
        "signed adjacency S satisfies S S^T = order * I",
    )
    bal = _balanced_rows_witness(k)
    report.add(
        "balanced_rows",
        bal is None,
        "" if bal is None else f"row {bal[0]} has {bal[1]} ones",
    )
    quart = _pairwise_quarters_witness(k)
    report.add(
        "pairwise_intersection_quarters",
        quart is None,
        "" if quart is None else f"rows {quart[0]} and {quart[1]} break the order/4 pattern",
    )

    srg = _srg_parameters(k, core) if core.size else None
    if isinstance(srg, SrgParams) and n is not None and order % 4 == 0:
        expected = [order - 1, order // 2, order // 4, order // 4]
        report.add(
            "srg_core",
            srg.consistent_with(*expected),
            f"core parameters {srg.as_list()}, expected {expected}",
        )
    elif isinstance(srg, SrgParams):
        report.add("srg_core", True, f"core parameters {srg.as_list()}")
    else:
        reason = srg.reason if isinstance(srg, SrgViolation) else "empty core"
        report.add("srg_core", False, f"core not strongly regular: {reason}")

    # the 1/v bound is asymptotic; tiny cores (the order-4 member's core is
    # a bare triangle) get the value reported without a pass/fail cutoff
    dev = _quasirandom_deviation(k, core)
    if core.size >= 15:
        report.add(
            "quasirandom_deviation_bounded",
            dev <= 1.0 / core.size,
            f"deviation {dev:.6g}, bound {1.0 / core.size:.6g}",
        )
    else:
        report.add(
            "quasirandom_deviation_bounded",
            True,
            f"deviation {dev:.6g} (core too small for the 1/v bound)",
        )

    spectrum = None
    # 4^m with m >= 1: the analytic spectrum has no order-1 case
    is_pow4 = order_ok and n % 2 == 0 and n >= 2
    if order == 0:
        report.add("spectrum_matches_analytic", True, "skipped: empty graph")
    elif order <= SPECTRUM_CAP:
        spectrum = graph_spectrum(g)
        if is_pow4:
            expected_spec = analytic_spectrum(n // 2)
            report.add(
                "spectrum_matches_analytic",
                spectrum.matches(expected_spec, tol=1e-8),
                f"computed {spectrum.entries}, expected {expected_spec.entries}",
            )
        else:
            report.add(
                "spectrum_matches_analytic",
                False,
                f"no analytic spectrum: order {order} with expected rank {n} is not a 4^m instance",
            )
    else:
        report.add(
            "spectrum_matches_analytic",
            True,
            f"skipped: order {order} exceeds eigensolver cap {SPECTRUM_CAP}",
        )
    if is_pow4:
        root = 2 ** (n // 2)
        kept = ((order - root) // 2 - 1, (order + root) // 2 - 1)
        swapped_trace = order // 2 + (root / 2) * kept[1] - (root / 2) * kept[0]
        report.add(
            "spectrum_multiplicity_assignment",
            swapped_trace != 0,
            "multiplicities of +/-sqrt(N)/2 are forced by trace zero: "
            f"{kept[0]} and {kept[1]}; the swapped assignment would give trace "
            f"{swapped_trace:g} and is rejected",
        )

    decomp = decomposition_invariants(g.adj)
    report.extend(decomp, prefix="decomposition.")
    return FullVerification(report=report, rank=r, srg=srg, spectrum=spectrum)
