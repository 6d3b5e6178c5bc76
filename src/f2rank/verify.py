"""Checkers for the structural claims about extremal twin-free graphs.

Every checker is a pure function; failures are data (report entries),
never exceptions, so complete reports can be emitted for bad inputs.
full_report reads the pairwise, regularity and Hadamard claims off the
codes that codes.subspace_codes finds, which certify the input as the
standard form on them; other inputs go through one Gram matrix G = A A^T.  The
coset decomposition certifies the block structure of symmetric
zero-diagonal subspace matrices, reordered so that row k is the XOR of
the basis rows P selected by k's binary digits:

* level 1 splits off the top-left quadrant B and the coset vector u (the
  first half of row 2^(n-1), whose second half equals u);
* level 2 splits B the same way in its inherited order: C is the
  top-left quadrant of B and w is the first quarter of B's middle row;
  x and y are the first and second halves of u, and (s, t) are the third
  and fourth quarters of the full reordered row that starts with (w, w).

Entry (k, l) of the reordered matrix is k^T F l, with F = A[P, P] the
n x n form on the basis, so decomposition_invariants reads every claim
off F; only coset_decompose builds the reordered matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import subspace_codes
from .gf2 import BitMatrix, BitVector, rank_of_row_ints
from .graph import Graph, _twin_and_negation_free, first_offence
from .spectral import Spectrum, analytic_spectrum, graph_spectrum

# orders above this get no spectrum payload from full_report
SPECTRUM_CAP = 256
# the codes argument of a caller that has not run subspace_codes
_UNTESTED = object()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "details": self.details}


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, details: str = ""):
        self.checks.append(CheckResult(name, bool(passed), details))

    def extend(self, other: VerificationReport, prefix: str = ""):
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.passed, c.details))

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


# ---------------------------------------------------------------------------
# Gram kernel: the pairwise, regularity and Hadamard checks all read G = A A^T
# ---------------------------------------------------------------------------

# rows of G examined per pass, which bounds every temporary to BLOCK_ROWS x order
BLOCK_ROWS = 128


@dataclass(frozen=True)
class _Gram:
    # adj and gram are None when the input is the standard form on its
    # codes: every check then passes, and no witness search reads them
    adj: np.ndarray | None  # boolean adjacency A
    gram: np.ndarray | None  # float32 G = A A^T; G_ij counts common neighbours of i, j
    degrees: np.ndarray  # int64 diag(G)


def _gram(g: Graph) -> _Gram:
    adj = g.adj.to_bool_array().view(np.bool_)
    a = adj.astype(np.float32)
    # exact: no entry of G exceeds the order, and float32 holds every
    # integer below 2^24, so the BLAS product is exact for order < 2^24
    gram = a @ a.T
    return _Gram(adj, gram, np.diag(gram).astype(np.int64))


@dataclass(frozen=True)
class _Scan:
    hadamard: bool  # S = J - 2A satisfies S S^T = order * I
    # hist[a, x] counts the ordered pairs i != j of core vertices with
    # A_ij = a and G_ij = x
    hist: np.ndarray


def _scan(k: _Gram, core: np.ndarray) -> _Scan:
    """The Hadamard verdict and the co-degree histogram from one pass over G.

    (S S^T)_ij = N - 2 d_i - 2 d_j + 4 G_ij, which is N on the diagonal
    for every A, so only the off-diagonal entries are tested.  Every term
    and partial sum is a multiple of 1/2 of magnitude below 6N, which
    float32 holds exactly for orders below 2^20.  G and A are symmetric,
    so the pass reads the upper triangle only: each block of BLOCK_ROWS
    rows from its diagonal on, with the diagonal and the entries below it
    sent to a sentinel bin.  The pairs that meet a vertex outside core
    have A_ij = G_ij = 0, since core may only drop isolated vertices; they
    are taken out of hist[0, 0].
    """
    n = len(k.degrees)
    h = (2 * k.degrees - n / 2).astype(np.float32)  # 4 G_ij = h_i + h_j
    width = np.float32(n + 1)  # a key is G_ij + width * A_ij
    sentinel = 2 * (n + 1)
    lower = np.tri(BLOCK_ROWS, dtype=bool)  # the diagonal and below it
    hadamard = True
    counts = np.zeros(sentinel + 1, dtype=np.int64)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        gram = k.gram[lo:hi, lo:]
        below = lower[: hi - lo, : hi - lo]
        if hadamard:
            off = 4 * gram - h[lo:hi, None] != h[lo:]
            off[:, : hi - lo][below] = False
            hadamard = not off.any()
        key = k.adj[lo:hi, lo:] * width
        key += gram
        key[:, : hi - lo][below] = sentinel
        counts += np.bincount(key.astype(np.intp).ravel(), minlength=counts.size)
    hist = 2 * counts[:sentinel].reshape(2, n + 1)
    v = core.size
    hist[0, 0] -= n * (n - 1) - v * (v - 1)
    return _Scan(hadamard, hist)


def _standard_form(codes: np.ndarray) -> tuple[_Gram, _Scan]:
    """The degrees and the _Scan of the standard form on codes, which list
    range(N) once each, read off the codes.  The form is nondegenerate:
    code 0 is isolated, every other vertex has degree N/2, and two
    distinct nonzero codes give independent functionals, so every pair of
    core vertices has co-degree N/4.  Then N - 2 d_i - 2 d_j + 4 G_ij, the
    identity _scan tests, is 0 for all i != j: S is Hadamard."""
    order = codes.size
    core = order - 1
    hist = np.zeros((2, order + 1), dtype=np.int64)
    hist[1, order // 4] = core * (order // 2)
    hist[0, order // 4] = core * (core - 1) - core * (order // 2)
    return _Gram(None, None, np.where(codes == 0, 0, order // 2)), _Scan(True, hist)


def _first_pair(m: int, bad) -> tuple[int, int] | None:
    """First pair a < b < m in row-major order at which bad holds.

    bad(rows) maps a block of row positions to a len(rows) x m boolean
    array; only its strict upper triangle is read.  This row-major search
    only names witnesses, once the scan has found that a check fails.
    """
    cols = np.arange(m)
    for lo in range(0, m, BLOCK_ROWS):
        rows = cols[lo : lo + BLOCK_ROWS]
        hit = bad(rows) & (cols > rows[:, None])
        if hit.any():
            a, b = divmod(int(hit.argmax()), m)
            return int(rows[a]), b
    return None


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
    k = _gram(g)
    return _pairwise_quarters_witness(k, _scan(k, np.flatnonzero(k.degrees))) is None


def _pairwise_quarters_witness(k: _Gram, scan: _Scan) -> tuple[int, int] | None:
    """First pair of nonzero rows that breaks the order/4 pattern.

    scan covers the nonzero rows.  The four intersection sizes are
    determined by |x|, |y|, |x&y|; all are order/4 iff d_i = d_j = order/2
    and G_ij = order/4, so the check passes when every nonzero degree is
    order/2 and every co-degree order/4.
    """
    quarter, rem = divmod(len(k.degrees), 4)
    on_quarter = 0 if rem else scan.hist[:, quarter].sum()
    if scan.hist.sum() == on_quarter and (k.degrees[k.degrees > 0] == 2 * quarter).all():
        return None
    return _quarters_row_major(k)


def _quarters_row_major(k: _Gram) -> tuple[int, int] | None:
    quarter, rem = divmod(len(k.degrees), 4)
    nz = np.flatnonzero(k.degrees)
    if rem:  # no pair can meet the pattern
        pair = (0, 1) if nz.size >= 2 else None
    else:
        half = k.degrees[nz] == 2 * quarter
        pair = _first_pair(
            nz.size,
            lambda rows: (k.gram[np.ix_(nz[rows], nz)] != quarter) | ~half[rows, None] | ~half,
        )
    return None if pair is None else (int(nz[pair[0]]), int(nz[pair[1]]))


def srg_parameters(g: Graph) -> SrgParams | SrgViolation:
    """Exact [v, k, lambda, mu] if strongly regular, else a witness pair."""
    k = _gram(g)
    core = np.arange(g.order)
    return _srg_parameters(k, core, _scan(k, core))


def _srg_parameters(k: _Gram, core: np.ndarray, scan: _Scan) -> SrgParams | SrgViolation:
    """srg_parameters of the subgraph induced on the ascending vertex list core.

    scan covers core.  A regular graph is strongly regular iff each kind
    of pair, adjacent and non-adjacent, shows at most one co-degree; a
    kind with no pairs leaves its parameter None.
    """
    deg = k.degrees[core]
    kinds = [np.flatnonzero(scan.hist[a]) for a in (1, 0)]
    if core.size and (deg == deg[0]).all() and all(x.size <= 1 for x in kinds):
        lam, mu = (int(x[0]) if x.size else None for x in kinds)
        return SrgParams(core.size, int(deg[0]), lam, mu)
    return _srg_row_major(k, core)


def _srg_row_major(k: _Gram, core: np.ndarray) -> SrgParams | SrgViolation:
    """_srg_parameters by a row-major search, which names the first violation.

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
    k = _gram(g)
    core = np.arange(g.order)
    return _quasirandom_deviation(k, core, _scan(k, core))


def _quasirandom_deviation(k: _Gram, core: np.ndarray, scan: _Scan) -> float:
    """quasirandom_deviation of the subgraph induced on core, which scan covers.

    The sum is taken exactly, in integers, over the co-degree histogram
    and rounded to float once.
    """
    v = core.size
    if v < 2:
        return 0.0
    e = int(k.degrees[core].sum()) // 2
    # p^2 v = 4e^2 / (v (v-1)^2): scale every term by that denominator
    den = v * (v - 1) ** 2
    counts = scan.hist.sum(axis=0).tolist()
    total = sum(c * abs(x * den - 4 * e * e) for x, c in enumerate(counts) if c)
    return total / (den * v**3)  # int / int rounds correctly


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


# ---------------------------------------------------------------------------
# Coset decomposition
# ---------------------------------------------------------------------------


def _is_symmetric_zero_diag(a: BitMatrix) -> bool:
    return a.rows == a.cols and first_offence(a) is None


def _subspace_basis(
    a: BitMatrix | Graph, codes: object = _UNTESTED
) -> tuple[BitMatrix, list[int], np.ndarray]:
    """The adjacency of a subspace matrix, its basis and its codes.  A
    caller that ran subspace_codes(a) passes its result, None included."""
    if isinstance(a, Graph):
        a = a.adj
    elif not _is_symmetric_zero_diag(a):
        raise NotSubspaceMatrixError("matrix is not symmetric with zero diagonal")
    found = subspace_codes(a) if codes is _UNTESTED else codes
    if found is None:
        raise NotSubspaceMatrixError("rows do not form a subspace without repetition")
    basis, codes = found
    if not basis:
        raise NotSubspaceMatrixError("decomposition needs rank >= 1")
    return a, basis, codes


def _span(vectors) -> np.ndarray:
    """Entry k is the XOR of the vectors selected by k's binary digits."""
    span = np.zeros(1, dtype=np.int64)
    for v in vectors:
        span = np.concatenate([span, span ^ v])
    return span


def _coset_order(a: BitMatrix | Graph) -> tuple[np.ndarray, np.ndarray]:
    """The coset permutation of a subspace matrix and the matrix conjugated
    by it, as a dense 0/1 array whose level-1 block identity holds.

    The codes c_i of the rows list range(2^n) and are a linear bijection of
    the rows, so the row with coordinates k in the basis P is the one whose
    code is the XOR of the c_p selected by k's binary digits: one argsort
    of the codes inverts them.
    """
    a, basis, codes = _subspace_basis(a)
    perm = np.argsort(codes)[_span(codes[basis])]
    # a is symmetric, so the transpose of a[perm] is a[:, perm], and its rows
    # in order perm are a[perm][:, perm]: both gathers run on packed bytes
    gathered = BitMatrix.from_packed(a.packed[perm], a.cols).transpose().packed[perm]
    dense = np.unpackbits(gathered, axis=1, count=a.cols, bitorder="little")
    half = a.rows // 2
    b, u = dense[:half, :half], dense[half, :half]
    if not np.array_equal(u, dense[half, half:]):
        raise AssertionError("coset vector halves differ on a symmetric input")
    if not (
        np.array_equal(dense[:half, half:], b ^ u[:, None])
        and np.array_equal(dense[half:, :half], b ^ u)
        and np.array_equal(dense[half:, half:], b ^ u ^ u[:, None])
    ):
        raise AssertionError("coset block identity violated")
    return perm, dense


def coset_decompose(a: BitMatrix | Graph) -> CosetDecomposition:
    """Reorder a subspace matrix into coset order and split off B and u.

    The basis is the rows that become pivots of gf2.echelon, that is the
    first-appearance basis (ascending row index, greedy independence).
    After conjugating by the computed permutation, row k equals the XOR of
    the basis rows selected by k's binary digits, and the matrix has the
    block form [B | B+U^T ; B+U | B+U+U^T] where every row of U is the
    coset vector u.  A Graph's adjacency was validated when the Graph was
    built; a bare BitMatrix is checked for symmetry and zero diagonal.
    """
    perm, dense = _coset_order(a)
    reordered = BitMatrix.from_bool_array(dense)
    half = reordered.rows // 2
    basis = [reordered.row(1 << i) for i in range(half.bit_length())]
    top_block = BitMatrix.from_bool_array(dense[:half, :half])
    u = reordered.row(half).slice(0, half)
    return CosetDecomposition(perm.tolist(), basis, reordered, top_block, u)


def decomposition_invariants(a: BitMatrix | Graph, *, codes: object = _UNTESTED) -> VerificationReport:
    """Run both decomposition levels and check every block-structure claim.

    The vectors are named as in the module docstring.  Every entry is read
    off the form F = A[P, P], held as n integers f[t] with entry (P_t, P_s)
    at bit s: reordered row k is the XOR of the basis rows selected by k's
    digits and A is symmetric, so reordered entry (k, l) is k^T F l.  A
    caller that ran subspace_codes(a) passes its result, None included.
    """
    report = VerificationReport()
    try:
        a, basis, _ = _subspace_basis(a, codes)
    except (NotSubspaceMatrixError, ValueError) as exc:
        report.add("preconditions", False, str(exc))
        return report
    report.add("preconditions", True, "symmetric zero-diagonal subspace matrix")
    n = len(basis)
    p = np.asarray(basis, dtype=np.intp)
    bits = (a.packed[np.ix_(p, p >> 3)] >> (p & 7)) & 1
    f = [int(r) for r in bits.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))]

    def entry(t: int, s: int) -> int:
        return f[t] >> s & 1

    def in_span(v: int, rows: list[int], width: int) -> bool:
        return rank_of_row_ints(rows + [v], width) == rank_of_row_ints(rows, width)

    # B is F on the first n - 1 coordinates and u is f[n - 1] on them; the
    # second half of row 2^(n-1) is u plus the constant F[n-1][n-1]
    report.add("u_equals_uhat", entry(n - 1, n - 1) == 0, "")
    report.add("block_identity", True, "reordered = [B | B+U^T ; B+U | B+U+U^T]")
    mask = (1 << (n - 1)) - 1
    b, u = [r & mask for r in f[: n - 1]], f[n - 1] & mask
    rank_b = rank_of_row_ints(b, n - 1)
    report.add("rank_top_block", rank_b == n - 2, f"rank(B) = {rank_b}, expected {n - 2}")
    u_in = in_span(u, b, n - 1)
    report.add("u_outside_top_block_rowspace", not u_in, "u is not a combination of rows of B")
    if n < 2:
        report.add("second_level", False, "needs rank >= 2")
        return report

    # C, w and x are F, f[n - 2] and f[n - 1] on the first n - 2
    # coordinates; s = w + F[n-2][n-1] and y = x + F[n-1][n-2] entrywise,
    # and each second-level identity adds the constant F[n-2][n-2]
    second_ok = entry(n - 2, n - 2) == 0
    report.add("second_level_block_identity", second_ok, "B = [C | C+W^T ; C+W | C+W+W^T]")
    report.add("s_equals_t", second_ok, "")
    rel = entry(n - 2, n - 1) == entry(n - 1, n - 2)
    report.add("w_s_x_y_relation", rel, "either (w=s and x=y) or (w=~s and x=~y)")
    mask >>= 1
    c, x, w = [r & mask for r in f[: n - 2]], f[n - 1] & mask, f[n - 2] & mask
    x_in, w_in = (in_span(v, c, n - 2) for v in (x, w))
    report.add(
        "x_w_membership_dichotomy",
        x_in == w_in,
        f"x in rowspace(C): {x_in}; w in rowspace(C): {w_in}",
    )
    if x_in or w_in or n < 4:
        skipped = "skipped: applies only when x and w both lie outside rowspace(C)"
        report.add("quarter_intersections", True, skipped)
        report.add("tiled_quarter_block", True, skipped)
        return report

    expected = 1 << (n - 4)
    # position i of C is in class 2 x_i + w_i, x_i = parity(x & i), w_i = parity(w & i)
    classes = _span([2 * (x >> t & 1) + (w >> t & 1) for t in range(n - 2)])
    sizes = np.bincount(classes, minlength=4).tolist()
    report.add(
        "quarter_intersections",
        all(sz == expected for sz in sizes),
        f"support intersection sizes {sizes}, expected {expected} each",
    )
    # the zero rows of C are its radical, and C[i ^ r][j ^ r'] = C[i][j] for r, r' in it:
    # ordering each class by i ^ r, r a zero row in the class, tiles C by its
    # quarter block, so the check passes iff every class holds a zero row
    zero = _span(c) == 0
    tiled = np.unique(classes[zero]).size == 4
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
    computed only for orders up to SPECTRUM_CAP.  One subspace_codes feeds
    the rank, the subspace check, the standard form and the decomposition.
    The pairwise, regularity and Hadamard checks read _standard_form on the
    codes when it finds them, else one _scan of G.
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
    twin_free, negation_free = _twin_and_negation_free(g)
    report.add("twin_free", twin_free, "all neighbourhood rows distinct")
    report.add("negation_free", negation_free, "no row is the complement of another")
    found = subspace_codes(g.adj)
    r = g.rank() if found is None else len(found[0])
    if n is not None:
        report.add("rank", r == n, f"rank {r}, expected {n}")
    else:
        report.add("rank", False, f"rank {r}, no expected value (order not a power of two)")
    report.add("rows_form_subspace", found is not None, "")
    k, scan = (_gram(g), None) if found is None else _standard_form(found[1])
    # the core drops the isolated vertices, which changes no co-degree
    core = np.flatnonzero(k.degrees)
    scan = _scan(k, core) if scan is None else scan
    isolated = order - core.size
    report.add("unique_isolated_vertex", isolated == 1, f"isolated vertices: {isolated}")

    report.add(
        "hadamard_signed_adjacency",
        scan.hadamard,
        "signed adjacency S satisfies S S^T = order * I",
    )
    bal = _balanced_rows_witness(k)
    report.add(
        "balanced_rows",
        bal is None,
        "" if bal is None else f"row {bal[0]} has {bal[1]} ones",
    )
    quart = _pairwise_quarters_witness(k, scan)
    report.add(
        "pairwise_intersection_quarters",
        quart is None,
        "" if quart is None else f"rows {quart[0]} and {quart[1]} break the order/4 pattern",
    )

    srg = _srg_parameters(k, core, scan) if core.size else None
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
    dev = _quasirandom_deviation(k, core, scan)
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

    decomp = decomposition_invariants(g, codes=found)
    report.extend(decomp, prefix="decomposition.")
    return FullVerification(report=report, rank=r, srg=srg, spectrum=spectrum)
