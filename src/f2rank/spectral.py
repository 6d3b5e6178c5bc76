"""Exact Hadamard check and spectra of symmetric matrices.

The Hadamard test is pure integer arithmetic.  Spectra are the only
inexact results in the package: LAPACK's symmetric eigensolver
(``np.linalg.eigvalsh``) on a float64 copy, with eigenvalues clustered
into multiplicities afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .products import SignMatrix


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, sorted by descending eigenvalue."""

    entries: tuple[tuple[float, int], ...]

    @classmethod
    def from_pairs(cls, pairs) -> Spectrum:
        ordered = tuple(sorted(((float(v), int(m)) for v, m in pairs), reverse=True))
        return cls(ordered)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def weighted_sum(self) -> float:
        return sum(v * m for v, m in self.entries)

    def to_json(self) -> list[dict]:
        return [{"value": v, "multiplicity": m} for v, m in self.entries]

    def matches(self, other: Spectrum, tol: float = 1e-8) -> bool:
        """Entrywise match: values within tol, multiplicities exact."""
        if len(self.entries) != len(other.entries):
            return False
        return all(
            abs(v1 - v2) <= tol and m1 == m2
            for (v1, m1), (v2, m2) in zip(self.entries, other.entries)
        )


def is_hadamard(s: SignMatrix) -> bool:
    """True iff s is square and s @ s.T equals n*I, in exact integers."""
    if s.rows != s.cols:
        return False
    n = s.rows
    gram = s.array @ s.array.T
    return np.array_equal(gram, n * np.eye(n, dtype=np.int64))


def _cluster(values: np.ndarray, group_tol: float) -> Spectrum:
    # a value joins the current group while it stays within group_tol of
    # the value that opened the group; the reported value is the group mean
    buckets: list[list[float]] = []
    for v in sorted(values.tolist(), reverse=True):
        if buckets and abs(v - buckets[-1][0]) <= group_tol:
            buckets[-1].append(v)
        else:
            buckets.append([v])
    return Spectrum.from_pairs((sum(b) / len(b), len(b)) for b in buckets)


def symmetric_spectrum(m: np.ndarray) -> Spectrum:
    """Spectrum of a real symmetric matrix.

    Eigenvalues are grouped into one entry while they stay within 1e-6
    times max(1, infinity norm) of the value that opened the current group.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("expected a symmetric matrix")
    inf_norm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    return _cluster(np.linalg.eigvalsh(a), 1e-6 * max(1.0, inf_norm))


def graph_spectrum(g: Graph) -> Spectrum:
    return symmetric_spectrum(g.adj.to_bool_array())


def analytic_spectrum(m: int) -> Spectrum:
    """Closed-form spectrum of the order-4^m extremal graph.

    With N = 4^m the eigenvalues are N/2 and 0 (once each) and +/-sqrt(N)/2;
    the multiplicities of the latter pair are forced by trace zero:
    (N-sqrt(N))/2 - 1 for the positive one, (N+sqrt(N))/2 - 1 for the
    negative one.  Entries whose multiplicity vanishes (only m=1) are
    omitted.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n_big = 4**m
    root = 2**m
    pairs = [
        (n_big / 2, 1),
        (root / 2, (n_big - root) // 2 - 1),
        (0.0, 1),
        (-root / 2, (n_big + root) // 2 - 1),
    ]
    return Spectrum.from_pairs((v, mult) for v, mult in pairs if mult > 0)


def sign_spectrum_expected(m: int) -> Spectrum:
    """Spectrum of the signed adjacency: +/-sqrt(N) with trace-N multiplicities."""
    n_big = 4**m
    root = 2**m
    return Spectrum.from_pairs(
        [(float(root), (n_big + root) // 2), (float(-root), (n_big - root) // 2)]
    )
