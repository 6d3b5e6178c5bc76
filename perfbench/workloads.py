"""The workloads: seeded inputs, the ops of one cycle, and output checks.

Every input comes from the workload seed and is written as a file; the
program sees only those files and its command line.  Each op carries a
check that compares the op's output with what ``oracles`` computed during
set-up.  A check returns ``(as_expected, wrong_checks)``: whether the
output is right, and which ``verify`` check verdicts contradict what is
mathematically true of the input.  An op fails, and the run is incorrect,
when its output is not right; an untrue verdict on a right output is the
known defect and is counted on its own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

SWEEP_CHUNK = 1 << 22  # the sweep's fixed partition size
SWEEP_SLICE = 1 << 24
N3_SPAN = 1 << 28


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[int | None, str], tuple[bool, list[str]]]
    outputs: list[Path] = field(default_factory=list)  # removed before the op runs


def _write(path: Path, text: str) -> Path:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except OSError:
        return None


def check_file(path: Path, digest: str, rc, out) -> tuple[bool, list[str]]:
    """The op wrote exactly the expected bytes (compared by SHA-256) and printed nothing."""
    return rc == 0 and out == "" and _file_digest(path) == digest, []


def check_rc(rc, out) -> tuple[bool, list[str]]:
    return rc == 0, []


def check_ran(rc, out) -> tuple[bool, list[str]]:
    """For warm-up only: the command finished with a verdict, PASS or FAIL."""
    return rc in (0, 1), []


def check_stdout(expected: str, rc, out) -> tuple[bool, list[str]]:
    return rc == 0 and out == expected, []


class Workload:
    """One workload: ``setup`` writes seeded inputs, computes oracles and
    checks what it can of the program outside the loop; ``cycle(i)`` lists
    the ops of cycle i, ``warmup`` the untimed first calls."""

    name: str
    kinds: tuple[str, ...]

    def __init__(self):
        self.setup_errors: list[str] = []  # program outputs found wrong during set-up

    def predicted_failures(self, i: int) -> int:
        """Ops of cycle i that the oracle predicts to fail (the known defect)."""
        return 0

    def named_metrics(self, med: dict) -> dict:
        """Per-op-kind medians under their reported names, as (value, unit)."""
        return {k + "_s": (med[k], "s") for k in self.kinds}


# ---------------------------------------------------------------------------
# certify-identify-64, certify-1024: the paper's certify-then-identify flow
# ---------------------------------------------------------------------------


@dataclass
class VerifyCase:
    path: Path
    predicted: dict  # oracles.verify_report
    family: bool  # a relabelled 4^m member: every check is true of it


def _spectrum_ok(got, expected) -> bool:
    if expected is None:
        return got is None
    return got is not None and len(got) == len(expected) and all(
        abs(g["value"] - v) <= 1e-8 and g["multiplicity"] == m
        for g, (v, m) in zip(got, expected)
    )


def check_verify(case: VerifyCase, rc, out) -> tuple[bool, list[str]]:
    try:
        js = json.loads(out)
        got = [(c["name"], c["pass"]) for c in js["checks"]]
    except (ValueError, KeyError, TypeError):
        return False, []
    p = case.predicted
    if case.family:
        # Judged by the family theory: every check holds, rank 2m and SRG
        # (N-1, N/2, N/4, N/4).  The decomposition.* verdicts depend on the
        # basis the program picks, so either verdict is a right output there;
        # a FAIL there is still counted, through ``wrong``.
        truth = oracles.family_truth((p["order"].bit_length() - 1) // 2)
        verdict = all(ok for _, ok in got)
        right = (
            [n for n, _ in got] == [n for n, _ in p["checks"]]
            and all(ok for n, ok in got if not n.startswith("decomposition."))
            and js.get("rank") == truth["rank"]
            and js.get("srg") == truth["srg"]
            and js.get("pass") == verdict
            and rc == (0 if verdict else 1)
        )
        wrong = [name for name, ok in got if not ok]
    else:
        right = (
            got == p["checks"]
            and js.get("rank") == p["rank"]
            and js.get("srg") == p["srg"]
            and js.get("pass") == p["pass"]
            and rc == (0 if p["pass"] else 1)
        )
        truth = dict(p["checks"])
        wrong = [name for name, ok in got if truth.get(name) != ok]
    right = (
        right
        and js.get("input") == {"order": p["order"], "format": "f2mat"}
        and _spectrum_ok(js.get("spectrum"), p["spectrum"])
    )
    return right, wrong


def check_iso(first: np.ndarray, second: np.ndarray, rc, out) -> tuple[bool, list[str]]:
    try:
        js = json.loads(out)
    except ValueError:
        return False, []
    return rc == 0 and js.get("isomorphic") is True and oracles.is_witness(first, second, js.get("witness")), []


def _verify_case(work: Path, name: str, arr: np.ndarray, family: bool) -> VerifyCase:
    case = VerifyCase(_write(work / f"{name}.f2m", oracles.f2mat_text(arr)),
                      oracles.verify_report(arr), family)
    if family:
        # The copied basis may only disagree with the theory on the basis-
        # dependent decomposition checks: that is the known false-FAIL defect.
        truth = oracles.family_truth((arr.shape[0].bit_length() - 1) // 2)
        p = case.predicted
        off = [n for n, ok in p["checks"] if not ok and not n.startswith("decomposition.")]
        if off or p["rank"] != truth["rank"] or p["srg"] != truth["srg"]:
            raise RuntimeError(f"oracle contradicts the family theory on {name}: {off}")
    return case


def _verify_op(kind: str, case: VerifyCase) -> Op:
    return Op(kind, ["verify", str(case.path), "--json"], partial(check_verify, case))


class _Verify(Workload):
    """``verify --json`` on a seeded pool of inputs per op kind; cycle i runs
    one op of each pool, on entry i mod pool size."""

    pools: dict  # kind -> (pool size, input maker, relabelled family member?)
    stream: int  # the workload's own random stream under the seed

    def setup(self, seed: int, work: Path, modules):
        rng = np.random.default_rng([seed, self.stream])
        self.cases = {
            kind: [_verify_case(work, f"{kind}-{k}", make(rng), family) for k in range(size)]
            for kind, (size, make, family) in self.pools.items()
        }
        self.warm = _write(work / "g2pow2.f2m", oracles.f2mat_text(oracles.parity_power(2)))

    def _cases(self, i: int) -> list[tuple[str, VerifyCase]]:
        return [(kind, cases[i % len(cases)]) for kind, cases in self.cases.items()]

    def cycle(self, i: int) -> list[Op]:
        return [_verify_op(kind, case) for kind, case in self._cases(i)]

    def warmup(self) -> list[Op]:
        return [Op("warmup", ["verify", str(self.warm), "--json"], check_ran)]

    def predicted_failures(self, i: int) -> int:
        """The oracle's count of false FAILs, from the basis the program documents."""
        return sum(case.family and not case.predicted["pass"] for _, case in self._cases(i))


def _member(m: int):
    return lambda rng: oracles.relabel(oracles.parity_power(m), rng)


class CertifyIdentify64(_Verify):
    """Certify a relabelled order-64 member, then identify relabelled members
    with the constructed one: the paper's user flow.  The Jacobi spectrum
    and the iso search each take a large share of a cycle, so a regression
    in either shows in ``cycle_s``."""

    name = "certify-identify-64"
    kinds = ("verify_o64", "iso_o64")
    stream = 1
    pools = {"verify_o64": (8, _member(3), True)}
    ISO_POOL = 64  # every iso input runs in every cycle

    def setup(self, seed: int, work: Path, modules):
        super().setup(seed, work, modules)
        rng = np.random.default_rng([seed, 5])
        self.family = oracles.parity_power(3)
        self.family_path = _write(work / "g2pow3.f2m", oracles.f2mat_text(self.family))
        self.members = []
        for k in range(self.ISO_POOL):
            arr = oracles.relabel(self.family, rng)
            self.members.append((arr, _write(work / f"o64-{k}.f2m", oracles.f2mat_text(arr))))

    def cycle(self, i: int) -> list[Op]:
        fam = str(self.family_path)
        return super().cycle(i) + [
            Op("iso_o64", ["iso", str(path), fam], partial(check_iso, arr, self.family))
            for arr, path in self.members
        ]

    def warmup(self) -> list[Op]:
        path = str(self.family_path)
        return super().warmup() + [Op("warmup", ["iso", path, path], check_rc)]


class Certify1024(_Verify):
    """Certify order-1024 members (spectrum skipped) and G(1024, 1/2) graphs."""

    name = "certify-1024"
    kinds = ("verify_o1024", "verify_rand1024")
    stream = 4
    pools = {
        "verify_o1024": (4, _member(5), True),
        "verify_rand1024": (2, lambda rng: oracles.random_graph(1024, rng), False),
    }


# ---------------------------------------------------------------------------
# bulk-4096
# ---------------------------------------------------------------------------


class Bulk4096(Workload):
    """Bulk GF(2) work and file I/O at order 4096."""

    name = "bulk-4096"
    kinds = ("construct_o4096", "convert_g6_o4096", "convert_f2m_o4096", "rank_rand4096")

    def setup(self, seed: int, work: Path, modules):
        rng = np.random.default_rng([seed, 2])
        member = oracles.parity_power(6)
        f2mat = oracles.f2mat_text(member)
        graph6 = oracles.graph6_text(member) + "\n"
        if not np.array_equal(oracles.graph6_decode(graph6), member):
            raise RuntimeError("graph6 oracle does not round-trip")
        self.member_f2m = _write(work / "g2pow6.f2m", f2mat)
        self.member_g6 = _write(work / "g2pow6.g6", graph6)
        # digests only, so that the measuring process does not hold the texts
        self.f2mat, self.graph6 = _digest(f2mat.encode()), _digest(graph6.encode())
        rand = oracles.random_graph(4096, rng)
        self.rand_path = _write(work / "rand4096.f2m", oracles.f2mat_text(rand))
        self.rand_rank = oracles.gf2_rank(rand)
        self.out = {k: work / f"out-{k}" for k in self.kinds}

    def cycle(self, i: int) -> list[Op]:
        out = self.out
        return [
            Op("construct_o4096",
               ["construct", "--family", "g2pow", "--param", "6", "--out", str(out["construct_o4096"])],
               partial(check_file, out["construct_o4096"], self.f2mat), [out["construct_o4096"]]),
            Op("convert_g6_o4096",
               ["convert", str(self.member_f2m), str(out["convert_g6_o4096"]), "--format", "graph6"],
               partial(check_file, out["convert_g6_o4096"], self.graph6), [out["convert_g6_o4096"]]),
            Op("convert_f2m_o4096",
               ["convert", str(self.member_g6), str(out["convert_f2m_o4096"]), "--format", "f2mat"],
               partial(check_file, out["convert_f2m_o4096"], self.f2mat), [out["convert_f2m_o4096"]]),
            Op("rank_rand4096", ["rank", str(self.rand_path)],
               partial(check_stdout, f"{self.rand_rank}\n")),
        ]

    def warmup(self) -> list[Op]:
        return [Op("warmup", ["construct", "--family", "g2pow", "--param", "2"], check_rc)]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def check_sweep(expected: dict, rc, out) -> tuple[bool, list[str]]:
    try:
        js = json.loads(out)
    except ValueError:
        return False, []
    js.pop("elapsed_ms", None)
    return rc == 0 and js == expected, []


class Sweep(Workload):
    """The vectorized order-8 sweep kernel, in-process and over a 2-worker pool."""

    name = "sweep"
    kinds = ("sweep_w1", "sweep_w2")
    KERNEL_SAMPLES = 1024

    def setup(self, seed: int, work: Path, modules):
        rng = np.random.default_rng([seed, 3])
        start = int(rng.integers(0, (N3_SPAN - SWEEP_SLICE) // SWEEP_CHUNK + 1)) * SWEEP_CHUNK
        self.bounds = (start, start + SWEEP_SLICE)
        # alternating forms have even rank, so no candidate has rank 3
        self.expected = {
            "mode": "n3-exhaustive",
            "candidates_examined": SWEEP_SLICE,
            "violations": [],
            "stats": {"rank3_total": 0, "rank3_with_duplicate_rows": 0, "subspace_matrices": 0},
            "pass": True,
        }
        # The output above is the same for any even rank the kernel returns,
        # so the kernel's ranks are checked directly on a sample of the slice
        # and on the low counters, whose matrices have ranks 0, 2 and 4.
        counters = np.concatenate([
            np.arange(64, dtype=np.uint64),
            rng.integers(*self.bounds, size=self.KERNEL_SAMPLES, dtype=np.uint64),
        ])
        self.setup_errors = self._kernel_mismatches(modules["search"], counters)

    @staticmethod
    def _kernel_mismatches(search, counters: np.ndarray) -> list[str]:
        if not all(hasattr(search, n) for n in ("_counter_half_tables", "_packed_rank")):
            print("kernel check skipped: search has no _counter_half_tables or _packed_rank")
            return []
        lo, hi = search._counter_half_tables()
        packed = lo[(counters & np.uint64(0x3FFF)).astype(np.intp)] | hi[
            (counters >> np.uint64(14)).astype(np.intp)]
        got = search._packed_rank(packed).tolist()
        bad = []
        for counter, word, rank in zip(counters.tolist(), packed.tolist(), got):
            arr = oracles.unpack8(word)
            if not (np.array_equal(arr, arr.T) and not arr.diagonal().any()):
                bad.append(f"counter {counter} packs to a matrix that is not alternating")
            elif rank != oracles.gf2_rank(arr):
                bad.append(f"_packed_rank gives {rank} at counter {counter}, "
                           f"elimination gives {oracles.gf2_rank(arr)}")
        return bad

    def cycle(self, i: int) -> list[Op]:
        start, stop = (str(b) for b in self.bounds)
        return [
            Op(f"sweep_w{w}",
               ["search", "--mode", "n3-exhaustive", "--workers", str(w), "--start", start, "--stop", stop],
               partial(check_sweep, self.expected))
            for w in (1, 2)
        ]

    def warmup(self) -> list[Op]:
        # builds the sweep's counter tables, a first-call cost
        start = self.bounds[0]
        argv = ["search", "--mode", "n3-exhaustive", "--workers", "1",
                "--start", str(start), "--stop", str(start + 4096)]
        return [Op("warmup", argv, check_rc)]

    def named_metrics(self, med: dict) -> dict:
        return {
            f"{k}_mcand_per_s": (SWEEP_SLICE / med[k] / 1e6, "Mcand/s") for k in self.kinds
        }


WORKLOADS = {w.name: w for w in (CertifyIdentify64, Certify1024, Bulk4096, Sweep)}
