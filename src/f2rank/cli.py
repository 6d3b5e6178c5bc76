"""Command-line front end: construct, verify, rank, spectrum, search, iso,
convert.

Exit codes: 0 = pass, 1 = checks failed, 2 = usage or parse error.  All
non-timing output is byte-deterministic for identical inputs and flags;
JSON keys appear in fixed declaration order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .gf2 import BitMatrix
from .graph import Graph, Graph6FormatError, from_graph6, to_graph6
from .constructions import (
    extremal_odd_plus_one,
    g2_power,
    linegraph_clique_plus_isolated,
)
from .search import (
    N3_SPAN,
    SweepWorkerError,
    n2_certificate,
    n3_exhaustive_certificate,
    n3_structured_certificate,
    isomorphic,
)
from .spectral import graph_spectrum
from .verify import SrgParams, full_report

SPECTRUM_VERTEX_CAP = 1024
# a power of two: g2pow m <= 7, odd n <= 13, linegraph-k k <= 181;
# construct g2pow 7 takes about 0.7-0.9 s and a 0.32 GB peak as f2mat,
# 0.6-0.7 s and 0.14 GB as graph6, on a 2-CPU Xeon
CONSTRUCT_ORDER_CAP = 1 << 14
_STDOUT_BYTES = 1 << 20  # output decoded and written to stdout at a time


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("F2RANK_THREADS", "1")))
    except ValueError:
        return 1


def _worker_count(text: str) -> int:
    """A --workers value: 0 (F2RANK_THREADS) or a positive count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 (F2RANK_THREADS) or more, got {value}")
    return value


def _load_graph(path: str) -> tuple[Graph, str]:
    # the bytes of what a text-mode read gives (ASCII, universal newlines),
    # so an f2mat file is parsed without a decoded copy
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("ascii")  # raises the error a text-mode read raises
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data.startswith(b"f2mat"):
        return Graph(BitMatrix.from_f2mat(data)), "f2mat"
    stripped = data.decode("ascii").strip()
    if "\n" in stripped or not stripped:
        raise Graph6FormatError(f"{path}: not f2mat and not a single graph6 line")
    return from_graph6(stripped), "graph6"


def _emit(data: bytes | bytearray, out: str | None):
    """Write ASCII output bytes to the file out, or to stdout decoded a
    block at a time, so that no second copy of the whole text is made."""
    if out is None:
        view = memoryview(data)
        for lo in range(0, len(view), _STDOUT_BYTES):
            sys.stdout.write(str(view[lo : lo + _STDOUT_BYTES], "ascii"))
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _render(g: Graph, fmt: str) -> bytes | bytearray:
    if fmt == "graph6":
        return (to_graph6(g) + "\n").encode("ascii")
    return g.adj.to_f2mat()


def _exceeds_order_cap(family: str, param: int) -> bool:
    """True when the member would have more than CONSTRUCT_ORDER_CAP
    vertices; computes no power of two above the cap."""
    if family == "linegraph-k":
        # C(k, 2) + 1 grows only from k = 1 on; a smaller k is the builder's to refuse
        return param > 1 and param * (param - 1) // 2 + 1 > CONSTRUCT_ORDER_CAP
    exponent = 2 * param if family == "g2pow" else param
    return exponent > CONSTRUCT_ORDER_CAP.bit_length() - 1


def cmd_construct(args) -> int:
    family = args.family
    if _exceeds_order_cap(family, args.param):
        print(
            f"error: --family {family} --param {args.param} exceeds the order cap {CONSTRUCT_ORDER_CAP}",
            file=sys.stderr,
        )
        return 2
    if family == "g2pow":
        g = g2_power(args.param)
    elif family == "linegraph-k":
        g = linegraph_clique_plus_isolated(args.param)
    else:
        g = extremal_odd_plus_one(args.param)
    _emit(_render(g, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    g, fmt = _load_graph(args.input)
    result = full_report(g, expect_n=args.expect_n)
    report = result.report
    if args.json:
        payload = {
            "input": {"order": g.order, "format": fmt},
            "checks": [c.to_json() for c in report.checks],
            "rank": result.rank,
            "srg": result.srg.as_list() if isinstance(result.srg, SrgParams) else None,
            "spectrum": result.spectrum.to_json() if result.spectrum else None,
            "pass": report.passed,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status:4}  {c.name}"
            if c.details:
                line += f"  ({c.details})"
            sys.stdout.write(line + "\n")
        sys.stdout.write(f"overall: {'PASS' if report.passed else 'FAIL'}\n")
    return 0 if report.passed else 1


def cmd_rank(args) -> int:
    g, _ = _load_graph(args.input)
    sys.stdout.write(f"{g.rank()}\n")
    return 0


def cmd_spectrum(args) -> int:
    g, _ = _load_graph(args.input)
    if g.order > SPECTRUM_VERTEX_CAP:
        print(
            f"error: spectrum supports at most {SPECTRUM_VERTEX_CAP} vertices, got {g.order}",
            file=sys.stderr,
        )
        return 2
    spec = graph_spectrum(g)
    sys.stdout.write(json.dumps(spec.to_json(), indent=2) + "\n")
    return 0


def cmd_search(args) -> int:
    workers = args.workers if args.workers else _default_workers()
    t0 = time.perf_counter()
    if args.mode == "n2-unique":
        cert = n2_certificate()
    elif args.mode == "n3-structured":
        cert = n3_structured_certificate()
    else:
        stop = args.stop if args.stop is not None else N3_SPAN
        cert = n3_exhaustive_certificate(workers=workers, start=args.start, stop=stop)
    cert["elapsed_ms"] = int(round((time.perf_counter() - t0) * 1000))
    sys.stdout.write(json.dumps(cert, indent=2) + "\n")
    return 0 if cert["pass"] else 1


def cmd_iso(args) -> int:
    g, _ = _load_graph(args.first)
    h, _ = _load_graph(args.second)
    ok, witness = isomorphic(g, h)
    sys.stdout.write(
        json.dumps({"isomorphic": ok, "witness": witness}, indent=2) + "\n"
    )
    return 0 if ok else 1


def cmd_convert(args) -> int:
    g, _ = _load_graph(args.input)
    _emit(_render(g, args.format), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one 'error:' line and exits 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="f2rank",
        description="Exact toolkit for twin-free graphs of minimal GF(2)-rank",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a graph family member")
    p.add_argument("--family", required=True, choices=["g2pow", "linegraph-k", "odd"])
    p.add_argument("--param", required=True, type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="f2mat", choices=["f2mat", "graph6"])
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run every claim check on a graph file")
    p.add_argument("input")
    p.add_argument("--expect-n", type=int, default=None, dest="expect_n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rank", help="GF(2) rank of the adjacency matrix")
    p.add_argument("input")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("spectrum", help="eigenvalues with multiplicities (JSON)")
    p.add_argument("input")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("search", help="run an exhaustive certification sweep")
    p.add_argument(
        "--mode", required=True, choices=["n2-unique", "n3-structured", "n3-exhaustive"]
    )
    p.add_argument("--workers", type=_worker_count, default=0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--stop", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("iso", help="isomorphism test with witness")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("convert", help="convert between f2mat and graph6")
    p.add_argument("input")
    p.add_argument("out", nargs="?", default=None)
    p.add_argument("--format", required=True, choices=["f2mat", "graph6"])
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, SweepWorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
