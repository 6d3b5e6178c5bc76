"""Command-line front end: construct, verify, rank, spectrum, search, iso,
convert, bench.

Exit codes: 0 = pass, 1 = checks failed, 2 = usage or parse error.  All
non-timing output is byte-deterministic for identical inputs and flags;
JSON keys appear in fixed declaration order.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

from .gf2 import BitMatrix, F2MatFormatError, rank as matrix_rank
from .graph import Graph, Graph6FormatError, from_graph6, to_graph6
from .constructions import (
    extremal_odd_plus_one,
    g2_power,
    linegraph_clique_plus_isolated,
)
from .search import (
    N3_SPAN,
    n2_certificate,
    n3_exhaustive_certificate,
    n3_structured_certificate,
    isomorphic,
)
from .spectral import graph_spectrum
from .verify import SrgParams, full_report

SPECTRUM_VERTEX_CAP = 1024


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("F2RANK_THREADS", "1")))
    except ValueError:
        return 1


def _load_graph(path: str) -> tuple[Graph, str]:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if text.startswith("f2mat"):
        return Graph(BitMatrix.from_f2mat(text)), "f2mat"
    stripped = text.strip()
    if "\n" in stripped or not stripped:
        raise Graph6FormatError(f"{path}: not f2mat and not a single graph6 line")
    return from_graph6(stripped), "graph6"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _render(g: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return to_graph6(g) + "\n"
    return g.adj.to_f2mat()


def cmd_construct(args) -> int:
    family = args.family
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


def cmd_bench(args) -> int:
    if args.op != "rank":
        print(f"error: unknown bench op {args.op!r}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    times = []
    for _ in range(args.reps):
        rows = [rng.getrandbits(args.size) for _ in range(args.size)]
        m = BitMatrix(args.size, args.size, rows)
        t0 = time.perf_counter()
        r = matrix_rank(m)
        times.append(time.perf_counter() - t0)
    median = statistics.median(times)
    cells = args.size * args.size
    sys.stdout.write(
        f"rank size={args.size} reps={args.reps} last_rank={r} "
        f"median={median:.6f}s throughput={cells / median / 1e6:.1f} Mcell/s\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--workers", type=int, default=0)
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

    p = sub.add_parser("bench", help="time an operation on random inputs")
    p.add_argument("--op", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (F2MatFormatError, Graph6FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
