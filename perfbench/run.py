"""Benchmark of the f2rank command line on seeded, oracle-checked inputs.

Runs the ``f2rank`` commands in-process through ``f2rank.cli.main(argv)``
with stdout captured, as a closed loop with one client: the ops of one
cycle run back to back, and the next cycle starts when the last op of the
previous one has been checked.  Run it from the root of a checkout:

    python3 perfbench/run.py --workload certify-identify-64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

This process imports the program, sets the workload up (inputs, oracles,
warm-up) and times that; the measured loop runs in a fresh process
(``measure.py``), so that its memory high-water mark is not the oracles'.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  Detail lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Inputs, spans and a full result record go under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from collections import Counter
from statistics import median, quantiles
from time import perf_counter
from types import SimpleNamespace

from measure import log, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("certify-identify-64", "certify-1024", "bulk-4096", "sweep")
LAYERS = ("cli", "gf2", "graph", "products", "constructions", "spectral", "verify", "search")
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one client: BLAS gets one thread unless the caller pins another value
BLAS_DEFAULT = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def import_program():
    """Import f2rank from this checkout's src/; returns (package, modules, seconds)."""
    if not (SRC / "f2rank" / "__init__.py").is_file():
        raise ImportError(f"no f2rank package under {SRC}")
    for var in BLAS_VARS:
        os.environ.setdefault(var, BLAS_DEFAULT)
    t = perf_counter()
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("f2rank")
    modules = {name: importlib.import_module(f"f2rank.{name}") for name in LAYERS}
    seconds = perf_counter() - t
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"f2rank was imported from {package.__file__}, not {SRC}")
    return package, modules, seconds


# what a fresh process pays to load the program, timed from outside
IMPORT_PROGRAM = "import importlib, sys; sys.path.insert(0, sys.argv[1]); " \
    "[importlib.import_module('f2rank.' + m) for m in sys.argv[2:]]"


def set_up(wl, seed: int, work: Path, modules) -> list[float]:
    """Set the workload up SETUP_REPEATS times; returns each wall time.

    Each pass starts a fresh interpreter that imports the program, then
    writes the inputs, computes the oracles and runs the warm-up ops.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC), *LAYERS], check=True)
        # every set-up pays the sweep's first-call table build
        if hasattr(modules["search"], "_half_tables"):
            modules["search"]._half_tables = None
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl.setup(seed, work, modules)
        warm_up(wl, modules["cli"])
        times.append(perf_counter() - t)
    return times


def measure_in_child(wl, args, work: Path, spans_path: Path) -> dict:
    """Run the measured loop in a fresh process; returns its result record."""
    state, result = work / "state.pkl", work / "result.pkl"
    with open(state, "wb") as fh:
        pickle.dump({"workload": wl, "seconds": args.seconds, "trace": args.trace,
                     "spans_path": str(spans_path)}, fh)
    proc = subprocess.run([sys.executable, str(HERE / "measure.py"), str(state), str(result)],
                          stdout=sys.stderr, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the measuring process exited with {proc.returncode}")
    with open(result, "rb") as fh:
        return pickle.load(fh)


def tail(samples: list[float]) -> str:
    """The highest of p99 and p90 that has at least ten samples beyond it."""
    for q in (99, 90):
        if len(samples) * (100 - q) >= 1000:
            return f", p{q} {quantiles(samples, n=100)[q - 1]:.6g} s"
    return ""


def run_workload(args) -> int:
    try:
        package, modules, import_s = import_program()
    except ImportError as exc:
        log(f"error: cannot import the program: {exc}")
        return 2
    # after the program's import, which pins the BLAS threads before numpy loads
    import numpy as np
    from workloads import WORKLOADS

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env), flush=True)
    wl = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-seed{args.seed}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_times = set_up(wl, args.seed, work, modules)
        gc.collect()
        child = measure_in_child(wl, args, work, results / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    r = SimpleNamespace(**child["record"])
    for err in wl.setup_errors:
        log(f"set-up check failed: {err}")

    med = {k: median(v) for k, v in r.samples.items()}
    # one cycle with each op at its kind's median: the few inputs that take
    # far longer than the rest (some iso relabellings) do not decide it
    cycle_s = sum(n * med[k] for k, n in Counter(op.kind for op in wl.cycle(0)).items())
    setup_s = median(setup_times)
    rss = child["maxrss_kb"]
    named = {"setup_s": (setup_s, "s"), **wl.named_metrics(med)}
    # the known defect: verify verdicts that are untrue of a valid input
    named["failed_share"] = (r.false_verdicts / r.attempted, "failed/attempted")
    # measuring process plus its largest worker process, if it had any
    named["peak_rss_mb"] = ((rss["self"] + rss["children"]) / 1024, "MB")
    print(f"setup: import {import_s:.4f} s, set-up passes {[round(t, 4) for t in setup_times]} s")
    print(f"peak rss: measuring process {rss['self'] / 1024:.1f} MB, "
          f"largest worker {rss['children'] / 1024:.1f} MB")
    for kind in wl.kinds:
        v = r.samples[kind]
        print(f"samples {kind}: {len(v)}, median {med[kind]:.6g} s{tail(v)}")
    for name, (value, unit) in named.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"predicted_failed_share {r.predicted_failed / r.attempted:.6g} failed/attempted "
          f"(oracle-predicted false FAILs {r.predicted_failed} of {r.attempted} ops)")
    for check, count in sorted(r.failed_checks.items()):
        print(f"failed check {check}: {count}")

    known = "decomposition.tiled_quarter_block"
    record = {"env": env, "setup_times": setup_times, "import_s": import_s,
              "setup_errors": wl.setup_errors, "maxrss_kb": rss,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "samples": {k: v for k, v in r.samples.items()},
              "failed_checks": dict(r.failed_checks),
              "predicted_failed": r.predicted_failed,
              "cycle_s": r.cycle_s[False]}
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cycle_s": (cycle_s, "s"),
            "peak_rss_mb": named["peak_rss_mb"],
        }
    else:
        metrics = dict(child["layer"])
        metrics[f"verify.failed_checks.{known}"] = (r.failed_checks[known], "count")
        metrics["verify.failed_checks.other"] = (
            sum(c for k, c in r.failed_checks.items() if k != known), "count")
        untraced, traced = median(r.cycle_s[False]), median(r.cycle_s[True])
        metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "share")
        uncalled, labels = child["uncalled"], child["entry_labels"]
        record.update(uncalled=uncalled, entry_points=labels, missing_span_sites=child["missing"])
        print(f"traffic: {len(uncalled)} of {len(labels)} public entry points "
              f"not called: {' '.join(uncalled)}")
        if child["missing"]:
            print(f"span sites not found (metrics read 0): {'; '.join(child['missing'])}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": r.correct and not wl.setup_errors,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, with a combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    uncalled = None
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            log(f"error: workload {name} exited with {proc.returncode}")
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        if args.trace:
            rec = json.loads((WORK / "results" / f"{name}-seed{args.seed}-trace1.json").read_text())
            uncalled = set(rec["uncalled"]) if uncalled is None else uncalled & set(rec["uncalled"])
    if uncalled is not None:
        print(f"traffic: public entry points no workload calls: {' '.join(sorted(uncalled))}")
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
