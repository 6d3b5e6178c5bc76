"""The measured loop, run in a fresh process of its own.

``run.py`` sets a workload up (inputs, oracles, warm-up) and pickles it;
this process imports the program, loads that state, repeats the warm-up
once without timing it and then runs the closed loop.  Keeping set-up and
the oracles out of this process makes its high-water RSS the program's,
plus what the benchmark needs to check outputs.

    python3 perfbench/measure.py <state.pkl> <result.pkl>
"""

from __future__ import annotations

import contextlib
import gc
import io
import pickle
import resource
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def run_op(cli, op):
    """Run one CLI op; returns (wall seconds, exit code or None, stdout, stderr)."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    rc = None
    t = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except (Exception, SystemExit):
        err.write(traceback.format_exc())
    return perf_counter() - t, rc, out.getvalue(), err.getvalue()


def warm_up(wl, cli):
    for op in wl.warmup():
        _, rc, out, err = run_op(cli, op)
        if not op.check(rc, out)[0]:
            raise RuntimeError(f"warm-up {op.argv} failed: {err.strip()}")


@dataclass
class RunRecord:
    attempted: int = 0
    failed: int = 0  # ops whose output is wrong
    false_verdicts: int = 0  # ops with a right output but a check verdict that is untrue
    correct: bool = True
    predicted_failed: int = 0
    failed_checks: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=lambda: defaultdict(list))  # kind -> untraced op walls
    cycle_s: dict = field(default_factory=lambda: {False: [], True: []})  # traced? -> cycle sums
    traced_cycles: list = field(default_factory=list)
    op_info: dict = field(default_factory=dict)  # op id -> (cycle, kind)
    op_walls: dict = field(default_factory=dict)  # op id -> wall seconds


def measure(wl, cli, seconds: int, tracer) -> RunRecord:
    """Run whole cycles until the next one would end past ``seconds``.

    With a tracer, odd cycles are traced and even ones are not, so both
    see the same conditions and their difference is the tracing overhead.
    """
    r = RunRecord()
    walls: list[float] = []
    start = perf_counter()
    i = 0
    while i < (2 if tracer else 1) or perf_counter() - start + median(walls) <= seconds:
        c0 = perf_counter()
        traced = tracer is not None and i % 2 == 1
        ops = wl.cycle(i)
        ids = [f"{i}.{k}.{op.kind}" for k, op in enumerate(ops)]
        results = []
        if traced:
            r.traced_cycles.append(i)
            tracer.install()
        try:
            for op, op_id in zip(ops, ids):
                r.op_info[op_id] = (i, op.kind)
                if tracer is not None:
                    tracer.op = op_id
                results.append(run_op(cli, op))
        finally:
            if traced:
                tracer.restore()
        for op, op_id, (wall, rc, out, err) in zip(ops, ids, results):
            ok, wrong = op.check(rc, out)
            r.attempted += 1
            r.failed += not ok
            r.false_verdicts += ok and bool(wrong)
            r.failed_checks.update(wrong)
            if not ok:
                r.correct = False
                log(f"unexpected output from {op.argv} (exit {rc}): {err.strip()[-2000:]}")
            r.op_walls[op_id] = wall
            if not traced:
                r.samples[op.kind].append(wall)
        r.cycle_s[traced].append(sum(res[0] for res in results))
        r.predicted_failed += wl.predicted_failures(i)
        walls.append(perf_counter() - c0)
        i += 1
    return r


def main(state_path: str, result_path: str) -> int:
    from run import import_program
    from tracing import Tracer, layer_metrics

    package, modules, _ = import_program()
    with open(state_path, "rb") as fh:
        state = pickle.load(fh)
    wl = state["workload"]
    tracer = Tracer(modules, package) if state["trace"] else None
    warm_up(wl, modules["cli"])
    gc.collect()
    r = measure(wl, modules["cli"], state["seconds"], tracer)
    result = {"record": vars(r), "layer": None}
    if tracer is not None:
        result.update(
            layer=layer_metrics(tracer, r.op_info, r.traced_cycles, r.op_walls),
            uncalled=tracer.uncalled(),
            entry_labels=tracer.entry_labels(),
            missing=tracer.missing,
        )
        tracer.write(Path(state["spans_path"]))
    # the program's worker pools are joined by now, so they count as children
    result["maxrss_kb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
