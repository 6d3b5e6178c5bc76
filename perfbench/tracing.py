"""Spans and call counts around the calls into f2rank, installed from outside.

The tracer replaces module and class attributes of the package with thin
wrappers and puts the originals back afterwards; nothing under ``src/`` is
edited.  A span wraps a call as its caller looks it up (``cli.full_report``
is the name ``cmd_verify`` calls), so each site below names the namespace
the call goes through.  Spans are kept in memory and written out at the end
of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter


def span_sites(m) -> dict[str, list[tuple[object, str]]]:
    """Span name -> the (namespace, attribute) pairs its calls go through.

    ``m`` maps short module names (``cli``, ``gf2``, ...) to the modules.
    """
    return {
        "cli.load_graph": [(m["cli"], "_load_graph")],
        "gf2.from_f2mat": [(m["gf2"].BitMatrix, "from_f2mat")],
        "gf2.to_f2mat": [(m["gf2"].BitMatrix, "to_f2mat")],
        "graph.validate": [(m["graph"].Graph, "__init__")],
        "graph.to_graph6": [(m["cli"], "to_graph6")],
        "graph.from_graph6": [(m["cli"], "from_graph6")],
        "constructions.g2_power": [(m["cli"], "g2_power")],
        "products.parity_product": [(m["products"], "parity_product")],
        "products.sign_map": [(m["verify"], "sign_map")],
        "verify.full_report": [(m["cli"], "full_report")],
        "verify.balanced_rows": [(m["verify"], "_balanced_rows_witness")],
        "verify.pairwise_quarters": [(m["verify"], "_pairwise_quarters_witness")],
        "verify.srg_parameters": [(m["verify"], "srg_parameters")],
        "verify.quasirandom_deviation": [(m["verify"], "quasirandom_deviation")],
        "verify.decomposition_invariants": [(m["verify"], "decomposition_invariants")],
        "gf2.rows_form_subspace": [(m["verify"], "rows_form_subspace")],
        "spectral.graph_spectrum": [(m["verify"], "graph_spectrum")],
        "spectral.is_hadamard": [(m["verify"], "is_hadamard")],
        # every call site of the one elimination routine
        "gf2.rank": [(m[k], "rank_of_row_ints") for k in ("gf2", "graph", "verify", "search")],
        "search.isomorphic": [(m["cli"], "isomorphic")],
        "search.refine_colors": [(m["search"], "_refine_colors")],
        "search.sweep_range": [(m["search"], "sweep_range")],
    }


# attributes recorded on a span from the call's arguments
SPAN_ATTRS = {
    "gf2.rank": lambda row_ints, cols: {"rows": len(row_ints)},
    "search.sweep_range": lambda start, stop: {"candidates": stop - start},
}


def _rewrap(orig, make):
    """Apply make() to the function inside a class-level descriptor or plain function."""
    if isinstance(orig, (classmethod, staticmethod)):
        return type(orig)(make(orig.__func__))
    if isinstance(orig, property):
        return property(make(orig.fget), orig.fset, orig.fdel, orig.__doc__)
    return make(orig)


def _rank_label(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "gauss")
    return f"gf2.rank(method={method})"


class Tracer:
    """Installs span and call-count wrappers; ``restore`` removes them all."""

    def __init__(self, modules: dict, package):
        self.modules = modules
        self.package = package
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.entry_points = self._entry_points()
        # span sites a refactor has removed: their layer metrics read 0
        self.missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
                        for name, sites in span_sites(modules).items()
                        for owner, attr in sites if attr not in vars(owner)]

    # -- public entry points (traffic record) --------------------------------

    def _entry_points(self) -> dict[str, tuple]:
        """Label -> (owner, attr) for each public function and public method."""
        out: dict[str, tuple] = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out[f"{short}.{name}"] = (mod, name)
                elif inspect.isclass(obj):
                    for attr, val in vars(obj).items():
                        if not attr.startswith("_") and (
                            inspect.isfunction(val)
                            or isinstance(val, (classmethod, staticmethod, property))
                        ):
                            out[f"{short}.{name}.{attr}"] = (obj, attr)
        return out

    def entry_labels(self) -> list[str]:
        labels = [k for k in self.entry_points if k != "gf2.rank"]
        return sorted(labels + ["gf2.rank(method=gauss)", "gf2.rank(method=m4r)"])

    def uncalled(self) -> list[str]:
        return [k for k in self.entry_labels() if self.calls[k] == 0]

    def _counting(self, label, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[_rank_label(args, kwargs) if label == "gf2.rank" else label] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _spanning(self, name, fn):
        tracer = self
        attrs = SPAN_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(tracer.spans), "name": name, "op": tracer.op,
                   "parent": tracer._stack[-1] if tracer._stack else None}
            if attrs is not None:
                rec.update(attrs(*args, **kwargs))
            tracer.spans.append(rec)
            tracer._stack.append(rec["id"])
            rec["start"] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                tracer._stack.pop()

        return wrapper

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        namespaces = [self.package, *self.modules.values()]
        for label, (owner, attr) in self.entry_points.items():
            orig = vars(owner)[attr]
            if inspect.isclass(owner):
                self._patch(owner, attr, _rewrap(orig, functools.partial(self._counting, label)))
                continue
            # a module function: every namespace that imported it must count
            wrapped = self._counting(label, orig)
            for ns in namespaces:
                for name, val in list(vars(ns).items()):
                    if val is orig:
                        self._patch(ns, name, wrapped)
        for name, sites in span_sites(self.modules).items():
            for owner, attr in sites:
                if attr in vars(owner):
                    self._patch(owner, attr, _rewrap(vars(owner)[attr], functools.partial(self._spanning, name)))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[dict]:
        """Spans with ``self`` = duration minus the time covered by direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [dict(s, self=s["end"] - s["start"] - child[s["id"]]) for s in self.spans]

    def write(self, path: Path):
        with open(path, "w", encoding="ascii") as fh:
            for s in self.self_times():
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tracer: Tracer, op_info: dict, traced_cycles: list[int], op_walls: dict) -> dict:
    """Per-layer ``name -> (value, unit)``, each the median over traced cycles.

    ``op_info`` maps op id -> (cycle, kind); ``op_walls`` maps op id -> wall seconds.
    """
    per_cycle: dict[int, Counter] = {c: Counter() for c in traced_cycles}
    for s in tracer.self_times():
        cycle, kind = op_info[s["op"]]
        acc = per_cycle[cycle]
        acc[s["name"] + "_s"] += s["self"]
        acc[s["name"] + "_calls"] += 1
        acc[s["name"] + "_rows"] += s.get("rows", 0)
        if s["name"] == "search.sweep_range" and kind == "sweep_w1":
            acc["w1_candidates"] += s["candidates"]
            acc["w1_kernel_s"] += s["end"] - s["start"]
    for op, wall in op_walls.items():
        cycle, kind = op_info[op]
        if kind == "sweep_w2" and cycle in per_cycle:
            per_cycle[cycle]["w2_wall_s"] += wall

    def med(fn):
        return median(fn(per_cycle[c]) for c in traced_cycles)

    def ratio(a, b):
        return lambda acc: acc[a] / acc[b] if acc[b] else 0.0

    out = {}
    for name in span_sites(tracer.modules):
        key = "verify.full_report_self_s" if name == "verify.full_report" else name + "_s"
        out[key] = (med(lambda acc, n=name: acc[n + "_s"]), "s")
    out["gf2.rank_rows"] = (med(lambda acc: acc["gf2.rank_rows"]), "count")
    out["products.parity_product_calls"] = (med(lambda acc: acc["products.parity_product_calls"]), "count")
    out["search.sweep_kernel_mcand_per_s"] = (med(ratio("w1_candidates", "w1_kernel_s")) / 1e6, "Mcand/s")
    # 1-worker kernel time / (2 workers x 2-worker wall time)
    out["search.sweep_w2_efficiency"] = (med(ratio("w1_kernel_s", "w2_wall_s")) / 2, "ratio")
    return out
