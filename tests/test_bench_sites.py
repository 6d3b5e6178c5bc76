"""The benchmark's tracer wraps program functions by name (span_sites in
perfbench/tracing.py); a site whose name is gone reads 0 in every
per-layer metric it feeds.  This test resolves every site against the
package, so a rename or a deleted import shows here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# sites that name functions verify no longer imports; their metrics read 0
# until the tracer points them at the code that now does the work
KNOWN_UNRESOLVED = {
    "products.sign_map: f2rank.verify.sign_map",
    "gf2.rows_form_subspace: f2rank.verify.rows_form_subspace",
    "spectral.is_hadamard: f2rank.verify.is_hadamard",
}


def test_benchmark_span_sites_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = ("cli", "gf2", "graph", "products", "constructions", "spectral", "verify", "search")
    modules = {name: importlib.import_module(f"f2rank.{name}") for name in layers}
    unresolved = {
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, sites in tracing.span_sites(modules).items()
        for owner, attr in sites
        if attr not in vars(owner)
    }
    assert unresolved <= KNOWN_UNRESOLVED
