"""Span wrappers installed around the calls into each pgfree module.

The wrappers are installed from outside the program: each traced function
is replaced, in every pgfree module that bound it, by a wrapper that
records a span.  Spans are aggregated in memory as they close, per
function and per (caller, callee) edge, because the exhaustive workload
makes millions of calls; nothing is written until the run ends.

A function's self time is its span time minus the time of the traced
spans it caused, so self times of nested calls never count twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, qualified name) of every traced function, grouped by layer.
TRACED = (
    ("matroid", "triangle_count_naive"),
    ("matroid", "is_pg_free"),
    ("matroid", "critical_number"),
    ("matroid", "matroid_rank"),
    ("matroid", "restrict_to_flat"),
    ("spectral", "fwht_inplace"),
    ("spectral", "walsh_hadamard"),
    ("spectral", "triangle_count_spectral"),
    ("spectral", "triangle_counts_per_hyperplane"),
    ("spectral", "uniformity"),
    ("spectral", "counting_bound_check"),
    ("search", "find_triangle_free_flat"),
    ("search", "find_pg_free_hyperplane"),
    ("search", "hyperplane_intersection"),
    ("search", "cone"),
    ("search", "reconcile_hyperplane"),
    ("pointset", "pointset_from_mask"),
    ("pointset", "PointSet.indicator"),
    ("geometry", "closure"),
    ("geometry", "hyperplane_of"),
    ("verify", "run_sweep"),
    ("verify", "sample_pointset"),
    ("verify", "analyze"),
    ("cli", "main"),
    ("constructions", "bose_burton"),
)


class Tracer:
    """In-memory span aggregates: per-function self time and calls, per-edge
    calls and time, and the counts behind the per-layer ratios."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, child seconds] of each open span

    def wrap(self, name: str, fn, on_result=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[name] += dt - frame[1]
                self.calls[name] += 1
                parent = stack[-1] if stack else None
                edge = self.edges[(parent[0] if parent else "", name)]
                edge[0] += 1
                edge[1] += dt
                if parent:
                    parent[1] += dt
            if on_result is not None:
                on_result(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _count_found(counts, result) -> None:
    counts["is_pg_free.found"] += bool(result.found)


def _count_wht_bytes(counts, spectrum) -> None:
    # computed, not measured: one pass over the coefficient table per stage
    counts["walsh_hadamard.bytes"] += spectrum.coeffs.nbytes * spectrum.ambient_rank


def _count_descent(counts, result) -> None:
    _, trace = result
    if trace is not None:
        counts["descent.runs"] += 1
        counts["descent.fallbacks"] += trace.fallback_level is not None


ON_RESULT = {
    "matroid.is_pg_free": _count_found,
    "spectral.walsh_hadamard": _count_wht_bytes,
    "search.find_triangle_free_flat": _count_descent,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function wherever a module bound it: in the pgfree
    modules that imported it and in the benchmark's own modules.

    Returns the (owner, attribute, original) triples that ``uninstall``
    restores.  A function imported inside another function body, such as
    ``walsh_hadamard`` in ``critical_number``, is looked up on its defining
    module at call time, so rebinding the module attribute covers it.
    """
    modules = [m for m in list(sys.modules.values()) if isinstance(getattr(m, "__dict__", None), dict)]
    restored = []
    for mod_name, qualname in TRACED:
        name = f"{mod_name}.{qualname}"
        home = sys.modules[f"pgfree.{mod_name}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[attr]
            restored.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(name, orig, ON_RESULT.get(name)))
            continue
        orig = getattr(home, qualname)
        wrapper = tracer.wrap(name, orig, ON_RESULT.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    restored.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
    return restored


def uninstall(restored) -> None:
    for owner, attr, orig in reversed(restored):
        setattr(owner, attr, orig)
