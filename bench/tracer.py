"""Outside-in tracing of elastopoly: spans around the public layer functions.

`install()` replaces each traced function, in every elastopoly module that
holds it by name, with a wrapper that records a span (name, start, end,
parent, bookkeeping time) in memory.  Methods are wrapped on their classes.
`numpy.linalg.svd` is traced only where `solver` calls it, through a proxy
for that module's `np`.  Nothing under `src/` is edited; `summary()` turns
the spans into per-layer call counts, total and self times, and computed
kernel counts.

Self time is a span's duration minus its direct children's durations and
minus the wrapper's own bookkeeping (the kernel counting below).  The
orchestrators `cli.cmd_*` and `harness.run_study` are deliberately not
wrapped: their own work shows up as `cli.run` self time, so the share of
`cli.run` covered by its direct children measures how much of a run the
layer spans explain.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute) of every traced function; "Class.method" for methods.
TARGETS = {
    "basis": ["solid_harmonics", "elastic_basis"],
    "geometry": ["make_quadrature", "classify_symmetry", "tangential_rotation_fields", "radial_function"],
    "polyalg": ["batch_eval", "Poly3.eval", "VecPoly3.eval"],
    "operators": [
        "lame_apply", "traction", "kelvin_matrix", "kelvin_gradient", "kelvin_traction",
        "KelvinField.eval", "KelvinField.traction",
    ],
    "solver": [
        "assemble_traces", "trace_III", "trace_IV", "check_tangential", "fit", "pointwise_misfit",
        "max_misfit", "compatibility_defect", "evaluate_solution", "fit_result_json", "misfit_csv",
    ],
    "harness": ["kelvin_data", "betti_check", "somigliana_check", "probe_points", "build_data"],
    "cli": ["run"],
}

ROOT = "cli.run"
SVD = "solver.svd"  # numpy.linalg.svd as solver calls it
F64 = 8  # bytes per float64


def _count_batch_eval(counts: dict, args, kwargs) -> None:
    """Computed GEMM size of `batch_eval(polys, points)`: the monomial table
    (points x monomials) times the coefficient matrix (monomials x polys)."""
    polys = args[0] if args else kwargs["polys"]
    points = args[1] if len(args) > 1 else kwargs["points"]
    n_pts = 1 if np.ndim(points) == 1 else len(points)
    n_monos = len(set().union(*(p.terms for p in polys)))
    n_polys = len(polys)
    counts["polyalg.batch_eval.gemm_flop"] += 2 * n_pts * n_monos * n_polys
    counts["polyalg.batch_eval.gemm_bytes"] += F64 * (n_pts * n_monos + n_monos * n_polys + n_pts * n_polys)
    counts["polyalg.batch_eval.nnz"] += sum(len(p.terms) for p in polys)
    counts["polyalg.batch_eval.dense"] += n_monos * n_polys


def _count_svd(counts: dict, args, kwargs) -> None:
    """Computed size of the matrix factorized by `numpy.linalg.svd`."""
    a = args[0] if args else kwargs["a"]
    counts["solver.svd.matrix_elems"] += a.shape[-2] * a.shape[-1]


COUNTERS = {"polyalg.batch_eval": _count_batch_eval, SVD: _count_svd}


def span_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attrs in TARGETS.items() for attr in attrs] + [SVD]


class _Proxy:
    """Stands in for a module inside one other module: selected attributes
    are replaced, every other lookup goes to the real module."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, bookkeeping seconds]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            span = [name, start, start, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                if counter is not None:
                    counter(counts, args, kwargs)
                    span[4] = perf_counter() - start
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target at each elastopoly module that imports it by name."""
        modules = [m for n, m in list(sys.modules.items()) if n == "elastopoly" or n.startswith("elastopoly.")]
        for mod_name, attrs in TARGETS.items():
            home = sys.modules[f"elastopoly.{mod_name}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = self.wrap(f"{mod_name}.{attr}", original)
                    for key, value in list(cls.__dict__.items()):
                        if value is original:  # aliases such as Poly3.__call__ = eval
                            setattr(cls, key, wrapped)
                    continue
                original = getattr(home, attr)
                wrapped = self.wrap(f"{mod_name}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        solver = sys.modules["elastopoly.solver"]
        svd = self.wrap(SVD, np.linalg.svd)
        solver.np = _Proxy(np, linalg=_Proxy(np.linalg, svd=svd))

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds; root coverage; counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        bookkeeping = 0.0
        root_s = covered_s = 0.0
        for idx, (name, start, end, parent, book) in enumerate(self.spans):
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            if parent < 0 or self.spans[parent][0] != name:  # count recursion once
                entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[idx] - book
            bookkeeping += book
            if name == ROOT and parent < 0:
                root_s += end - start
                covered_s += child_time[idx]
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "root_s": root_s,
            "coverage": covered_s / root_s if root_s > 0.0 else 0.0,
            "bookkeeping_s": bookkeeping,
            "spans": len(self.spans),
        }
