"""Every function the benchmark tracer wraps must exist, so that a refactor
which drops or renames one fails here instead of in a `--trace 1` run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    missing = []
    for mod_name, attrs in tracer.TARGETS.items():
        module = importlib.import_module(f"elastopoly.{mod_name}")
        for attr in attrs:
            obj = module
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod_name}.{attr}")
    assert not missing, f"bench/tracer.py traces names elastopoly no longer has: {missing}"


def test_fit_calls_svd_through_solver_numpy(monkeypatch):
    # the tracer counts SVDs by swapping the `np` that elastopoly.solver holds;
    # the QR of [A | b] goes through it too, and the SVD sees only the R block
    from elastopoly import BoundaryData, Material, Sphere, elastic_basis, fit, make_quadrature

    tracer = load_tracer()
    solver = importlib.import_module("elastopoly.solver")
    calls = []

    def recorder(name, fn):
        def call(*args, **kwargs):
            calls.append((name, args[0].shape))
            return fn(*args, **kwargs)
        return call

    linalg = tracer._Proxy(np.linalg, svd=recorder("svd", np.linalg.svd), qr=recorder("qr", np.linalg.qr))
    monkeypatch.setattr(solver, "np", tracer._Proxy(np, linalg=linalg))
    quad = make_quadrature(Sphere(), 8, 16)
    data = BoundaryData("IV", np.ones(quad.n_samples), np.zeros((quad.n_samples, 3)))
    fit(data, elastic_basis(Material(1.0, 1.0), 1), quad)
    assert calls == [("qr", (4 * quad.n_samples, 13)), ("svd", (12, 12))]
