"""Every function the benchmark tracer wraps must exist, so that a refactor
which drops or renames one fails here instead of in a `--trace 1` run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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
    # the QR of [A | b] goes through it too, and the SVD sees only the R block.
    # Off the origin no reflection fixes the sphere, so the fit is one class.
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
    quad = make_quadrature(Sphere(center=(0.1, 0.2, 0.3)), 8, 16)
    data = BoundaryData("IV", np.ones(quad.n_samples), np.zeros((quad.n_samples, 3)))
    basis = elastic_basis(Material(1.0, 1.0), 1)
    fit(data, basis, quad)
    assert calls == [("qr", (3 * quad.n_samples, 13)), ("svd", (12, 12))]

    # At the origin x, y and z fix the sphere: one QR and one SVD per parity
    # class, on the 20 domain samples (4 theta rows x 5 phi orbits), whose
    # class widths sum to the 12 fields, each with its own b column.
    calls.clear()
    fit(data, basis, make_quadrature(Sphere(), 8, 16))
    qrs = [shape for name, shape in calls if name == "qr"]
    assert len(qrs) > 1 and all(rows == 3 * 20 for rows, _ in qrs)
    assert sum(width - 1 for _, width in qrs) == len(basis)
    assert [shape for name, shape in calls if name == "svd"] == [(width - 1, width - 1) for _, width in qrs]


def test_fit_reduces_r_over_row_blocks_of_bounded_size(monkeypatch):
    # 3N (E + 1) floats exceed QR_BLOCK_BYTES here, so the QR is reduced over row
    # blocks: every QR input holds at most one block of new rows plus R, and
    # every row of [A | b] enters exactly once (one class: no reflection fixes
    # the sphere off the origin)
    from elastopoly import BoundaryData, Material, Sphere, elastic_basis, fit, make_quadrature

    tracer = load_tracer()
    solver = importlib.import_module("elastopoly.solver")
    shapes = []

    def qr(ab, mode):
        shapes.append(ab.shape)
        return np.linalg.qr(ab, mode=mode)

    monkeypatch.setattr(solver, "np", tracer._Proxy(np, linalg=tracer._Proxy(np.linalg, qr=qr)))
    quad = make_quadrature(Sphere(center=(0.1, 0.2, 0.3)), 48, 96)
    basis = elastic_basis(Material(1.0, 1.0), 7)
    rows, width = 3 * quad.n_samples, len(basis) + 1
    assert rows * width * 8 > solver.QR_BLOCK_BYTES
    fit(BoundaryData("IV", np.ones(quad.n_samples), np.zeros((quad.n_samples, 3))), basis, quad)
    block_rows = solver.QR_BLOCK_BYTES // (8 * width)
    assert len(shapes) > 1
    assert all(n <= block_rows + width and m == width for n, m in shapes)
    assert sum(n for n, _ in shapes) == rows + (len(shapes) - 1) * width


def test_traced_check_runs_and_counts_the_rigid_traction_product(tmp_path):
    # a `--trace 1` run in its own interpreter, as the benchmark makes it: the
    # tracer wraps every target and reads `.terms` of each polynomial handed to
    # batch_eval; at K=3 that is the rigid field's nine constant partials, six
    # of them nonzero, at the 16 x 32 = 512 Betti samples
    root = TRACER_PATH.parents[1]
    result = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")])}
    subprocess.run([sys.executable, str(root / "bench" / "child.py"), str(result), "trace", "check", "--degree", "3",
                    "--n-theta", "16", "--n-phi", "32"], env=env, check=True, capture_output=True, timeout=300)
    report = json.loads(result.read_text(encoding="utf-8"))
    assert report["exit_code"] == 0
    counts = {name: report["trace"]["counts"][f"polyalg.batch_eval.{name}"]
              for name in ("gemm_flop", "gemm_bytes", "nnz", "dense")}
    assert counts == {"gemm_flop": 9216, "gemm_bytes": 41032, "nnz": 6, "dense": 9}
