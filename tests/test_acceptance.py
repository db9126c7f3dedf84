"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion alongside the measured margins.
"""

import os
import time

import numpy as np

from elastopoly import (
    BoundaryData,
    Ellipsoid,
    KelvinSource,
    Material,
    RigidDisplacement,
    Sphere,
    StudyConfig,
    betti_check,
    compatibility_defect,
    elastic_basis,
    evaluate_solution,
    fit,
    kelvin_data,
    make_quadrature,
    probe_points,
    run_study,
    somigliana_check,
    traction,
)
from elastopoly.cli import run
from elastopoly.operators import lame_apply

MATERIALS = [Material(1.0, 1.0), Material(2.5, 0.7), Material(-0.5, 1.0)]
M = Material(1.0, 1.0)
rng = np.random.default_rng(314159)


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_basis_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for material in MATERIALS:
        basis = elastic_basis(material, 8)
        assert len(basis) == 3 * (8 + 1) ** 2 == 243
        for el in basis:
            residual = lame_apply(material, el.field.normalized()).max_abs_coeff()
            worst = max(worst, residual)
            assert residual < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion 1 (basis identity)",
           f"max |E p| residual {worst:.2e} < 1e-12 over 3 materials, counts 3(K+1)^2, {elapsed:.1f}s < 10s")


def test_criterion_2_rigid_field_traction():
    a, b, x0 = (0.7, -1.1, 0.4), (0.5, 2.0, -0.8), (0.1, -0.3, 0.2)
    rigid = RigidDisplacement(a=a, b=b, x0=x0).as_vecpoly()
    pts = rng.uniform(-3.0, 3.0, size=(10_000, 3))
    nrm = rng.normal(size=(10_000, 3))
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    scale = np.linalg.norm(a) + np.linalg.norm(b)
    worst = float(np.max(np.abs(traction(M, rigid, pts, nrm))))
    assert worst <= 1e-13 * scale
    report("criterion 2 (rigid traction)", f"max |T| = {worst:.2e} <= 1e-13 * (|a|+|b|) at 10^4 pairs")


def test_criterion_3_betti_identity(sphere_quad, triaxial_quad, basis_k8):
    worst = 0.0
    for quad in (sphere_quad, triaxial_quad):
        values = {}
        for _ in range(100):
            i, j = rng.integers(0, len(basis_k8), size=2)
            u, v = basis_k8.elements[i].field, basis_k8.elements[j].field
            for idx, fld in ((i, u), (j, v)):
                if idx not in values:
                    values[idx] = quad.norm(fld.eval(quad.points))
            scale = max(1.0, values[i] * values[j])
            worst = max(worst, betti_check(M, u, v, quad) / scale)
    assert worst <= 1e-8
    report("criterion 3 (Betti identity)",
           f"worst |reciprocity integral|/scale = {worst:.2e} <= 1e-8 over 100 pairs x 2 surfaces")


def test_criterion_4_somigliana_dichotomy():
    quad = make_quadrature(Sphere(), 48, 96)
    basis = elastic_basis(M, 3)
    elements = basis.elements[:: max(1, len(basis) // 10)][:10]
    assert len(elements) == 10
    x_in, x_out = np.array([0.3, 0.1, -0.2]), np.array([0.0, 0.0, 5.0])
    worst_in = worst_out = 0.0
    for el in elements:
        dev_in = np.linalg.norm(somigliana_check(M, el.field, quad, x_in, "interior"))
        dev_out = np.linalg.norm(somigliana_check(M, el.field, quad, x_out, "exterior"))
        worst_in, worst_out = max(worst_in, dev_in), max(worst_out, dev_out)
    assert worst_in <= 1e-6 and worst_out <= 1e-8  # 10x failure threshold implied
    report("criterion 4 (Somigliana dichotomy)",
           f"interior dev {worst_in:.2e} <= 1e-6, exterior dev {worst_out:.2e} <= 1e-8, 10 elements at n=48")


def test_criterion_5_completeness_decay():
    t0 = time.perf_counter()
    studies = [
        ("III", Ellipsoid(semi_axes=(1.0, 1.3, 1.7)), (0.0, 0.0, 3.0 * 1.7)),
        ("IV", Sphere(), (0.0, 0.0, 3.0 * 1.0)),
    ]
    details = []
    for problem, surface, y0 in studies:
        config = StudyConfig(
            material=M, surface=surface, problem=problem,
            degrees=tuple(range(2, 9)), source=KelvinSource(y0=y0, row=1),
        )
        rows = run_study(config).rows
        residuals = [r.residual_l2 for r in rows]
        data_norm = rows[0].data_norm
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a * (1.0 + 1e-9) + 1e-14 * data_norm  # monotone non-increasing
        assert residuals[-1] <= 1e-3 * data_norm
        assert residuals[-1] <= 0.1 * residuals[0]
        details.append(f"{problem}: r(8)/data = {residuals[-1] / data_norm:.1e}, "
                       f"r(8)/r(2) = {residuals[-1] / residuals[0]:.1e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("criterion 5 (completeness decay)", "; ".join(details) + f"; {elapsed:.0f}s < 120s")


def test_criterion_6_incompleteness_floor():
    worst_dev = 0.0
    for spec in (Sphere(), Ellipsoid(semi_axes=(1.0, 1.0, 1.5))):
        quad = make_quadrature(spec, 32, 64)
        data = BoundaryData("III", np.zeros(quad.n_samples), quad.rotation_fields[0])
        for K in range(0, 9):
            result = fit(data, elastic_basis(M, K), quad)
            dev = abs(result.residual_norm - 1.0)
            worst_dev = max(worst_dev, dev)
            assert dev <= 1e-6
    report("criterion 6 (incompleteness floor)",
           f"residual = 1 within {worst_dev:.1e} (tol 1e-6) for all K <= 8 on sphere and spheroid")


def test_criterion_7_compatibility_necessity():
    worst = 0.0
    for spec in (Sphere(), Ellipsoid(semi_axes=(1.0, 1.0, 1.5))):
        quad = make_quadrature(spec, 32, 64)
        for row in (1, 2, 3):
            data, _ = kelvin_data(M, quad, (0.0, 0.0, 3.0 * 1.5), row, "III")
            data_norm = np.sqrt(quad.inner(data.scalar, data.scalar) + quad.inner(data.vector, data.vector))
            for d in compatibility_defect(data, quad):
                worst = max(worst, abs(d) / data_norm)
                assert abs(d) <= 1e-8 * data_norm
    report("criterion 7 (compatibility necessity)",
           f"worst rotation defect / data norm = {worst:.2e} <= 1e-8 for genuine solution traces")


def test_criterion_8_interior_accuracy():
    quad = make_quadrature(Sphere(), 32, 64)
    data, exact = kelvin_data(M, quad, (0.0, 0.0, 3.0), 1, "IV")
    basis = elastic_basis(M, 8)
    result = fit(data, basis, quad)
    probes = probe_points(Sphere())
    fitted, _ = evaluate_solution(result, basis, probes)
    reference = exact.eval(probes)
    rel_err = float(np.max(np.linalg.norm(fitted - reference, axis=1))
                    / np.max(np.linalg.norm(reference, axis=1)))
    bound = 10.0 * result.residual_norm / result.data_norm
    assert rel_err <= bound
    report("criterion 8 (interior accuracy)",
           f"probe relative error {rel_err:.2e} <= 10 * residual/data = {bound:.2e}")


def test_criterion_9_determinism(tmp_path):
    config_text = """\
[material]
lambda = 2.5
mu = 0.7

[surface]
kind = ellipsoid
center = 0 0 0
semi_axes = 1.0 1.0 1.5

[quadrature]
n_theta = 16
n_phi = 32

[problem]
kind = III
degrees = 2 3 4

[data]
source = kelvin
y0 = 0 0 4.5
row = 2
"""
    cfg = tmp_path / "study.cfg"
    cfg.write_text(config_text)
    outs = []
    for name in ("a", "b"):
        outdir = str(tmp_path / name)
        assert run(["study", "--config", str(cfg), "--output", outdir]) == 0
        outs.append({
            fname: open(os.path.join(outdir, fname), "rb").read()
            for fname in ("study.csv", "study.json")
        })
    assert outs[0] == outs[1]
    report("criterion 9 (determinism)", "repeated study runs at a fixed BLAS thread count are byte-identical (CSV and JSON)")
