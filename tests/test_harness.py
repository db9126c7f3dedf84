import dataclasses

import numpy as np
import pytest

from elastopoly import (
    BasisElementSource,
    CsvSource,
    Ellipsoid,
    KelvinField,
    KelvinSource,
    Material,
    RigidDisplacement,
    RotationSource,
    Sphere,
    StudyConfig,
    betti_check,
    elastic_basis,
    kelvin_data,
    make_quadrature,
    probe_points,
    run_study,
    somigliana_check,
)

rng = np.random.default_rng(5150)
M = Material(1.0, 1.0)


# -- manufactured Kelvin data --------------------------------------------------------


def test_kelvin_data_is_compatible_on_sphere(sphere_quad):
    data, fld = kelvin_data(M, sphere_quad, (0.0, 0.0, 3.0), 1, "III")
    gammas = sphere_quad.rotation_fields
    norm = np.sqrt(sphere_quad.inner(data.vector, data.vector) + sphere_quad.inner(data.scalar, data.scalar))
    for g in gammas:
        assert abs(sphere_quad.inner(data.vector, g)) <= 1e-8 * norm
    # the tangential part is tangential by construction
    assert np.max(np.abs(np.einsum("ni,ni->n", data.vector, sphere_quad.normals))) <= 1e-14 * np.max(
        np.abs(data.vector)
    )
    assert isinstance(fld, KelvinField)


def test_kelvin_data_norm_decays_with_source_distance(sphere_quad):
    norms = []
    for dist in (3.0, 30.0):
        data, _ = kelvin_data(M, sphere_quad, (0.0, 0.0, dist), 1, "III")
        norms.append(np.sqrt(sphere_quad.inner(data.scalar, data.scalar)))
    assert norms[1] <= 0.2 * norms[0]  # ~1/distance falloff


def test_kelvin_data_rejects_interior_or_surface_pole(sphere_quad):
    with pytest.raises(ValueError):
        kelvin_data(M, sphere_quad, (0.0, 0.0, 0.5), 1, "III")
    with pytest.raises(ValueError):
        kelvin_data(M, sphere_quad, (0.0, 0.0, 1.0), 1, "IV")
    with pytest.raises(ValueError):
        kelvin_data(M, sphere_quad, (0.0, 0.0, 0.0), 1, "III")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kelvin_data_rejects_a_non_finite_pole(sphere_quad, bad):
    with pytest.raises(ValueError, match=r"^Kelvin pole y0 must be finite, got \[0.0, "):
        kelvin_data(M, sphere_quad, (0.0, bad, 3.0), 1, "III")


# -- reciprocity -----------------------------------------------------------------------


def test_betti_random_basis_pairs(sphere_quad, triaxial_quad, basis_k4):
    for quad in (sphere_quad, triaxial_quad):
        for _ in range(15):
            i, j = rng.integers(0, len(basis_k4), size=2)
            u, v = basis_k4.elements[i].field, basis_k4.elements[j].field
            scale = max(1.0, quad.norm(u.eval(quad.points)) * quad.norm(v.eval(quad.points)))
            assert betti_check(M, u, v, quad) <= 1e-8 * scale


def test_betti_same_field_is_exactly_zero(sphere_quad, basis_k4):
    u = basis_k4.elements[10].field
    assert betti_check(M, u, u, sphere_quad) == 0.0


def test_betti_rigid_against_basis(sphere_quad, basis_k4):
    rigid = RigidDisplacement(a=(0.1, -0.4, 0.8), b=(1.0, 0.5, -0.2))
    for el in basis_k4.elements[:: len(basis_k4) // 6]:
        scale = max(1.0, sphere_quad.norm(el.field.eval(sphere_quad.points)))
        assert betti_check(M, rigid, el.field, sphere_quad) <= 1e-8 * scale


def test_betti_kelvin_against_basis(sphere_quad, basis_k4):
    fld = KelvinField(M, (0.0, 0.0, 3.0), 3)
    u = basis_k4.elements[20].field
    assert betti_check(M, fld, u, sphere_quad) <= 1e-8


def test_betti_rejects_material_mismatch(sphere_quad, basis_k4):
    fld = KelvinField(Material(2.5, 0.7), (0.0, 0.0, 3.0), 1)
    with pytest.raises(ValueError):
        betti_check(M, fld, basis_k4.elements[0].field, sphere_quad)


# -- representation formula --------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_quad48():
    return make_quadrature(Sphere(), 48, 96)


def test_somigliana_constant_field(sphere_quad48):
    from elastopoly.polyalg import VecPoly3

    dev = somigliana_check(M, VecPoly3.constant((1.0, 0.0, 0.0)), sphere_quad48, np.zeros(3), "interior")
    assert np.linalg.norm(dev) <= 1e-8


def test_somigliana_degree_two_element(sphere_quad48):
    basis = elastic_basis(M, 2)
    el = next(e for e in basis if e.degree == 2)
    dev = somigliana_check(M, el.field, sphere_quad48, np.array([0.3, 0.1, -0.2]), "interior")
    assert np.linalg.norm(dev) <= 1e-6


def test_somigliana_exterior_point(sphere_quad48):
    basis = elastic_basis(M, 3)
    dev = somigliana_check(M, basis.elements[17].field, sphere_quad48, np.array([0.0, 0.0, 5.0]), "exterior")
    assert np.linalg.norm(dev) <= 1e-8


def test_somigliana_rejects_near_surface_point(sphere_quad48):
    basis = elastic_basis(M, 1)
    with pytest.raises(ValueError, match="quadrature spacings"):
        somigliana_check(M, basis.elements[0].field, sphere_quad48, np.array([0.0, 0.0, 0.999]), "interior")
    with pytest.raises(ValueError, match=r"^evaluation point must be finite, got \[nan, 0.0, 0.0\]$"):
        somigliana_check(M, basis.elements[0].field, sphere_quad48, [np.nan, 0.0, 0.0], "interior")


# -- studies ------------------------------------------------------------------------------


def test_incompleteness_study_on_sphere():
    config = StudyConfig(
        material=M,
        surface=Sphere(),
        problem="III",
        degrees=(0, 2, 4),
        source=RotationSource(0),
        n_theta=32,
        n_phi=64,
    )
    report = run_study(config)
    area = 4.0 * np.pi
    for row in report.rows:
        assert row.residual_l2 == pytest.approx(1.0, abs=1e-6)
        assert row.residual_max >= 0.2
        assert row.residual_max >= row.residual_l2 / np.sqrt(area)  # norm inequality
        assert np.isnan(row.probe_err_max)  # no exact solution for rotation data
    assert report.rows[0].defects[0] == pytest.approx(1.0, abs=1e-10)


def test_completeness_study_on_triaxial_ellipsoid():
    config = StudyConfig(
        material=M,
        surface=Ellipsoid(semi_axes=(1.0, 1.3, 1.7)),
        problem="III",
        degrees=(2, 4, 6),
        source=KelvinSource(y0=(0.0, 0.0, 5.1), row=1),
    )
    report = run_study(config)
    residuals = [row.residual_l2 for row in report.rows]
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[-1] <= 0.1 * residuals[0]
    for row in report.rows:
        assert all(np.isnan(d) for d in row.defects)  # generic surface: no constraints
        assert not np.isnan(row.probe_err_max)


def test_basis_element_study_hits_zero_residual(sphere_quad):
    config = StudyConfig(
        material=M,
        surface=Sphere(),
        problem="IV",
        degrees=(2, 3),
        source=BasisElementSource(index=12),
    )
    report = run_study(config)
    for row in report.rows:
        assert row.residual_l2 <= 1e-10 * max(row.data_norm, 1e-30)
        assert row.probe_err_max <= 1e-8


def test_rotation_source_requires_symmetric_surface():
    config = StudyConfig(
        material=M,
        surface=Ellipsoid(semi_axes=(1.0, 1.3, 1.7)),
        problem="III",
        degrees=(2,),
        source=RotationSource(0),
    )
    with pytest.raises(ValueError, match="axisymmetric"):
        run_study(config)


def test_rotation_study_computes_the_rotation_fields_once(monkeypatch):
    # problem III with rotation data reads the quadrature's fields for the
    # data, the fits' rotation components and the defect columns; they are
    # sampled once
    import elastopoly.geometry as geometry
    import elastopoly.harness as harness

    counted, seen = [], []
    rotations, fit_degrees = geometry.tangential_rotation_fields, harness.fit_degrees

    def counting(*args):
        counted.append(args)
        return rotations(*args)

    def recording(*args, **kwargs):
        results = fit_degrees(*args, **kwargs)
        seen.extend(len(r.rotation_components) for r in results)
        return results

    monkeypatch.setattr(geometry, "tangential_rotation_fields", counting)
    monkeypatch.setattr(harness, "fit_degrees", recording)
    config = StudyConfig(M, Ellipsoid(semi_axes=(1.0, 1.0, 1.5)), "III", (1, 2), RotationSource(0), 12, 24)
    report = run_study(config)
    assert len(counted) == 1 and seen == [1, 1]
    assert [r.defects[0] for r in report.rows] == [pytest.approx(1.0, abs=1e-10)] * 2


def test_probe_points_are_deterministic_and_interior():
    spec = Ellipsoid(semi_axes=(1.0, 1.3, 1.7))
    p1, p2 = probe_points(spec), probe_points(spec)
    assert np.array_equal(p1, p2)
    assert p1.shape == (20, 3)
    # 50% depth: strictly inside
    dirs = p1 / np.linalg.norm(p1, axis=1)[:, None]
    from elastopoly import radial_function

    assert np.all(np.linalg.norm(p1, axis=1) < radial_function(spec, dirs))


def test_probe_directions_are_the_seeded_draws():
    # the written-out table is the seeded normal draws, bit for bit
    from elastopoly.harness import N_PROBES, PROBE_DIRECTIONS, PROBE_SEED

    drawn = np.random.default_rng(PROBE_SEED).normal(size=(N_PROBES, 3))
    assert np.array(PROBE_DIRECTIONS).tobytes() == drawn.tobytes()


def test_study_report_csv_schema_and_determinism():
    config = StudyConfig(
        material=M,
        surface=Sphere(),
        problem="IV",
        degrees=(2, 3),
        source=KelvinSource(y0=(0.0, 0.0, 3.0), row=2),
        n_theta=16,
        n_phi=32,
    )
    r1, r2 = run_study(config), run_study(config)
    assert r1.to_csv() == r2.to_csv()
    assert r1.metadata_json() == r2.metadata_json()
    lines = r1.to_csv().splitlines()
    assert lines[0] == "K,residual_l2,residual_max,data_norm,kept_rank,defect_1,defect_2,defect_3,probe_err_max"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "2"


def test_study_invariants_residual_column(sphere_quad):
    config = StudyConfig(
        material=M,
        surface=Sphere(),
        problem="IV",
        degrees=(2, 3, 4, 5),
        source=KelvinSource(y0=(0.0, 0.0, 3.0), row=1),
    )
    report = run_study(config)
    res = [row.residual_l2 for row in report.rows]
    for a, b in zip(res, res[1:]):
        assert b <= a * (1.0 + 1e-9) + 1e-14 * report.rows[0].data_norm


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2, 3), (-1,), (2, -1), (True, 2), (2.0,), (2.5,), ("a",), (2, None)])
def test_study_config_rejects_negative_or_repeated_degrees(degrees):
    with pytest.raises(ValueError, match="degrees must"):
        StudyConfig(M, Sphere(), "III", degrees, KelvinSource((0.0, 0.0, 3.0)))


@pytest.mark.parametrize("value", [True, 2.0, 2.5])
@pytest.mark.parametrize("name, make", [("row", lambda v: KelvinSource((0.0, 0.0, 3.0), row=v)),
                                        ("basis element index", BasisElementSource),
                                        ("rotation index", RotationSource),
                                        ("row", lambda v: KelvinField(M, (0.0, 0.0, 3.0), v))])
def test_sources_refuse_bool_or_non_integer_fields(name, make, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        make(value)
    kept = dataclasses.astuple(make(np.int64(2)))[-1]  # a numpy integer is kept as a Python int
    assert kept == 2 and type(kept) is int


@pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
def test_study_config_rejects_bad_scalar_weight(weight):
    with pytest.raises(ValueError, match="scalar_weight"):
        StudyConfig(M, Sphere(), "III", (1,), KelvinSource((0.0, 0.0, 3.0)), scalar_weight=weight)


def test_csv_source_keeps_rows_starting_with_nan_or_inf(tmp_path):
    # a row whose first field is nan/inf is data, not a header: it must reach
    # the finiteness check instead of being dropped
    quad = make_quadrature(Sphere(), 4, 8)
    rows = ["phi,Phi_x,Phi_y,Phi_z"] + ["0.0,0.0,0.0,0.0"] * (quad.n_samples - 1)
    for first in ("nan", "inf", "-inf"):
        path = tmp_path / f"{first}.csv"
        path.write_text("\n".join(rows + [f"{first},0.0,0.0,0.0"]) + "\n")
        config = StudyConfig(M, Sphere(), "III", (1,), CsvSource(str(path)), n_theta=4, n_phi=8)
        with pytest.raises(ValueError, match="phi has 1 non-finite"):
            run_study(config)


def test_study_csv_is_written_literally():
    # integer K and kept_rank, 17-digit floats, nan defect columns (problem IV) and signed zeros
    from elastopoly.harness import StudyReport, StudyRow

    rows = (StudyRow(degree=2, residual_l2=0.1, residual_max=-0.0, data_norm=2.0, kept_rank=27,
                     defects=(float("nan"),) * 3, probe_err_max=1.0 / 3.0),
            StudyRow(degree=10, residual_l2=1e-300, residual_max=2.5e-17, data_norm=2.0, kept_rank=363,
                     defects=(0.5, -0.0, float("nan")), probe_err_max=float("nan")))
    report = StudyReport(config=None, rows=rows, metadata={}, quadrature=None)
    assert report.to_csv() == (
        "K,residual_l2,residual_max,data_norm,kept_rank,defect_1,defect_2,defect_3,probe_err_max\n"
        "2,0.10000000000000001,-0,2,27,nan,nan,nan,0.33333333333333331\n"
        "10,1e-300,2.4999999999999999e-17,2,363,0.5,-0,nan,nan\n"
    )
