import hashlib
import os

import numpy as np
import pytest

from elastopoly.cli import parse_config, run, CliError
from elastopoly.geometry import make_quadrature
from elastopoly.polyalg import Poly3

STUDY_CONFIG = """\
[material]
lambda = 1.0
mu = 1.0

[surface]
kind = sphere
center = 0 0 0
radius = 1.0

[quadrature]
n_theta = 16
n_phi = 32

[problem]
kind = IV
degrees = 2 3
svd_tol = 1e-12

[data]
source = kelvin
y0 = 0 0 3
row = 1
"""


def write_config(tmp_path, text=STUDY_CONFIG, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config parsing -------------------------------------------------------------


def test_parse_config_sections_and_comments():
    cfg = parse_config("[a]\nx = 1  # trailing comment\n\n# comment\n[b]\ny = two words\n")
    assert cfg == {"a": {"x": "1"}, "b": {"y": "two words"}}


def test_parse_config_hash_inside_value_is_not_a_comment():
    cfg = parse_config("[data]\npath = /tmp/d#1.csv  # comment\nrow = 1\t# tab comment\n")
    assert cfg == {"data": {"path": "/tmp/d#1.csv", "row": "1"}}


def test_parse_config_reports_line_numbers():
    with pytest.raises(CliError, match="cfg:3"):
        parse_config("[a]\nx = 1\nbroken-line\n", origin="cfg")
    with pytest.raises(CliError, match="cfg:1"):
        parse_config("key = before any section\n", origin="cfg")


# -- basis export -----------------------------------------------------------------


def test_basis_export_is_byte_stable(capsys):
    # sha256 of `elastopoly basis --degree 8`; the coefficients come from exact
    # rationals and symbolic products, so the text must never change
    assert run(["basis", "--degree", "8"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "f5df20a20c4076409db4523f52c39e6a51a3f4e81eade28f8bb79ccffa63d0e1"


def test_basis_export_counts_and_headers(tmp_path, capsys):
    out = tmp_path / "basis.txt"
    code = run(["basis", "--degree", "2", "--lambda", "1", "--mu", "1", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    headers = [ln for ln in text.splitlines() if ln.startswith("# degree=")]
    assert len(headers) == 27  # 3 (K+1)^2 with K = 2
    assert headers[0] == "# degree=0 s=1 row=1"
    assert headers[-1] == "# degree=2 s=5 row=3"
    # blocks parse back through the polynomial text format
    first_block = text.split("\n\n")[1]
    comp_chunks = first_block.split("# component=")
    assert len(comp_chunks) == 4
    poly = Poly3.from_text(comp_chunks[1].split("\n", 1)[1])
    assert not poly.is_zero or True


def test_basis_export_refuses_overwrite(tmp_path):
    out = tmp_path / "basis.txt"
    assert run(["basis", "--degree", "0", "--output", str(out)]) == 0
    assert run(["basis", "--degree", "0", "--output", str(out)]) == 1
    assert run(["basis", "--degree", "0", "--output", str(out), "--force"]) == 0


def test_basis_rejects_inadmissible_material(capsys):
    code = run(["basis", "--degree", "1", "--lambda", "-2", "--mu", "1"])
    assert code == 1
    assert "inadmissible" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--lambda", "inf"), ("--mu", "nan")])
def test_basis_rejects_non_finite_material(capsys, flag, value):
    assert run(["basis", "--degree", "2", flag, value]) == 1
    captured = capsys.readouterr()
    assert "must be finite" in captured.err and flag[2:] in captured.err
    assert captured.out == ""


def test_basis_negative_degree_exits_1(capsys):
    assert run(["basis", "--degree", "-1"]) == 1
    assert "error: max_degree must be a non-negative integer" in capsys.readouterr().err


# -- check ------------------------------------------------------------------------


def test_check_passes_quickly(capsys):
    code = run(["check", "--degree", "2", "--n-theta", "16", "--n-phi", "32"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


@pytest.mark.parametrize("args, message", [
    (["--degree", "-1"], "max_degree must be a non-negative integer"),
    (["--n-theta", "2"], "n_theta must be >= 4"),
])
def test_check_bad_input_exits_1(capsys, args, message):
    assert run(["check", "--degree", "1", *args]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_check_samples_each_betti_field_once(monkeypatch, capsys):
    # 20 Betti pairs: the displacements of each field feed both the scale and
    # the reciprocity integral, so the 512-point quadrature sees 40 evaluations
    from elastopoly.polyalg import VecPoly3

    calls = []
    original = VecPoly3.eval

    def counting(self, points):
        calls.append(np.shape(points))
        return original(self, points)

    monkeypatch.setattr(VecPoly3, "eval", counting)
    assert run(["check", "--degree", "2", "--n-theta", "16", "--n-phi", "32"]) == 0
    assert capsys.readouterr().out.count("PASS") == 4
    assert calls.count((16 * 32, 3)) == 40


def test_check_default_configuration_passes(capsys):
    # lambda = 1, mu = 1, K = 6, unit sphere: every suite passes, exit 0
    code = run(["check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4


# -- study ------------------------------------------------------------------------


def test_study_writes_report_and_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert run(["study", "--config", cfg, "--output", out1]) == 0
    assert run(["study", "--config", cfg, "--output", out2]) == 0
    csv1 = open(os.path.join(out1, "study.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "study.csv"), "rb").read()
    assert csv1 == csv2
    json1 = open(os.path.join(out1, "study.json"), "rb").read()
    json2 = open(os.path.join(out2, "study.json"), "rb").read()
    assert json1 == json2
    header = csv1.decode().splitlines()[0]
    assert header == "K,residual_l2,residual_max,data_norm,kept_rank,defect_1,defect_2,defect_3,probe_err_max"


def test_study_refuses_overwrite_without_force(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert run(["study", "--config", cfg, "--output", out]) == 0
    assert run(["study", "--config", cfg, "--output", out]) == 1
    assert run(["study", "--config", cfg, "--output", out, "--force"]) == 0


def test_study_set_overrides_win(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    code = run(["study", "--config", cfg, "--output", out, "--set", "problem.degrees=2"])
    assert code == 0
    lines = open(os.path.join(out, "study.csv")).read().splitlines()
    assert len(lines) == 2  # header + single degree


def test_study_export_quadrature(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert run(["study", "--config", cfg, "--output", out, "--export-quadrature"]) == 0
    lines = open(os.path.join(out, "quadrature.csv")).read().splitlines()
    assert lines[0] == "x,y,z,nx,ny,nz,w"
    assert len(lines) == 16 * 32 + 1


def test_study_malformed_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[material]\nlambda 1.0\n")
    assert run(["study", "--config", str(path), "--output", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err


def test_study_missing_section_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[material]\nlambda = 1\nmu = 1\n")
    assert run(["study", "--config", str(path), "--output", str(tmp_path / "o")]) == 1
    assert "missing required config entry" in capsys.readouterr().err


# -- solve ------------------------------------------------------------------------


def test_solve_writes_fit_and_misfit(tmp_path):
    cfg_text = STUDY_CONFIG.replace("degrees = 2 3", "degree = 3")
    cfg = write_config(tmp_path, cfg_text, "solve.cfg")
    out = str(tmp_path / "solved")
    assert run(["solve", "--config", cfg, "--output", out]) == 0
    fit_json = open(os.path.join(out, "fit.json")).read()
    assert '"kept_rank": 48' in fit_json
    assert '"problem": "IV"' in fit_json
    misfit = open(os.path.join(out, "misfit.csv")).read().splitlines()
    assert misfit[0] == "x,y,z,w,scalar_misfit,vec_misfit_x,vec_misfit_y,vec_misfit_z"
    assert len(misfit) == 16 * 32 + 1


def test_solve_rejects_non_tangential_csv_data(tmp_path, capsys):
    # problem III data whose vector part has a 1e-3 normal component
    import elastopoly

    quad = elastopoly.make_quadrature(elastopoly.Sphere(), 16, 32)
    rows = []
    for nu in quad.normals:
        rows.append(f"0.0 {1e-3 * nu[0]} {1e-3 * nu[1]} {1e-3 * nu[2]}")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n")
    cfg_text = STUDY_CONFIG.replace("kind = IV", "kind = III").replace(
        "degrees = 2 3", "degree = 2"
    ).replace(
        "source = kelvin\ny0 = 0 0 3\nrow = 1", f"source = csv\npath = {data_path}"
    )
    cfg = write_config(tmp_path, cfg_text, "solve3.cfg")
    assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "tangential" in err and "F . nu = 0" in err


def test_solve_projection_flag_accepts_same_data(tmp_path):
    import elastopoly

    quad = elastopoly.make_quadrature(elastopoly.Sphere(), 16, 32)
    rows = [f"0.0 {1e-3 * nu[0]} {1e-3 * nu[1]} {1e-3 * nu[2]}" for nu in quad.normals]
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n")
    cfg_text = STUDY_CONFIG.replace("kind = IV", "kind = III").replace(
        "degrees = 2 3", "degree = 2\nproject_tangential = on"
    ).replace(
        "source = kelvin\ny0 = 0 0 3\nrow = 1", f"source = csv\npath = {data_path}"
    )
    cfg = write_config(tmp_path, cfg_text, "solve4.cfg")
    assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 0


def _csv_config(tmp_path, data_path, degree_line="degree = 2"):
    cfg_text = STUDY_CONFIG.replace("kind = IV", "kind = III").replace("degrees = 2 3", degree_line).replace(
        "source = kelvin\ny0 = 0 0 3\nrow = 1", f"source = csv\npath = {data_path}"
    )
    return write_config(tmp_path, cfg_text, "csv.cfg")


def test_csv_path_may_contain_hash(tmp_path):
    data_path = tmp_path / "d#1.csv"
    data_path.write_text("0.0 0.0 0.0 0.0\n" * (16 * 32))
    cfg = _csv_config(tmp_path, data_path)
    assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command, degree_line", [("solve", "degree = 2"), ("study", "degrees = 1 2")])
def test_non_finite_csv_data_exits_1(tmp_path, capsys, command, degree_line):
    data_path = tmp_path / "data.csv"
    data_path.write_text("0.0 0.0 0.0 0.0\n" * (16 * 32 - 1) + "0.0 nan 0.0 0.0\n")
    cfg = _csv_config(tmp_path, data_path, degree_line)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--output", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_study_repeated_degrees_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", "degrees = 2 2"))
    assert run(["study", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert "must not repeat" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    (["problem.scalar_weight=-1"], "scalar_weight must be a finite number >= 0"),
    (["problem.scalar_weight=nan"], "[problem] scalar_weight: expected finite numbers"),
    (["data.y0=nan 0 0"], "[data] y0: expected finite numbers"),
    (["surface.center=0 inf 0"], "[surface] center: expected finite numbers"),
    (["surface.kind=star", "surface.coeffs=0 1 1.0; 2 1 nan"], "[surface] coeffs coefficient: expected finite"),
])
def test_bad_config_number_exits_1_naming_key(tmp_path, capsys, overrides, message):
    out = tmp_path / "o"
    args = ["study", "--config", write_config(tmp_path), "--output", str(out)]
    assert run(args + [f"--set={item}" for item in overrides]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, degree_key, overrides, key", [
    ("study", "degrees = 2 3", ["problem.scalar_wieght=-5"], "[problem] scalar_wieght"),
    ("study", "degrees = 2 3", ["quadrature.n_thetaa=3"], "[quadrature] n_thetaa"),
    ("study", "degrees = 2 3", ["problem.project_tangential=on"], "[problem] project_tangential"),
    ("study", "degrees = 2 3", ["problem.degree=3"], "[problem] degree"),
    ("solve", "degree = 3", ["problem.degrees=2 3"], "[problem] degrees"),
    ("solve", "degree = 3", ["solver.svd_tol=1e-8"], "[solver] svd_tol"),
])
def test_unused_config_key_exits_1_naming_it(tmp_path, capsys, command, degree_key, overrides, key):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", degree_key))
    assert run([command, "--config", cfg, "--output", str(out)] + [f"--set={item}" for item in overrides]) == 1
    assert f"error: config entry {key} is not used by {command}" in capsys.readouterr().err
    assert not out.exists()


def test_study_builds_the_quadrature_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_quadrature(*args, **kwargs)

    monkeypatch.setattr("elastopoly.harness.make_quadrature", counting)
    monkeypatch.setattr("elastopoly.cli.make_quadrature", counting)
    out = tmp_path / "out"
    assert run(["study", "--config", write_config(tmp_path), "--output", str(out), "--export-quadrature"]) == 0
    assert len(calls) == 1
    assert (out / "quadrature.csv").read_text() == make_quadrature(*calls[0]).to_csv()


@pytest.mark.parametrize("command, degree_key", [("study", "degrees = 2 3"), ("solve", "degree = 3")])
def test_basis_element_data_builds_the_basis_once(tmp_path, monkeypatch, command, degree_key):
    from elastopoly.basis import elastic_basis

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return elastic_basis(*args, **kwargs)

    monkeypatch.setattr("elastopoly.harness.elastic_basis", counting)
    monkeypatch.setattr("elastopoly.cli.elastic_basis", counting)
    text = STUDY_CONFIG.replace("degrees = 2 3", degree_key).replace(
        "source = kelvin\ny0 = 0 0 3\nrow = 1", "source = basis_element\nindex = 20")
    assert run([command, "--config", write_config(tmp_path, text), "--output", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_unknown_arguments_exit_1(capsys):
    assert run(["study", "--config"]) == 1
    assert run(["frobnicate"]) == 1
