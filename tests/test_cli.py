import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from elastopoly import harness, solver
from elastopoly.basis import Material, elastic_basis
from elastopoly.cli import parse_config, run, study_config_from, CliError
from elastopoly.geometry import Sphere, StarShaped, make_quadrature
from elastopoly.harness import KelvinSource, StudyConfig, config_metadata
from elastopoly.ioutil import json_dumps
from elastopoly.polyalg import Poly3

import dictpoly

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


@pytest.mark.parametrize("text, line, entry", [
    ("[problem]\ndegrees = 1 2\nkind = III\ndegrees = 3\n", 4, "[problem] degrees"),
    ("[material]\nmu = 1\n[surface]\nkind = sphere\n[material]\nmu = 2\n", 6, "[material] mu"),
], ids=["same-section", "repeated-section"])
def test_parse_config_rejects_a_key_given_twice(text, line, entry):
    with pytest.raises(CliError) as info:
        parse_config(text, origin="cfg")
    assert str(info.value) == f"cfg:{line}: {entry} is given twice"


def test_study_with_a_key_given_twice_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", "degrees = 2 3\ndegrees = 2"))
    out = tmp_path / "o"
    assert run(["study", "--config", cfg, "--output", str(out)]) == 1
    assert f"error: {cfg}:17: [problem] degrees is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_parse_config_reports_line_numbers():
    with pytest.raises(CliError, match="cfg:3"):
        parse_config("[a]\nx = 1\nbroken-line\n", origin="cfg")
    with pytest.raises(CliError, match="cfg:1"):
        parse_config("key = before any section\n", origin="cfg")


# -- study.json metadata of each surface kind and data source ----------------------

_MINIMAL = "[material]\nlambda = 1.3\nmu = 0.8\n[problem]\nkind = III\n[surface]\n{surface}\n[data]\n{data}\n"


def _metadata(surface="kind = sphere", data="source = rotation") -> dict:
    cfg = parse_config(_MINIMAL.format(surface=surface, data=data))
    return config_metadata(study_config_from(cfg, (2,)))


@pytest.mark.parametrize("surface, expected", [
    ("kind = sphere", '{"kind": "sphere", "center": [0, 0, 0], "radius": 1}'),
    ("kind = ellipsoid\nsemi_axes = 1 1.3 1.7",
     '{"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1, 1.3, 1.7]}'),
    ("kind = star\ncoeffs = 0 1 1.0; 2 3 0.15",
     '{"kind": "star", "center": [0, 0, 0], "coeffs": [[0, 1, 1], [2, 3, 0.14999999999999999]], "axis": null}'),
    ("kind = star\ncenter = 0.5 0 -1\ncoeffs = 0 1 1.0; 2 3 0.15\naxis = 0 0 1",
     '{"kind": "star", "center": [0.5, 0, -1], "coeffs": [[0, 1, 1], [2, 3, 0.14999999999999999]], "axis": [0, 0, 1]}'),
], ids=["sphere", "ellipsoid", "star", "star-axis"])
def test_study_json_records_each_surface_kind(surface, expected):
    assert json_dumps(_metadata(surface=surface)["surface"]) == expected


@pytest.mark.parametrize("data, expected", [
    ("source = kelvin\ny0 = 0 0 5.1", '{"source": "kelvin", "y0": [0, 0, 5.0999999999999996], "row": 1}'),
    ("source = basis_element\nindex = 7", '{"source": "basis_element", "index": 7}'),
    ("source = rotation", '{"source": "rotation", "index": 0}'),
    ("source = csv\npath = data/d.csv", '{"source": "csv", "path": "data/d.csv"}'),
], ids=["kelvin", "basis_element", "rotation", "csv"])
def test_study_json_records_each_data_source(data, expected):
    assert json_dumps(_metadata(data=data)["data"]) == expected


def test_study_json_of_a_minimal_config(tmp_path):
    # every omitted key shows its library default
    text = _MINIMAL.format(surface="kind = sphere", data="source = kelvin\ny0 = 0 0 5.1").replace(
        "kind = III", "kind = III\ndegrees = 1 2")
    out = tmp_path / "o"
    args = ["--set=quadrature.n_theta=8", "--set=quadrature.n_phi=16"]
    assert run(["study", "--config", write_config(tmp_path, text), "--output", str(out)] + args) == 0
    assert (out / "study.json").read_text() == (
        '{"material": {"lambda": 1.3, "mu": 0.80000000000000004}, '
        '"surface": {"kind": "sphere", "center": [0, 0, 0], "radius": 1}, "problem": "III", "degrees": [1, 2], '
        '"quadrature": {"n_theta": 8, "n_phi": 16}, '
        '"data": {"source": "kelvin", "y0": [0, 0, 5.0999999999999996], "row": 1}, '
        '"svd_tol": 9.9999999999999998e-13, "scalar_weight": 1, '
        '"probes": {"count": 20, "depth": 0.5, "seed": 715}}\n'
    )


def test_json_dumps_writes_numpy_arrays_as_lists():
    assert json_dumps({"c": np.array([1.0, 2.0]), "m": np.eye(2, dtype=int), "s": np.float32(0.5)}) == (
        '{"c": [1, 2], "m": [[1, 0], [0, 1]], "s": 0.5}')
    with pytest.raises(TypeError, match="cannot serialize object to JSON"):
        json_dumps({"c": [object()]})


def test_json_dumps_escapes_every_control_character():
    for code in range(0x20):
        text = f"a{chr(code)}b\\c\"d"
        assert json.loads(json_dumps({text: text})) == {text: text}
    assert json_dumps({"path": "data/\u00e9t\u00e9.csv"}) == '{"path": "data/\u00e9t\u00e9.csv"}'  # kept as UTF-8


def test_study_json_of_array_valued_specs_equals_that_of_tuples():
    def metadata(vector):
        surfaces = (Sphere(center=vector(0.1, 0.0, -0.2)),
                    StarShaped(center=vector(0, 0, 0), coeffs=((0, 1, 1.0), (2, 3, 0.15)), axis=vector(0, 0, 1)))
        return [json_dumps(config_metadata(StudyConfig(Material(1.0, 1.0), surface, "III", (2,),
                                                       KelvinSource(y0=vector(0.0, 0.5, 4.0)))))
                for surface in surfaces]

    assert metadata(lambda *v: np.array(v)) == metadata(lambda *v: tuple(v))


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


@pytest.mark.parametrize("lam, mu", [("1", "1"), ("1.3", "0.8")])
def test_basis_export_parses_back_to_the_elements(tmp_path, lam, mu):
    # the export formats the layout's value rows; each component parses back
    # to the dict element's component, term for term and bitwise
    out = tmp_path / "basis.txt"
    assert run(["basis", "--degree", "3", "--lambda", lam, "--mu", mu, "--output", str(out)]) == 0
    blocks = out.read_text().rstrip("\n").split("\n\n")
    elements = elastic_basis(Material(float(lam), float(mu)), 3).elements
    assert len(blocks) == len(elements) == 48
    for block, el in zip(blocks, elements):
        header, *components = block.split("\n# component=")
        assert header == f"# degree={el.degree} s={el.harmonic_index} row={el.row}"
        assert len(components) == 3
        for j, (chunk, comp) in enumerate(zip(components, el.field), start=1):
            number, _, text = chunk.partition("\n")
            parsed = dictpoly.Poly3.from_text(text)
            assert number == str(j)
            assert list(parsed.terms) == sorted(comp.terms)  # graded lex within the degree
            assert {m: c.hex() for m, c in parsed.terms.items()} == {m: c.hex() for m, c in comp.terms.items()}


def test_basis_export_reads_only_the_layout(monkeypatch, capsys):
    from elastopoly.basis import ElasticBasis

    def refused(*args):
        raise AssertionError("the basis export built a basis element")

    monkeypatch.setattr(ElasticBasis, "elements", property(refused))
    monkeypatch.setattr(ElasticBasis, "element", refused)
    assert run(["basis", "--degree", "3"]) == 0
    assert capsys.readouterr().out.count("# degree=") == 48


def test_basis_export_refuses_overwrite(tmp_path):
    out = tmp_path / "basis.txt"
    assert run(["basis", "--degree", "0", "--output", str(out)]) == 0
    assert run(["basis", "--degree", "0", "--output", str(out)]) == 1
    assert run(["basis", "--degree", "0", "--output", str(out), "--force"]) == 0


def test_basis_refuses_an_existing_output_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the basis was built for an output that is refused")

    monkeypatch.setattr("elastopoly.cli.elastic_basis", refuse)
    out = tmp_path / "basis.txt"
    out.write_text("kept\n")
    assert run(["basis", "--degree", "20", "--output", str(out)]) == 1
    assert f"error: refusing to overwrite {out} (use --force)" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


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
    # check reads only the basis layout: no polynomial objects are evaluated,
    # the elements are never built, and one eval_blocks pass over each grid
    # (the 16 x 32 Betti grid, the 48 x 96 Somigliana grid) samples every field;
    # the rigid-traction line walks its own field once, at the Betti grid's normals
    from elastopoly import cli, polyalg
    from elastopoly.basis import ElasticBasis
    from elastopoly.polyalg import VecPoly3

    def refused(*args):
        raise AssertionError("check evaluated a polynomial object or built the basis elements")

    walked = []
    original = polyalg.eval_blocks

    def counting(blocks, points, *tables):
        walked.append(len(points))
        return original(blocks, points, *tables)

    for cls in (Poly3, VecPoly3):
        monkeypatch.setattr(cls, "eval", refused)
        monkeypatch.setattr(cls, "__call__", refused)
    monkeypatch.setattr(ElasticBasis, "elements", property(refused))

    def rigid(*args):
        walked.append("rigid")
        return traction(*args)

    traction = cli.traction
    monkeypatch.setattr(cli, "traction", rigid)
    for module in (polyalg, solver, harness):
        monkeypatch.setattr(module, "eval_blocks", counting)
    assert run(["check", "--degree", "2", "--n-theta", "16", "--n-phi", "32"]) == 0
    assert capsys.readouterr().out.count("PASS") == 4
    at = walked.index("rigid")
    assert walked[at + 1] == 16 * 32
    del walked[at:at + 2]
    assert walked.count(16 * 32) == 1 and walked.count(48 * 96) == 1


@pytest.mark.parametrize("args, expected", [
    (["--degree", "12", "--n-theta", "48", "--n-phi", "96"], {"traction_of_stress": 36, "kelvin_traction": 18}),
    ([], {"traction_of_stress": 52, "kelvin_traction": 26}),
], ids=["k12", "default"])
def test_check_contracts_each_chunk_once(monkeypatch, capsys, args, expected):
    # the reciprocity pass, per chunk of 256 points: one traction contraction of every picked
    # element's stresses, and one Kelvin traction call, with its own contraction, for every pole.
    # At K = 12 on 48 x 96 that is 18 chunks, where one call per degree or per pole made 270 and
    # 36; the default K = 6 check makes a Betti pass on 32 x 64 and a Somigliana pass on 48 x 96,
    # 8 + 18 chunks, where a contraction per group of at most 3(2K + 1) elements made 60 and 26
    from elastopoly import cli, operators

    calls, inside = {"traction_of_stress": 0, "kelvin_traction": 0}, []
    reciprocity_matrix = cli.reciprocity_matrix

    def in_pass(*args):
        inside.append(True)
        try:
            return reciprocity_matrix(*args)
        finally:
            inside.pop()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += bool(inside)
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(cli, "reciprocity_matrix", in_pass)
    for module in (harness, operators):  # where the pass and the Kelvin traction look them up
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert run(["check", *args]) == 0
    assert capsys.readouterr().out.count("PASS") == 4
    assert calls == expected


CHECK_RUN = "import sys; from elastopoly.cli import run; sys.exit(run(sys.argv[1:]))"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_check_prints_the_same_bytes_at_a_fixed_blas_thread_count(threads):
    # in fresh interpreters, as the BLAS thread count is read when numpy loads
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
    args = [sys.executable, "-c", CHECK_RUN, "check", "--degree", "12", "--n-theta", "48", "--n-phi", "96"]
    first, second = (subprocess.run(args, env=env, capture_output=True, timeout=120) for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout.count(b"PASS") == 4
    assert first.stdout == second.stdout


def test_check_betti_pairs_reach_every_degree(monkeypatch, capsys):
    # 20 pairs from a fixed rule, no random draws: pair p is element j of degrees
    # k - 2 and k, k = 2 + p mod (K - 1), the only pairs that can show E v != 0
    from elastopoly import cli

    columns = []
    original = cli.reciprocity_matrix

    def recording(basis, chosen, *args):
        columns.append(list(chosen))
        return original(basis, chosen, *args)

    monkeypatch.setattr(cli, "reciprocity_matrix", recording)
    assert run(["check", "--degree", "5", "--n-theta", "16", "--n-phi", "32"]) == 0
    assert capsys.readouterr().out.count("PASS") == 4
    betti = columns[0]
    degree = [math.isqrt(n // 3) for n in betti]
    assert len(betti) == 40 and degree[1::2] == [2 + p % 4 for p in range(20)]
    assert [high - low for low, high in zip(degree[::2], degree[1::2])] == [2] * 20
    assert [high - low for low, high in zip(betti[::2], betti[1::2])] == [3 * (4 * k - 4) for k in degree[1::2]]


def test_check_fails_when_the_basis_misses_equilibrium(monkeypatch, capsys):
    # a wrong material factor Lambda_k leaves E v != 0 from degree 2 on, and breaks
    # reciprocity between degrees k - 2 and k, at odd and even K
    from elastopoly import basis

    original = basis.lambda_coeff
    monkeypatch.setattr(basis, "lambda_coeff", lambda material, k: 0.9 * original(material, k))
    for degree in ("2", "3", "4", "6"):
        assert run(["check", "--degree", degree, "--n-theta", "16", "--n-phi", "32"]) == 2
        out = capsys.readouterr().out
        assert "FAIL basis-identity" in out and "FAIL betti" in out


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


@pytest.mark.parametrize("value, code", [
    ("on", 0), ("TRUE", 0), ("Yes", 0), ("1", 0), ("Off", 1), ("false", 1), ("NO", 1), ("0", 1),
])
def test_solve_projection_values_are_case_insensitive(tmp_path, capsys, value, code):
    # the data's vector part has a 1e-3 normal component: projected it fits, unprojected it is refused
    quad = make_quadrature(Sphere(), 16, 32)
    data_path = tmp_path / "data.csv"
    data_path.write_text("".join(f"0.0 {1e-3 * nu[0]} {1e-3 * nu[1]} {1e-3 * nu[2]}\n" for nu in quad.normals))
    cfg = _csv_config(tmp_path, data_path)
    args = ["solve", "--config", cfg, "--output", str(tmp_path / "o"), f"--set=problem.project_tangential={value}"]
    assert run(args) == code
    assert ("Phi is not tangential" in capsys.readouterr().err) == bool(code)


@pytest.mark.parametrize("value", ["tru", "onn", "2", "enabled"])
def test_solve_unknown_projection_value_exits_1_naming_it(tmp_path, capsys, value):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", "degree = 2"))
    assert run(["solve", "--config", cfg, "--output", str(out), f"--set=problem.project_tangential={value}"]) == 1
    err = capsys.readouterr().err
    assert f"error: [problem] project_tangential: expected on/off, true/false, yes/no or 1/0, got {value!r}" in err
    assert not out.exists()


def _csv_config(tmp_path, data_path, degree_line="degree = 2"):
    cfg_text = STUDY_CONFIG.replace("kind = IV", "kind = III").replace("degrees = 2 3", degree_line).replace(
        "source = kelvin\ny0 = 0 0 3\nrow = 1", f"source = csv\npath = {data_path}"
    )
    return write_config(tmp_path, cfg_text, "csv.cfg")


def test_study_tangency_error_suggests_no_option_a_study_rejects(tmp_path, capsys):
    # project_tangential is a solve-only key, so a study error must not offer it
    quad = make_quadrature(Sphere(), 16, 32)
    data_path = tmp_path / "data.csv"
    data_path.write_text("".join(f"0.0 {1e-3 * nu[0]} {1e-3 * nu[1]} {1e-3 * nu[2]}\n" for nu in quad.normals))
    cfg = _csv_config(tmp_path, data_path, "degrees = 1 2")
    assert run(["study", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Phi is not tangential" in err and "project_tangential" not in err


def test_csv_data_with_a_bad_number_exits_1_naming_the_line(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    data_path.write_text("phi Phi_x Phi_y Phi_z\n" + "0.0 0.0 0.0 0.0\n" * 3 + "0 0.1 abc 0\n")
    cfg = _csv_config(tmp_path, data_path)
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"data CSV {data_path}, line 5:" in err and "'abc'" in err
    assert not out.exists()


@pytest.mark.parametrize("row, count", [("0 0.1 0", 3), ("0 0.1 0 0 0", 5)])
def test_csv_data_with_a_short_or_long_row_exits_1_naming_the_line(tmp_path, capsys, row, count):
    data_path = tmp_path / "data.csv"
    data_path.write_text("phi Phi_x Phi_y Phi_z\n" + "0.0 0.0 0.0 0.0\n" * 3 + row + "\n" + "0.0 0.0 0.0 0.0\n" * 2)
    cfg = _csv_config(tmp_path, data_path)
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--output", str(out)]) == 1
    assert f"error: data CSV {data_path}, line 5: expected 4 numbers, got {count}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command, degree_key, source", [
    ("study", "degrees = 2 3", ["data.source=rotation"]),
    ("solve", "degree = 3", ["problem.kind=III"]),
])
def test_star_surface_with_a_false_axis_exits_1_naming_it(tmp_path, capsys, command, degree_key, source):
    star = ["surface.kind=star", "surface.coeffs=0 1 1.0; 2 3 0.15", "surface.axis=0 0 1"]
    out = tmp_path / "o"
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", degree_key))
    assert run([command, "--config", cfg, "--output", str(out)] + [f"--set={item}" for item in star + source]) == 1
    err = capsys.readouterr().err
    assert "error: the surface is not symmetric about its declared axis 0 0 1" in err
    assert "not tangential" not in err
    assert not out.exists()


def test_rotation_study_on_a_small_sphere_exits_0(tmp_path, capsys):
    # a sphere of radius 1e-7 keeps its three rotation fields, and rotation 0 is the floor the basis cannot fit
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("y0 = 0 0 3\nrow = 1\n", ""))
    small = ["surface.radius=1e-7", "quadrature.n_theta=8", "quadrature.n_phi=16", "problem.kind=III",
             "data.source=rotation"]
    out = tmp_path / "o"
    assert run(["study", "--config", cfg, "--output", str(out)] + [f"--set={item}" for item in small]) == 0
    rows = np.loadtxt(out / "study.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [2.0, 3.0]
    assert np.allclose(rows[:, 1], rows[:, 3], rtol=1e-12, atol=0.0)  # residual_l2 == data_norm


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
    (["surface.kind=star", "surface.coeffs=a 1 1"], "[surface] coeffs degree: expected an integer, got 'a'"),
    (["surface.kind=star", "surface.coeffs=0 1 1; 2 x 0.1"], "[surface] coeffs index: expected an integer, got 'x'"),
    # leaving the key out declares no axis; an empty value is an error like any other
    (["surface.kind=star", "surface.coeffs=0 1 1", "surface.axis="], "[surface] axis: expected 3 numbers, got 0"),
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


@pytest.mark.parametrize("overrides, key", [
    (["surface.kind=ellipsoid"], "[surface] semi_axes"),
    (["surface.kind=star"], "[surface] coeffs"),
    (["data.source=basis_element"], "[data] index"),
    (["data.source=csv"], "[data] path"),
])
def test_missing_required_entry_exits_1_naming_it(tmp_path, capsys, overrides, key):
    # semi_axes and coeffs have library defaults, but a config must still give them
    out = tmp_path / "o"
    args = ["study", "--config", write_config(tmp_path), "--output", str(out)]
    assert run(args + [f"--set={item}" for item in overrides]) == 1
    assert f"error: missing required config entry {key}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_negative_degree_names_its_key(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", "degree = 3"))
    assert run(["solve", "--config", cfg, "--output", str(out), "--set=problem.degree=-1"]) == 1
    assert "error: [problem] degree must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_every_field_of_a_kind_has_a_parser_and_only_those_keys_are_legal():
    from dataclasses import fields

    from elastopoly.cli import _PARSERS, _allowed_keys
    from elastopoly.harness import KINDS

    for command in ("study", "solve"):
        allowed = _allowed_keys(command)
        for section, (kind_key, kinds) in KINDS.items():
            names = {f.name for cls in kinds.values() for f in fields(cls)}
            assert set(_PARSERS[section]) == names
            assert allowed[section] == names | {kind_key}
    assert {section: set(keys) for section, keys in _allowed_keys("study").items()} == {
        "material": {"lambda", "mu"},
        "surface": {"kind", "center", "radius", "semi_axes", "coeffs", "axis"},
        "quadrature": {"n_theta", "n_phi"},
        "problem": {"kind", "degrees", "svd_tol", "scalar_weight"},
        "data": {"source", "y0", "row", "index", "path"},
    }
    assert _allowed_keys("solve")["problem"] == {"kind", "degree", "project_tangential", "svd_tol", "scalar_weight"}


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


@pytest.mark.parametrize("command, degree_key", [("study", "degrees = 2 3"), ("solve", "degree = 3")])
def test_basis_element_data_builds_one_element(tmp_path, monkeypatch, command, degree_key):
    from elastopoly.basis import ElasticBasis

    def refused(self):
        raise AssertionError("basis-element data built every element")

    built, element = [], ElasticBasis.element
    monkeypatch.setattr(ElasticBasis, "elements", property(refused))
    monkeypatch.setattr(ElasticBasis, "element", lambda self, n: built.append(n) or element(self, n))
    text = STUDY_CONFIG.replace("degrees = 2 3", degree_key).replace(
        "source = kelvin\ny0 = 0 0 3\nrow = 1", "source = basis_element\nindex = 20")
    assert run([command, "--config", write_config(tmp_path, text), "--output", str(tmp_path / "out")]) == 0
    assert built == [20]


@pytest.mark.parametrize("command, degree_key", [("study", "degrees = 2 8"), ("solve", "degree = 8")])
def test_underdetermined_fit_exits_1_before_assembly(tmp_path, monkeypatch, capsys, command, degree_key):
    # 4 x 8 samples give 96 rows, fewer than the 243 coefficients through degree 8
    def refuse(*args, **kwargs):
        raise AssertionError("the traces of an underdetermined fit were assembled")

    monkeypatch.setattr("elastopoly.solver.assemble_traces", refuse)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", degree_key))
    overrides = ["--set=quadrature.n_theta=4", "--set=quadrature.n_phi=8"]
    assert run([command, "--config", cfg, "--output", str(out)] + overrides) == 1
    err = capsys.readouterr().err
    assert "error: the fit through degree 8 is underdetermined: 96 rows" in err
    assert "243 coefficients" in err
    assert not out.exists()


@pytest.mark.parametrize("command, degree_key", [("study", "degrees = 2 3"), ("solve", "degree = 3")])
@pytest.mark.parametrize("svd_tol", ["2", "0"])
def test_bad_svd_tol_exits_1_before_the_quadrature(tmp_path, monkeypatch, capsys, command, degree_key, svd_tol):
    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature of a config with a bad svd_tol was built")

    monkeypatch.setattr("elastopoly.harness.make_quadrature", refuse)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", degree_key))
    assert run([command, "--config", cfg, "--output", str(out), f"--set=problem.svd_tol={svd_tol}"]) == 1
    assert f"error: svd_tol must be in (0, 1), got {float(svd_tol)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, degree_key", [("study", "degrees = 2 3"), ("solve", "degree = 3")],
                         ids=["study", "solve"])
def test_output_path_that_is_a_file_exits_1(tmp_path, capsys, command, degree_key):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", degree_key))
    assert run([command, "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command, degree_key, taken", [
    ("study", "degrees = 2 3", "study.csv"), ("solve", "degree = 3", "misfit.csv"),
    ("study", "degrees = 2 3", None), ("solve", "degree = 3", None),
], ids=["study-report", "solve-report", "study-file", "solve-file"])
def test_unusable_output_exits_1_before_any_fit(tmp_path, monkeypatch, capsys, command, degree_key, taken):
    # an existing report without --force, or an --output that is a file, is refused before the fit runs
    out = tmp_path / "out"
    if taken:
        out.mkdir()
        (out / taken).write_text("kept\n")
    else:
        out.write_text("kept\n")
    calls = []
    monkeypatch.setattr(solver, "fit_degrees", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(harness, "fit_degrees", lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path, STUDY_CONFIG.replace("degrees = 2 3", degree_key))
    assert run([command, "--config", cfg, "--output", str(out)]) == 1
    assert calls == []
    assert str(out) in capsys.readouterr().err
    assert (out / taken if taken else out).read_text() == "kept\n"
    if taken:
        assert os.listdir(out) == [taken]  # no other report written


def test_basis_output_that_is_a_directory_exits_1(tmp_path, capsys):
    assert run(["basis", "--degree", "0", "--output", str(tmp_path), "--force"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    assert captured.out == ""


def test_unknown_arguments_exit_1(capsys):
    assert run(["study", "--config"]) == 1
    assert run(["frobnicate"]) == 1
