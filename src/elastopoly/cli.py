"""Batch front-end: basis export, identity checks, single fits, degree studies.

Exit codes: 0 success, 1 validation/configuration error, 2 numerical check
failure in `check`.  Configs are flat `key = value` text under `[section]`
headers; `--set section.key=value` overrides win, and an entry the command
never reads is an error.  All floating-point output
carries 17 significant digits so files round-trip exactly and repeated runs
at a fixed BLAS thread count are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .basis import Material, elastic_basis
from .geometry import Ellipsoid, Sphere, StarShaped, make_quadrature
from .harness import (
    BasisElementSource,
    CsvSource,
    KelvinSource,
    RotationSource,
    StudyConfig,
    prepare,
    reciprocity_defect,
    run_study,
    somigliana_check,
)
from .ioutil import fmt17
from .operators import RigidDisplacement, traction
from .solver import field_samples, fit, fit_result_json, misfit_csv


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliError(message)


# -- config file ------------------------------------------------------------------

# A comment starts at a '#' at line start or after whitespace, so values such
# as paths may contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config(text: str, origin: str = "<config>") -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise CliError(f"{origin}:{lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise CliError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise CliError(f"{origin}:{lineno}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise CliError(f"{origin}:{lineno}: empty key")
        sections[current][key] = value
    return sections


def apply_overrides(cfg: dict[str, dict[str, str]], overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise CliError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        cfg.setdefault(section.strip(), {})[key.strip()] = value.strip()


# Every key a reader below looks up, per section, whatever the surface kind
# or data source; `[problem]` adds the keys of the command.
_CONFIG_KEYS = {
    "material": {"lambda", "mu"},
    "surface": {"kind", "center", "radius", "semi_axes", "coeffs", "axis"},
    "quadrature": {"n_theta", "n_phi"},
    "problem": {"kind", "svd_tol", "scalar_weight"},
    "data": {"source", "y0", "row", "index", "path"},
}
_COMMAND_KEYS = {"study": {"degrees"}, "solve": {"degree", "project_tangential"}}


def _check_keys(cfg: dict[str, dict[str, str]], command: str) -> None:
    """Reject an entry that no reader of `command` looks up, such as a typo."""
    for section, entries in cfg.items():
        allowed = _CONFIG_KEYS.get(section, set()) | (_COMMAND_KEYS[command] if section == "problem" else set())
        for key in entries:
            if key not in allowed:
                raise CliError(f"config entry [{section}] {key} is not used by {command}")


def _get(cfg, section, key, default=None, required=False):
    try:
        return cfg[section][key]
    except KeyError:
        if required:
            raise CliError(f"missing required config entry [{section}] {key}") from None
        return default


def _floats(text: str, what: str, n: int | None = None) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split())
    except ValueError:
        raise CliError(f"{what}: expected numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise CliError(f"{what}: expected finite numbers, got {text!r}")
    if n is not None and len(vals) != n:
        raise CliError(f"{what}: expected {n} numbers, got {len(vals)}")
    return vals


def _float(text: str, what: str) -> float:
    return _floats(text, what, 1)[0]


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"{what}: expected an integer, got {text!r}") from None


def material_from_config(cfg) -> Material:
    lam = _float(_get(cfg, "material", "lambda", required=True), "[material] lambda")
    mu = _float(_get(cfg, "material", "mu", required=True), "[material] mu")
    try:
        return Material(lam, mu)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def surface_from_config(cfg):
    kind = _get(cfg, "surface", "kind", required=True).lower()
    center = _floats(_get(cfg, "surface", "center", "0 0 0"), "[surface] center", 3)
    try:
        if kind == "sphere":
            return Sphere(center=center, radius=_float(_get(cfg, "surface", "radius", "1"), "[surface] radius"))
        if kind == "ellipsoid":
            axes = _floats(_get(cfg, "surface", "semi_axes", required=True), "[surface] semi_axes", 3)
            return Ellipsoid(center=center, semi_axes=axes)
        if kind == "star":
            coeff_text = _get(cfg, "surface", "coeffs", required=True)
            coeffs = []
            for block in coeff_text.split(";"):
                block = block.strip()
                if not block:
                    continue
                parts = block.split()
                if len(parts) != 3:
                    raise CliError(f"[surface] coeffs: each entry is 'k s c', got {block!r}")
                coeffs.append((_int(parts[0], "coeff degree"), _int(parts[1], "coeff index"),
                               _float(parts[2], "[surface] coeffs coefficient")))
            axis_text = _get(cfg, "surface", "axis")
            axis = _floats(axis_text, "[surface] axis", 3) if axis_text else None
            return StarShaped(center=center, coeffs=tuple(coeffs), axis=axis)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    raise CliError(f"[surface] kind must be sphere, ellipsoid or star, got {kind!r}")


def source_from_config(cfg):
    name = _get(cfg, "data", "source", required=True).lower()
    if name == "kelvin":
        y0 = _floats(_get(cfg, "data", "y0", required=True), "[data] y0", 3)
        return KelvinSource(y0=y0, row=_int(_get(cfg, "data", "row", "1"), "[data] row"))
    if name == "basis_element":
        return BasisElementSource(index=_int(_get(cfg, "data", "index", required=True), "[data] index"))
    if name == "rotation":
        return RotationSource(index=_int(_get(cfg, "data", "index", "0"), "[data] index"))
    if name == "csv":
        return CsvSource(path=_get(cfg, "data", "path", required=True))
    raise CliError(f"[data] source must be kelvin, basis_element, rotation or csv, got {name!r}")


def study_config_from(cfg, degrees: tuple[int, ...]) -> StudyConfig:
    try:
        return StudyConfig(
            material=material_from_config(cfg),
            surface=surface_from_config(cfg),
            problem=_get(cfg, "problem", "kind", required=True).upper(),
            degrees=degrees,
            source=source_from_config(cfg),
            n_theta=_int(_get(cfg, "quadrature", "n_theta", "32"), "[quadrature] n_theta"),
            n_phi=_int(_get(cfg, "quadrature", "n_phi", "64"), "[quadrature] n_phi"),
            svd_tol=_float(_get(cfg, "problem", "svd_tol", "1e-12"), "[problem] svd_tol"),
            scalar_weight=_float(_get(cfg, "problem", "scalar_weight", "1"), "[problem] scalar_weight"),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


# -- output helpers -----------------------------------------------------------------


def _prepare_output(outdir: str, names: list[str], force: bool) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name in names:
        path = os.path.join(outdir, name)
        if os.path.exists(path) and not force:
            raise CliError(f"refusing to overwrite existing report {path} (use --force)")


def _write(outdir: str, name: str, content: str) -> None:
    with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


# -- subcommands --------------------------------------------------------------------


def cmd_basis(args) -> int:
    try:
        basis = elastic_basis(Material(args.lam, args.mu), args.degree)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    blocks = []
    for el in basis:
        lines = [f"# degree={el.degree} s={el.harmonic_index} row={el.row}"]
        for comp_idx, comp in enumerate(el.field.components, start=1):
            lines.append(f"# component={comp_idx}")
            text = comp.to_text()
            if text:
                lines.append(text)
        blocks.append("\n".join(lines))
    payload = "\n\n".join(blocks) + "\n"
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        if os.path.exists(args.output) and not args.force:
            raise CliError(f"refusing to overwrite {args.output} (use --force)")
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        print(f"wrote {len(basis)} elements to {args.output}")
    return 0


def cmd_check(args) -> int:
    try:
        material = Material(args.lam, args.mu)
        basis = elastic_basis(material, args.degree)
        quad = make_quadrature(Sphere(), args.n_theta, args.n_phi)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1

    from .operators import lame_apply

    worst = max(lame_apply(material, el.field.normalized()).max_abs_coeff() for el in basis)
    count_ok = len(basis) == 3 * (args.degree + 1) ** 2
    report(
        "basis-identity",
        worst < 1e-12 and count_ok,
        f"max |E p| coefficient {worst:.3e} (tol 1e-12), {len(basis)} elements",
    )

    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 3))
    nrm = rng.normal(size=(1000, 3))
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    rigid = RigidDisplacement(a=(0.3, -1.2, 0.7), b=(0.5, 0.25, -1.0), x0=(0.1, 0.0, -0.2))
    t = traction(material, rigid.as_vecpoly(), pts, nrm)
    worst_t = float(np.max(np.abs(t)))
    report("rigid-traction", worst_t <= 1e-13 * 2.0, f"max |T(rigid)| = {worst_t:.3e} (tol 1e-13 scale)")

    def betti_ratio(i: int, j: int) -> float:
        # one sampling of each field serves both the scale and the integral
        uu, tu = field_samples(material, basis.elements[i].field, quad)
        vv, tv = field_samples(material, basis.elements[j].field, quad)
        return reciprocity_defect(quad, uu, tu, vv, tv) / max(1.0, quad.norm(uu) * quad.norm(vv))

    worst_b = max(betti_ratio(*rng.integers(0, len(basis), size=2)) for _ in range(20))
    report("betti", worst_b <= 1e-8, f"worst |reciprocity integral| / scale = {worst_b:.3e} (tol 1e-8)")

    quad48 = make_quadrature(Sphere(), 48, 96)
    x_in, x_out = np.array([0.3, 0.1, -0.2]), np.array([0.0, 0.0, 5.0])
    worst_in = worst_out = 0.0
    for el in basis.elements[:: max(1, len(basis) // 4)][:4]:
        worst_in = max(worst_in, float(np.max(np.abs(somigliana_check(material, el.field, quad48, x_in, "interior")))))
        worst_out = max(worst_out, float(np.max(np.abs(somigliana_check(material, el.field, quad48, x_out, "exterior")))))
    report(
        "somigliana",
        worst_in <= 1e-6 and worst_out <= 1e-8,
        f"interior dev {worst_in:.3e} (tol 1e-6), exterior dev {worst_out:.3e} (tol 1e-8)",
    )

    return 2 if failures else 0


def _load_config(args) -> dict[str, dict[str, str]]:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config {args.config}: {exc}") from None
    cfg = parse_config(text, origin=args.config)
    apply_overrides(cfg, args.set or [])
    _check_keys(cfg, args.command)
    return cfg


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    config = study_config_from(cfg, (_int(_get(cfg, "problem", "degree", required=True), "[problem] degree"),))
    project = _get(cfg, "problem", "project_tangential", "off").lower() in ("on", "true", "1", "yes")
    try:
        quad, basis, data, _, gammas = prepare(config)
        result = fit(data, basis, quad, svd_tol=config.svd_tol, scalar_weight=config.scalar_weight,
                     project_tangential=project, rotation_fields=gammas or None)
    except (ValueError, OSError) as exc:
        raise CliError(str(exc)) from None

    names = ["fit.json", "misfit.csv"] + (["quadrature.csv"] if args.export_quadrature else [])
    _prepare_output(args.output, names, args.force)
    _write(args.output, "fit.json", fit_result_json(result))
    _write(args.output, "misfit.csv", misfit_csv(result, quad))
    if args.export_quadrature:
        _write(args.output, "quadrature.csv", quad.to_csv())
    print(
        f"fit: residual {fmt17(result.residual_norm)} of data norm {fmt17(result.data_norm)}, "
        f"rank {result.kept_rank}/{len(basis)} -> {args.output}"
    )
    return 0


def cmd_study(args) -> int:
    cfg = _load_config(args)
    degrees = tuple(_int(v, "[problem] degrees") for v in _get(cfg, "problem", "degrees", required=True).split())
    config = study_config_from(cfg, degrees)
    try:
        report = run_study(config)
    except (ValueError, OSError) as exc:
        raise CliError(str(exc)) from None
    names = ["study.csv", "study.json"] + (["quadrature.csv"] if args.export_quadrature else [])
    _prepare_output(args.output, names, args.force)
    _write(args.output, "study.csv", report.to_csv())
    _write(args.output, "study.json", report.metadata_json())
    if args.export_quadrature:
        _write(args.output, "quadrature.csv", report.quadrature.to_csv())
    last = report.rows[-1]
    print(
        f"study: degrees {config.degrees[0]}..{config.degrees[-1]}, final residual "
        f"{fmt17(last.residual_l2)} of data norm {fmt17(last.data_norm)} -> {args.output}"
    )
    return 0


# -- entry point --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="elastopoly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="export the elastic polynomial basis as text tables")
    p_basis.add_argument("--degree", type=int, required=True, help="maximum polynomial degree K")
    p_basis.add_argument("--lambda", dest="lam", type=float, default=1.0, help="Lame lambda")
    p_basis.add_argument("--mu", type=float, default=1.0, help="Lame mu")
    p_basis.add_argument("--output", default="-", help="output file, or - for stdout")
    p_basis.add_argument("--force", action="store_true", help="overwrite an existing output file")
    p_basis.set_defaults(func=cmd_basis)

    p_check = sub.add_parser("check", help="run the identity suites and print pass/fail lines")
    p_check.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_check.add_argument("--mu", type=float, default=1.0)
    p_check.add_argument("--degree", type=int, default=6)
    p_check.add_argument("--n-theta", type=int, default=32)
    p_check.add_argument("--n-phi", type=int, default=64)
    p_check.set_defaults(func=cmd_check)

    for name, func, help_text in [
        ("solve", cmd_solve, "run a single boundary least-squares fit from a config"),
        ("study", cmd_study, "run a degree sweep and write the study report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the key=value config file")
        p.add_argument("--output", required=True, help="output directory for the reports")
        p.add_argument("--force", action="store_true", help="overwrite existing reports")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config entry (repeatable)")
        p.add_argument("--export-quadrature", action="store_true",
                       help="also write the quadrature samples as CSV")
        p.set_defaults(func=func)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
