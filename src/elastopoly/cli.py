"""Batch front-end: basis export, identity checks, single fits, degree studies.

Exit codes: 0 success, 1 validation/configuration error, 2 numerical check
failure in `check`.  Configs are flat `key = value` text under `[section]`
headers; a key given twice is an error, `--set section.key=value` overrides
win, and an entry the command never reads is an error.  The keys of a
surface kind or data source (`harness.KINDS`) are its dataclass fields, and
an absent key takes the library default.  All floating-point output carries
17 significant digits so files round-trip exactly and repeated runs at a
fixed BLAS thread count are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import MISSING, fields

import numpy as np

from .basis import Material, elastic_basis, harmonic_and_row
from .geometry import Sphere, make_quadrature
from .harness import KINDS, StudyConfig, prepare, reciprocity_matrix, run_study
from .ioutil import fmt17
from .operators import RigidDisplacement, lame_residuals, traction
from .polyalg import rows_text
from .solver import fit, fit_result_json, misfit_csv


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
        if key in sections[current]:
            raise CliError(f"{origin}:{lineno}: [{current}] {key} is given twice")
        sections[current][key] = value
    return sections


def apply_overrides(cfg: dict[str, dict[str, str]], overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise CliError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        cfg.setdefault(section.strip(), {})[key.strip()] = value.strip()


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


def _bool(text: str, what: str) -> bool:
    for value, words in ((True, ("on", "true", "yes", "1")), (False, ("off", "false", "no", "0"))):
        if text.lower() in words:
            return value
    raise CliError(f"{what}: expected on/off, true/false, yes/no or 1/0, got {text!r}")


def _three(text: str, what: str) -> tuple[float, ...]:
    return _floats(text, what, 3)


def _coeffs(text: str, what: str) -> tuple[tuple[int, int, float], ...]:
    coeffs = []
    for block in text.split(";"):
        block = block.strip()
        if not block:
            continue
        parts = block.split()
        if len(parts) != 3:
            raise CliError(f"{what}: each entry is 'k s c', got {block!r}")
        coeffs.append((_int(parts[0], f"{what} degree"), _int(parts[1], f"{what} index"),
                       _float(parts[2], f"{what} coefficient")))
    return tuple(coeffs)


# The parser of each key that is a dataclass field: the fields of every class
# in `KINDS`, and the quadrature and fit settings of `StudyConfig`.
_PARSERS = {
    "surface": {"center": _three, "radius": _float, "semi_axes": _three, "coeffs": _coeffs, "axis": _three},
    "quadrature": {"n_theta": _int, "n_phi": _int},
    "problem": {"svd_tol": _float, "scalar_weight": _float},
    "data": {"y0": _three, "row": _int, "index": _int, "path": lambda text, what: text},
}
_REQUIRED = {"semi_axes", "coeffs"}  # the class has a default, the config must not rely on it
_COMMAND_KEYS = {"study": {"degrees"}, "solve": {"degree", "project_tangential"}}


def _allowed_keys(command: str) -> dict[str, set[str]]:
    """Every key `command` reads, per section, whatever the surface kind or data source."""
    allowed = {section: set(parsers) for section, parsers in _PARSERS.items()}
    for section, (key, _) in KINDS.items():
        allowed[section].add(key)
    allowed["material"] = {"lambda", "mu"}
    allowed["problem"] |= {"kind"} | _COMMAND_KEYS[command]
    return allowed


def _check_keys(cfg: dict[str, dict[str, str]], command: str) -> None:
    """Reject an entry that no reader of `command` looks up, such as a typo."""
    allowed = _allowed_keys(command)
    for section, entries in cfg.items():
        for key in entries:
            if key not in allowed.get(section, ()):
                raise CliError(f"config entry [{section}] {key} is not used by {command}")


def _get(cfg, section, key, default=None, required=False):
    try:
        return cfg[section][key]
    except KeyError:
        if required:
            raise CliError(f"missing required config entry [{section}] {key}") from None
        return default


def material_from_config(cfg) -> Material:
    lam = _float(_get(cfg, "material", "lambda", required=True), "[material] lambda")
    mu = _float(_get(cfg, "material", "mu", required=True), "[material] mu")
    try:
        return Material(lam, mu)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _fields_from(cfg, section: str, cls) -> dict:
    """Keyword arguments of `cls` from the entries of `section` that have a
    parser; an absent entry leaves the field's default to the class."""
    kwargs = {}
    for f in fields(cls):
        parse = _PARSERS[section].get(f.name)
        if parse is None:
            continue
        text = _get(cfg, section, f.name, required=f.default is MISSING or f.name in _REQUIRED)
        if text is not None:
            kwargs[f.name] = parse(text, f"[{section}] {f.name}")
    return kwargs


def _kind_from_config(cfg, section: str):
    """The surface kind or data source that `section` names, built from its entries."""
    key, kinds = KINDS[section]
    name = _get(cfg, section, key, required=True).lower()
    if name not in kinds:
        *others, last = kinds
        raise CliError(f"[{section}] {key} must be {', '.join(others)} or {last}, got {name!r}")
    return kinds[name](**_fields_from(cfg, section, kinds[name]))


def study_config_from(cfg, degrees: tuple[int, ...]) -> StudyConfig:
    try:
        return StudyConfig(
            material=material_from_config(cfg),
            surface=_kind_from_config(cfg, "surface"),
            problem=_get(cfg, "problem", "kind", required=True).upper(),
            degrees=degrees,
            source=_kind_from_config(cfg, "data"),
            **_fields_from(cfg, "quadrature", StudyConfig),
            **_fields_from(cfg, "problem", StudyConfig),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


# -- output helpers -----------------------------------------------------------------


def _check_output(args, *reports: str) -> None:
    """Refuse, before any work and creating nothing, an --output that is not a
    directory or that holds one of the named reports (or quadrature.csv under
    --export-quadrature) without --force."""
    if os.path.exists(args.output) and not os.path.isdir(args.output):
        raise CliError(f"--output {args.output} exists and is not a directory")
    for name in (*reports, "quadrature.csv") if args.export_quadrature else reports:
        path = os.path.join(args.output, name)
        if os.path.exists(path) and not args.force:
            raise CliError(f"refusing to overwrite existing report {path} (use --force)")


def _write_reports(args, reports: dict[str, str], quad) -> None:
    """Write each named report, and the quadrature under --export-quadrature,
    into the --output directory that `_check_output` accepted."""
    if args.export_quadrature:
        reports["quadrature.csv"] = quad.to_csv()
    os.makedirs(args.output, exist_ok=True)
    for name, content in reports.items():
        with open(os.path.join(args.output, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)


# -- subcommands --------------------------------------------------------------------


def cmd_basis(args) -> int:
    if args.output != "-" and os.path.exists(args.output) and not args.force:
        raise CliError(f"refusing to overwrite {args.output} (use --force)")
    try:
        basis = elastic_basis(Material(args.lam, args.mu), args.degree)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    blocks = []
    for k, (_, _, values) in enumerate(basis.layout[::2]):
        texts = np.array(rows_text(values.reshape(-1, values.shape[-1]), k), dtype=object).reshape(values.shape[:-1])
        for i in range(values.shape[1]):
            lines = ["# degree={} s={} row={}".format(k, *harmonic_and_row(i))]
            for j, text in enumerate(texts[:, i], start=1):
                lines += [f"# component={j}", text]
            blocks.append("\n".join(filter(None, lines)))  # no line for a zero component
    payload = "\n\n".join(blocks) + "\n"
    if args.output == "-":
        sys.stdout.write(payload)
    else:
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

    residuals = lame_residuals(material, basis.layout)
    worst = float(np.max(residuals))
    count_ok = len(residuals) == 3 * (args.degree + 1) ** 2
    report(
        "basis-identity",
        worst < 1e-12 and count_ok,
        f"max |E p| coefficient {worst:.3e} (tol 1e-12), {len(residuals)} elements",
    )

    # the quadrature's unit normals, and points at radii 2 cbrt(s), s = 0..1 evenly,
    # along the same directions in reverse order
    nrm = quad.normals
    pts = 2.0 * np.cbrt(np.linspace(0.0, 1.0, len(nrm)))[:, None] * nrm[::-1]
    rigid = RigidDisplacement(a=(0.3, -1.2, 0.7), b=(0.5, 0.25, -1.0), x0=(0.1, 0.0, -0.2))
    t = traction(material, rigid.as_vecpoly(), pts, nrm)
    worst_t = float(np.max(np.abs(t)))
    report("rigid-traction", worst_t <= 1e-13 * 2.0, f"max |T(rigid)| = {worst_t:.3e} (tol 1e-13 scale)")

    # Betti pair p is element j of degree k - s and element j of degree k, with
    # s = min(K, 2), k = s + p mod (K + 1 - s) and j = 7p mod 3(2(k - s) + 1), so the
    # 20 pairs reach every degree.  Only degrees two apart can show E v != 0: an odd
    # degree sum makes both integrals vanish by antipodal symmetry, and within one
    # degree the Lambda_k terms cancel.  The Somigliana elements and the three Kelvin
    # row fields of each pole come last, and share the pass when the grids agree
    step, p = min(args.degree, 2), np.arange(20)
    k = step + p % (args.degree + 1 - step)
    j = 7 * p % (6 * (k - step) + 3)
    betti = np.ravel([3 * (k - step) ** 2 + j, 3 * k * k + j], order="F")
    somigliana = range(0, len(basis), max(1, len(basis) // 4))[:4]
    poles = np.array([[0.3, 0.1, -0.2], [0.0, 0.0, 5.0]])  # inside and outside the unit sphere
    somigliana_grid = (48, 96)
    shared = (args.n_theta, args.n_phi) == somigliana_grid
    a, sq_norms, at_poles = reciprocity_matrix(basis, [*betti, *somigliana] if shared else betti, quad,
                                               poles if shared else ())
    i, j = np.arange(0, len(betti), 2), np.arange(1, len(betti), 2)
    norms = np.sqrt(sq_norms)
    worst_b = float(np.max(np.abs(a[i, j] - a[j, i]) / np.maximum(1.0, norms[i] * norms[j])))
    report("betti", worst_b <= 1e-8, f"worst |reciprocity integral| / scale = {worst_b:.3e} (tol 1e-8)")

    if not shared:
        a, _, at_poles = reciprocity_matrix(basis, somigliana, make_quadrature(Sphere(), *somigliana_grid), poles)
    kelvin = len(a) - 3 * len(poles)  # the first Kelvin field, just after the Somigliana elements
    w = np.arange(kelvin - len(somigliana), kelvin)[:, None, None]
    k = np.arange(kelvin, len(a)).reshape(len(poles), 3)
    integral = a[w, k] - a[k, w]  # (element, pole, row): the representation of the element at the pole
    worst_in = float(np.max(np.abs(integral[:, 0] - at_poles[0, -len(somigliana):])))
    worst_out = float(np.max(np.abs(integral[:, 1])))
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
    degree = _int(_get(cfg, "problem", "degree", required=True), "[problem] degree")
    if degree < 0:
        raise CliError(f"[problem] degree must be non-negative, got {degree}")
    config = study_config_from(cfg, (degree,))
    project = _bool(_get(cfg, "problem", "project_tangential", "off"), "[problem] project_tangential")
    _check_output(args, "fit.json", "misfit.csv")
    try:
        quad, basis, data, _ = prepare(config)
        result = fit(data, basis, quad, svd_tol=config.svd_tol, scalar_weight=config.scalar_weight,
                     project_tangential=project)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _write_reports(args, {"fit.json": fit_result_json(result), "misfit.csv": misfit_csv(result, quad)}, quad)
    print(
        f"fit: residual {fmt17(result.residual_norm)} of data norm {fmt17(result.data_norm)}, "
        f"rank {result.kept_rank}/{len(basis)} -> {args.output}"
    )
    return 0


def cmd_study(args) -> int:
    cfg = _load_config(args)
    degrees = tuple(_int(v, "[problem] degrees") for v in _get(cfg, "problem", "degrees", required=True).split())
    config = study_config_from(cfg, degrees)
    _check_output(args, "study.csv", "study.json")
    try:
        report = run_study(config)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _write_reports(args, {"study.csv": report.to_csv(), "study.json": report.metadata_json()}, report.quadrature)
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
    except (CliError, OSError) as exc:  # OSError: a report or data file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
