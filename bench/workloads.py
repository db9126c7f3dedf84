"""The benchmark's workloads: CLI arguments, generated configs and output checks.

A workload seed picks only the direction of the Kelvin pole, at a fixed
distance from the centre, so every seed does the same amount of work on the
same shapes.  The program sees only the generated config file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_TOL = 1e-10  # times data_norm
REFERENCE_SEEDS = range(20)  # seeds with committed residuals in reference.json


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # elastopoly subcommand
    surface: str = ""        # [surface] semi_axes of an ellipsoid
    problem: str = ""
    degrees: tuple[int, ...] = ()
    n_theta: int = 0
    n_phi: int = 0
    pole_distance: float = 0.0
    check_args: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-ellipsoid", "study", "1.0 1.3 1.7", "III", tuple(range(2, 9)), 32, 64, 5.1),
        Workload("solve-k14", "solve", "1.0 1.0 1.5", "IV", (14,), 48, 96, 4.0),
        Workload("check-k12", "check", check_args=("--degree", "12", "--n-theta", "48", "--n-phi", "96")),
    )
}


def pole(seed: int, distance: float) -> tuple[float, float, float]:
    """A direction drawn uniformly on the sphere from the seed, scaled to distance."""
    rng = random.Random(seed)
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(distance * c / norm for c in v)


def config_text(w: Workload, seed: int) -> str:
    degree_key = f"degrees = {' '.join(map(str, w.degrees))}" if w.command == "study" else f"degree = {w.degrees[0]}"
    y0 = " ".join(repr(c) for c in pole(seed, w.pole_distance))
    return "\n".join([
        "[material]", "lambda = 1.0", "mu = 1.0",
        "[surface]", "kind = ellipsoid", "center = 0 0 0", f"semi_axes = {w.surface}",
        "[quadrature]", f"n_theta = {w.n_theta}", f"n_phi = {w.n_phi}",
        "[problem]", f"kind = {w.problem}", degree_key, "svd_tol = 1e-12",
        "[data]", "source = kelvin", f"y0 = {y0}", "row = 1",
    ]) + "\n"


def cli_args(w: Workload, config: str, output: str) -> list[str]:
    if w.command == "check":
        return ["check", *w.check_args]
    return [w.command, "--config", config, "--output", output]


def results(w: Workload, output: Path) -> dict:
    """The residual columns of the reports: per degree for a study, one entry for a solve."""
    if w.command == "study":
        lines = (output / "study.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        return {
            "degree": [int(r["K"]) for r in rows],
            "kept_rank": [int(r["kept_rank"]) for r in rows],
            "residual_l2": [float(r["residual_l2"]) for r in rows],
            "residual_max": [float(r["residual_max"]) for r in rows],
            "data_norm": [float(r["data_norm"]) for r in rows],
        }
    fit = json.loads((output / "fit.json").read_text(encoding="utf-8"))
    n_misfit_rows = len((output / "misfit.csv").read_text(encoding="utf-8").splitlines()) - 1
    return {
        "degree": [w.degrees[0]],
        "kept_rank": [fit["kept_rank"]],
        "residual_l2": [float(fit["residual_norm"])],
        "data_norm": [float(fit["data_norm"])],
        "misfit_rows": n_misfit_rows,
    }


def check(w: Workload, seed: int, exit_code: int, stdout: str, output: Path, reference: dict) -> list[str]:
    """Reasons the invocation's outputs are wrong; empty when they are right."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if w.command == "check":
        passes = [line for line in stdout.splitlines() if line.startswith("PASS ")]
        return [] if len(passes) == 4 else [f"{len(passes)} PASS lines, expected 4"]
    try:
        got = results(w, output)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]
    errors = []
    if got["degree"] != list(w.degrees):
        errors.append(f"degrees {got['degree']}, expected {list(w.degrees)}")
    for k, rank in zip(got["degree"], got["kept_rank"]):
        if rank != 3 * (k + 1) ** 2:
            errors.append(f"K={k}: kept_rank {rank}, expected {3 * (k + 1) ** 2}")
    res = got["residual_l2"]
    if not all(math.isfinite(r) for r in res):
        errors.append(f"non-finite residual {res}")
    if any(b >= a for a, b in zip(res, res[1:])):
        errors.append(f"residual_l2 does not strictly decrease with K: {res}")
    if w.command == "solve" and got["misfit_rows"] != w.n_theta * w.n_phi:
        errors.append(f"misfit.csv has {got['misfit_rows']} rows, expected {w.n_theta * w.n_phi}")
    ref = reference.get(w.name, {}).get(str(seed))
    if ref is not None:
        for col, values in ref.items():
            for i, (a, b) in enumerate(zip(got[col], values)):
                if not abs(a - b) <= REFERENCE_TOL * ref["data_norm"][i]:
                    errors.append(f"{col}[K={got['degree'][i]}] = {a!r}, reference {b!r}")
    return errors


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
