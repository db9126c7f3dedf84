"""Regenerate reference.json: the residual columns of the study and solve
workloads for seeds 0..19, as the current program computes them.

    python3 bench/make_reference.py

Run it only when a change is meant to move the residuals; the benchmark then
compares every study/solve invocation on these seeds against the file within
1e-10 x data_norm.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reference = {}
    for w in workloads.WORKLOADS.values():
        if w.command == "check":
            continue
        for seed in workloads.REFERENCE_SEEDS:
            with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
                cfg, out = Path(tmp) / "workload.cfg", Path(tmp) / "out"
                cfg.write_text(workloads.config_text(w, seed), encoding="utf-8")
                proc = subprocess.run(
                    [sys.executable, "-m", "elastopoly.cli", *workloads.cli_args(w, str(cfg), str(out))],
                    env=env, capture_output=True, text=True, check=False,
                )
                errors = workloads.check(w, seed, proc.returncode, proc.stdout, out, {})
                if errors:
                    print(f"{w.name} seed {seed}: {errors}\n{proc.stderr}", file=sys.stderr)
                    return 1
                got = workloads.results(w, out)
            cols = ["residual_l2", "residual_max", "data_norm"] if w.command == "study" else ["residual_l2", "data_norm"]
            reference.setdefault(w.name, {})[str(seed)] = {c: got[c] for c in cols}
            print(f"{w.name} seed {seed}: residual_l2 {got['residual_l2'][-1]!r}")
    Path(workloads.REFERENCE_PATH).write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
