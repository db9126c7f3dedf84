"""elastopoly benchmark: user-level CLI workloads timed in fresh interpreters.

    python3 bench/run.py --workload study-ellipsoid --seed 0 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is imported from
`src/`.  Closed loop: one client runs one CLI invocation at a time, each in
a new interpreter (every real `elastopoly` call pays the import and the cold
`solid_harmonics` cache), with the BLAS thread count pinned to the CPUs this
process may use.

With `--trace 0` it prints the end-to-end metrics of untraced invocations;
with `--trace 1` it alternates untraced and traced invocations and prints
the per-layer metrics of the traced ones (see tracer.py) plus the tracing
overhead.  Every invocation's outputs are checked; a wrong output counts as
failed.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the metric names are those listed in
BENCHMARK.json.  Scratch files and a full result record (samples, machine
metadata) go to `.bench_build/elastopoly/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
FIRST_PROBES = 4          # fresh-interpreter imports before the first invocation, for setup_s
MIN_UNTRACED = 3          # invocations per run even when --seconds is short
RUN_CAP_S = 150.0         # never start an invocation expected to end past this
DEADLINE_S = 170.0        # a child still running this long after start is killed


@dataclass
class Invocation:
    """Outcome of one child interpreter."""

    result: dict          # what child.py wrote; empty if it wrote nothing
    exit_status: int
    peak_rss_mb: float
    stdout: str
    cpu_s: tuple[float, float]  # user and system CPU seconds of the child


class Runner:
    """Spawns child interpreters in a scratch directory and reaps each one."""

    def __init__(self, scratch: Path, threads: int, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # bytecode is cached under the prefix below
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONPYCACHEPREFIX": str(scratch.parent / "pycache"),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": str(threads),
            "OMP_NUM_THREADS": str(threads),
        })

    def spawn(self, mode: str, args: list[str] = ()) -> Invocation:
        result_path = self.scratch / "result.json"
        log_path = self.scratch / "stdout.txt"
        result_path.unlink(missing_ok=True)
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, "-s", str(CHILD), str(result_path), mode, *args],
                cwd=self.scratch, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
        # Block in wait4 (not Popen.wait) to read the child's own peak RSS; a
        # timer thread kills a hung child.  No polling: a busy parent would
        # steal CPU from the child's BLAS threads.
        killer = threading.Timer(max(1.0, self.deadline - time.perf_counter()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = None
        stdout = log_path.read_text(encoding="utf-8", errors="replace")
        return Invocation(result or {}, proc.returncode, usage.ru_maxrss / 1024.0, stdout,
                          (usage.ru_utime, usage.ru_stime))

    def import_time(self) -> float:
        """Seconds to `import elastopoly.cli` in a fresh interpreter."""
        inv = self.spawn("import")
        if "import_s" not in inv.result:
            raise RuntimeError(f"import probe failed:\n{inv.stdout}")
        return inv.result["import_s"]


def machine(meta: dict, nproc: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": meta.get("python"),
        "numpy": meta.get("numpy"),
        "blas": f"{meta.get('blas_name')} {meta.get('blas_version')}",
        "blas_threads": meta.get("blas_threads"),
    }


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics of the traced invocations: medians of self times and
    call counts, and the computed kernel counts (the same in every invocation)."""
    def med(get):
        return statistics.median(get(t) for t in traced)

    out = {}
    for name in tracer.span_names():
        out[f"{name}.self_s"] = (med(lambda t: t["layers"].get(name, {}).get("self_s", 0.0)), "s")
        out[f"{name}.calls"] = (med(lambda t: t["layers"].get(name, {}).get("calls", 0)), "count")
    counts = traced[0]["counts"]
    dense = counts.get("polyalg.batch_eval.dense", 0)
    out["polyalg.batch_eval.gemm_flop"] = (counts.get("polyalg.batch_eval.gemm_flop", 0), "computed_flop")
    out["polyalg.batch_eval.gemm_bytes"] = (counts.get("polyalg.batch_eval.gemm_bytes", 0), "computed_B")
    out["polyalg.batch_eval.nnz_ratio"] = (
        counts.get("polyalg.batch_eval.nnz", 0) / dense if dense else 0.0, "computed_ratio")
    out["solver.svd.matrix_elems"] = (counts.get("solver.svd.matrix_elems", 0), "computed_count")
    traced_wall = med(lambda t: t["root_s"])
    out["trace.coverage"] = (100.0 * med(lambda t: t["coverage"]), "%")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.bookkeeping_s"] = (med(lambda t: t["bookkeeping_s"]), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    began = time.perf_counter()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    if not (ROOT / "src" / "elastopoly" / "cli.py").is_file():
        print(f"error: no elastopoly source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[opts.workload]
    reference = workloads.load_reference()
    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".bench_build" / "elastopoly"
    work.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work))
    try:
        runner = Runner(scratch, threads, began + DEADLINE_S)
        meta = runner.spawn("meta")  # also fills the bytecode cache before any timing
        module = meta.result.get("module", "")
        if meta.exit_status != 0 or not module.startswith(str(ROOT / "src")):
            print(f"error: cannot import elastopoly from {ROOT / 'src'}:\n{meta.stdout}", file=sys.stderr)
            return 2
        host = machine(meta.result, threads)

        # Import probes are spread over the run, one after each invocation, so
        # that setup_s sees the same machine conditions as wall_s.
        setup = [runner.import_time() for _ in range(FIRST_PROBES)]
        config = scratch / "workload.cfg"
        if w.command != "check":
            config.write_text(workloads.config_text(w, opts.seed), encoding="utf-8")
        output = scratch / "out"
        args = workloads.cli_args(w, config.name, output.name)
        untraced, traced, peaks, cpu, errors, durations = [], [], [], [], [], []
        attempted = failed = 0
        while True:
            mode = "trace" if opts.trace and attempted % 2 == 1 else "run"
            shutil.rmtree(output, ignore_errors=True)
            iteration = time.perf_counter()
            inv = runner.spawn(mode, args)
            attempted += 1
            code = inv.result.get("exit_code", inv.exit_status) if inv.exit_status == 0 else inv.exit_status
            problems = workloads.check(w, opts.seed, code, inv.stdout, output, reference)
            if "wall_s" not in inv.result:
                problems.append("no timing recorded")
            if problems:
                failed += 1
                errors.append({"invocation": attempted, "errors": problems, "stdout_tail": inv.stdout[-2000:]})
            elif mode == "trace":
                traced.append(inv.result["trace"])
            else:
                untraced.append(inv.result["wall_s"])
                peaks.append(inv.peak_rss_mb)
                cpu.append(inv.cpu_s)
            setup.append(runner.import_time())
            durations.append(time.perf_counter() - iteration)
            elapsed = time.perf_counter() - began
            typical = statistics.median(durations)
            enough = len(untraced) >= (1 if opts.trace else MIN_UNTRACED) and (traced or not opts.trace)
            if elapsed + typical > RUN_CAP_S or (enough and elapsed + typical > opts.seconds):
                break
            if failed > attempted // 2 and attempted >= 2:
                break

        metrics: dict[str, tuple[float, str]] = {}
        if untraced:
            metrics["wall_s"] = (statistics.median(untraced), "s")
            metrics["peak_rss_mb"] = (statistics.median(peaks), "MB")
        metrics["setup_s"] = (statistics.median(setup), "s")
        if traced and untraced:
            metrics.update(layer_metrics(traced, statistics.median(untraced)))

        record = {
            "workload": w.name, "seed": opts.seed, "seconds": opts.seconds, "trace": opts.trace,
            "machine": host, "closed_loop_clients": 1,
            "samples": {"wall_s": untraced, "peak_rss_mb": peaks, "cpu_user_sys_s": cpu, "setup_s": setup,
                        "traced": len(traced)},
            "error_rate": failed / attempted, "errors": errors,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        results_dir = work / "results"
        results_dir.mkdir(exist_ok=True)
        (results_dir / f"{w.name}-seed{opts.seed}-trace{opts.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")

        print(f"workload {w.name} seed {opts.seed}: {attempted} invocations "
              f"({len(untraced)} untraced, {len(traced)} traced), error_rate {failed / attempted:g}")
        for err in errors:
            print(f"  invocation {err['invocation']} failed: {'; '.join(err['errors'])}")
        print("machine " + json.dumps(host))
        for name in (m["name"] for m in wanted if m["name"] in metrics):
            print(f"  {name} = {metrics[name][0]:.6g} {metrics[name][1]}")
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        print(json.dumps({
            "correct": failed == 0 and not missing,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                        for m in wanted if m["name"] in metrics},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
