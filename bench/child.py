"""One benchmark invocation in a fresh interpreter.

    python3 bench/child.py RESULT.json import
    python3 bench/child.py RESULT.json meta
    python3 bench/child.py RESULT.json run|trace CLI-ARG...

Times `import elastopoly.cli`, then (for run/trace) times `cli.run(args)`,
the CLI's in-process entry point, and writes the timings, the exit code and,
in trace mode, the span summary to RESULT.json.  The CLI's own output goes to
this process's stdout/stderr.  `meta` records the interpreter, numpy and
BLAS set-up instead.
"""

import json
import sys
from time import perf_counter


def blas_meta() -> dict:
    """BLAS library, version and the thread count it runs with."""
    import ctypes
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
    }
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                meta["blas_threads"] = fn()
                return meta
    return meta


def main(result_path: str, mode: str, cli_args: list[str]) -> None:
    t0 = perf_counter()
    import elastopoly.cli as cli

    t1 = perf_counter()
    result = {"import_s": t1 - t0, "module": cli.__file__}
    if mode == "meta":
        result.update(blas_meta())
    elif mode in ("run", "trace"):
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = perf_counter()
        try:
            code = cli.run(cli_args)
        except Exception:  # a crash is a failed invocation: reported, not raised
            import traceback

            traceback.print_exc()
            code = -1
        result["wall_s"] = perf_counter() - start
        result["exit_code"] = code
        if tracer is not None:
            result["trace"] = tracer.summary()
    sys.stdout.flush()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
