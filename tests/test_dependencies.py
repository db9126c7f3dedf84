"""The package depends on numpy alone: every module of `src/elastopoly`
imports only the standard library, numpy and the package itself, and no
command imports `numpy.random`."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "elastopoly"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "elastopoly"}


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay in the package
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not outside, outside


CONFIG = """\
[material]
lambda = 1.0
mu = 1.0
[surface]
kind = sphere
[quadrature]
n_theta = 8
n_phi = 16
[problem]
kind = IV
{degree}
[data]
source = kelvin
y0 = 0 0 3
"""
RUN = """\
import sys, numpy
bare = 'numpy.random' in sys.modules
from elastopoly.cli import run
print(run(sys.argv[1:]), bare, 'numpy.random' in sys.modules)
"""


@pytest.mark.parametrize("command", ["study", "solve", "check"])
def test_no_command_imports_numpy_random(tmp_path, command):
    # in a fresh interpreter, as the suite itself imports numpy.random; measured
    # against a bare `import numpy` there
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG.format(degree="degrees = 1 2" if command == "study" else "degree = 2"))
    args = (["--degree", "2", "--n-theta", "16", "--n-phi", "32"] if command == "check"
            else ["--config", str(config), "--output", str(tmp_path / "out")])
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", RUN, command, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    code, bare, loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stdout
    if bare == "True":  # numpy 1.x imports numpy.random with numpy itself
        pytest.skip("numpy imports numpy.random on `import numpy`")
    assert loaded == "False", done.stdout
