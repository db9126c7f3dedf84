"""The package depends on numpy alone: every module of `src/elastopoly`
imports only the standard library, numpy and the package itself."""

import ast
import pathlib
import sys

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
