"""The README's library sketch runs as written and prints what it claims."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_sketch_runs():
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(sketch(), "README.md", "exec"), namespace)
    result = namespace["result"]
    ratio = result.residual_norm / result.data_norm
    assert 1e-4 <= ratio <= 1e-3
    assert float(out.getvalue().split()[0]) == ratio
    assert namespace["disp"].shape == (1, 3) and namespace["stress"].shape == (1, 3, 3)
