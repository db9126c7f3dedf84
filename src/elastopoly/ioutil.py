"""Small serialization helpers shared by the report writers and the CLI."""

from __future__ import annotations

import json


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"


def csv_text(header: str, table) -> str:
    """A CSV report: the header line, then the comma-joined `fmt17` fields of
    each row of a 2-D float array, one %-operation per row, and a final newline."""
    line = ",".join(["%.17g"] * table.shape[1])
    return "\n".join([header, *(line % tuple(row) for row in table.tolist())]) + "\n"


def json_dumps(obj) -> str:
    """Serialize nested dict/list/scalar data, numpy arrays and scalars
    included, to JSON with 17-digit floats.

    The standard json module offers no hook for float formatting, so this is
    a tiny recursive writer; strings go through `json.dumps`.  Dict keys must
    be strings; insertion order is preserved, which keeps output
    byte-identical across runs.
    """
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for n, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if n:
                out.append(", ")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for n, value in enumerate(obj):
            if n:
                out.append(", ")
            _write(value, out)
        out.append("]")
    else:
        try:
            _write(obj.tolist(), out)  # numpy scalars and arrays
        except AttributeError:
            raise TypeError(f"cannot serialize {type(obj).__name__} to JSON") from None


def _json_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return fmt17(x)
