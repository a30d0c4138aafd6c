"""Canonical value encoding.

Everything hashed or committed to disk goes through one byte-stable encoding:
JSON with sorted keys, no insignificant whitespace, lowercase literals, and
shortest round-trip decimal rendering for floats (Python's ``repr``). An
``array.array`` encodes as the list of its items. Two semantically equal
values always produce identical bytes, so reformatting a config file never
changes a fingerprint.
"""

from __future__ import annotations

import json
from pathlib import Path


def _as_list(value: object) -> list:
    """An ``array.array`` encodes as the list of its items."""
    # imported here: the orchestrator imports this module and holds no array
    from array import array

    if isinstance(value, array):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(value: object) -> str:
    """Render `value` in the canonical text form."""
    return json.dumps(
        value,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
        default=_as_list,
    )


def canonical_bytes(value: object) -> bytes:
    """Render `value` as canonical UTF-8 bytes."""
    return canonical_json(value).encode("utf-8")


def dump_canonical(value: object, path: Path | str) -> None:
    """Write `value` canonically encoded (plus a trailing newline) to `path`."""
    Path(path).write_bytes(canonical_bytes(value) + b"\n")


def fmt_num(value: float | int) -> str:
    """Shortest round-trip decimal form of a number for CSV cells."""
    if isinstance(value, bool):  # bool is an int subclass; never wanted here
        raise TypeError("fmt_num expects int or float")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
