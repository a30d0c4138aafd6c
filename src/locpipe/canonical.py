"""Canonical value encoding.

Everything hashed or committed to disk goes through one byte-stable encoding:
JSON with sorted keys, no insignificant whitespace, lowercase literals, and
shortest round-trip decimal rendering for floats (Python's ``repr``). An
``array.array`` encodes as the list of its items. Two semantically equal
values always produce identical bytes, so reformatting a config file never
changes a fingerprint.

`source_digest` is the one format of a code-identity digest: the builtins'
code digest and the config parser's digest are both built by it.
`frame` and `framed` own the format of both parse memos' entries: the
32-byte SHA-256 of the payload, then the payload.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable


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


def source_digest(sources: Iterable[tuple[str, bytes]]) -> str:
    """SHA-256 over ``python M.m\\0`` (this interpreter's major.minor), then
    ``name\\0len\\0bytes`` for each (name, bytes) of `sources`, in order."""
    digest = hashlib.sha256(f"python {sys.version_info.major}.{sys.version_info.minor}\0".encode())
    for name, data in sources:
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def frame(parts: list) -> list:
    """A checked entry of the payload `parts` (bytes-like): their SHA-256, then them."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return [digest.digest(), *parts]


def framed(digest: bytes, parts: list) -> bool:
    """Whether `digest` heads the `frame` of `parts`."""
    return frame(parts)[0] == digest


def fmt_num(value: float | int) -> str:
    """Shortest round-trip decimal form of a number for CSV cells."""
    if isinstance(value, bool):  # bool is an int subclass; never wanted here
        raise TypeError("fmt_num expects int or float")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
